package dist

import (
	"io"
	"os"
	"os/exec"
)

// execProc adapts an os/exec worker to Proc: Write feeds its stdin, Read
// drains its stdout, Kill terminates and reaps it.
type execProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
}

func (p *execProc) Read(b []byte) (int, error)  { return p.stdout.Read(b) }
func (p *execProc) Write(b []byte) (int, error) { return p.stdin.Write(b) }

func (p *execProc) Kill() error {
	p.stdin.Close()
	_ = p.cmd.Process.Kill()
	err := p.cmd.Wait()
	p.stdout.Close()
	return err
}

// StartProc starts exe as a worker process: env is appended to this
// process's environment, the child's stdin and stdout carry the frame
// protocol, and its stderr goes to stderr. cmd/columbia re-executes its
// own binary with COLUMBIA_WORKER=1, which selects worker mode.
func StartProc(exe string, stderr io.Writer, env ...string) (Proc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		stdout.Close()
		return nil, err
	}
	return &execProc{cmd: cmd, stdin: stdin, stdout: stdout}, nil
}
