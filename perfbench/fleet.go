package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"columbia/internal/core"
	"columbia/internal/dist"
)

const (
	// workerEnv makes the benchmark binary serve sweep points as a worker.
	workerEnv = "PERFBENCH_WORKER"
	// pingKind is a request the worker answers without computing; set-up
	// sends pings until every lane of a fleet has spawned its worker.
	pingKind = "perfbench-ping"
	// maxPings bounds that loop.
	maxPings = 64
	// workerHeartbeat matches the interval cmd/columbia announces.
	workerHeartbeat = time.Second
	// killGrace is how long Kill waits for a worker to exit on its own
	// (after the shutdown frame and stdin EOF) before killing it, so the
	// worker can report its totals.
	killGrace = 5 * time.Second
)

// workerTotals is what a worker reports on file descriptor 3 as it exits:
// the points it executed and the seconds it spent in core.ExecutePoint.
type workerTotals struct {
	Points int     `json:"points"`
	ExecS  float64 `json:"exec_s"`
}

// workerMain serves points over stdin/stdout with a timing executor around
// core.ExecutePoint and reports its totals at shutdown.
func workerMain() int {
	var tot workerTotals
	err := dist.ServeWorker(os.Stdin, os.Stdout, func(dist.Hello) (dist.Executor, error) {
		return func(ctx context.Context, kind, key string, spec []byte) ([]byte, error) {
			if kind == pingKind {
				return nil, nil
			}
			t0 := time.Now()
			out, err := core.ExecutePoint(ctx, kind, key, spec)
			tot.ExecS += time.Since(t0).Seconds()
			tot.Points++
			return out, err
		}, nil
	})
	report := os.NewFile(3, "totals")
	if report != nil {
		_ = json.NewEncoder(report).Encode(tot)
		report.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// workerProc is one worker process as the supervisor sees it (dist.Proc).
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
	totals chan workerTotals // buffered(1): the fd-3 reader never blocks
}

func (p *workerProc) Read(b []byte) (int, error)  { return p.stdout.Read(b) }
func (p *workerProc) Write(b []byte) (int, error) { return p.stdin.Write(b) }

// Kill closes the worker's stdin, waits up to killGrace for it to exit,
// kills it if it has not, and reaps it.
func (p *workerProc) Kill() error {
	p.stdin.Close()
	exited := make(chan error, 1)
	go func() { exited <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(killGrace):
		_ = p.cmd.Process.Kill()
		err = <-exited
	}
	p.stdout.Close()
	return err
}

// spawnWorker re-executes this binary in worker mode, with a pipe on file
// descriptor 3 for its exit report.
func spawnWorker(exe string) (*workerProc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		stdin.Close()
		stdout.Close()
		return nil, err
	}
	cmd.ExtraFiles = []*os.File{w}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		stdout.Close()
		r.Close()
		w.Close()
		return nil, err
	}
	w.Close()
	p := &workerProc{cmd: cmd, stdin: stdin, stdout: stdout, totals: make(chan workerTotals, 1)}
	go func() {
		defer r.Close()
		var t workerTotals
		_ = json.NewDecoder(r).Decode(&t) // a crashed worker reports nothing
		p.totals <- t
	}()
	return p, nil
}

// meter is the core.Dispatcher decorator around a fleet: it counts the
// points dispatched and, on a traced fleet, records each Do as a span with
// its spec and reply sizes.
type meter struct {
	d      core.Dispatcher
	points atomic.Int64

	tr   *tracer // nil on an untraced fleet
	root int     // the current traced pass's span

	mu                    sync.Mutex
	specBytes, replyBytes int64
}

func (m *meter) Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error) {
	m.points.Add(1)
	if m.tr == nil {
		return m.d.Do(ctx, class, kind, key, spec)
	}
	t0 := time.Now()
	out, err := m.d.Do(ctx, class, kind, key, spec)
	m.tr.record("dist.do", m.root, t0, time.Now())
	m.mu.Lock()
	m.specBytes += int64(len(spec))
	m.replyBytes += int64(len(out))
	m.mu.Unlock()
	return out, err
}

// fleet is a supervised set of worker processes behind a meter.
type fleet struct {
	sup   *dist.Supervisor
	meter *meter

	mu    sync.Mutex
	procs []*workerProc
}

// startFleet starts a supervisor of n workers and pings until every lane
// has spawned its worker and completed the handshake.
func startFleet(n int, tr *tracer) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	f.sup, err = dist.New(dist.Config{
		Workers: n,
		Spawn: func() (dist.Proc, error) {
			p, err := spawnWorker(exe)
			if err != nil {
				return nil, err
			}
			f.mu.Lock()
			f.procs = append(f.procs, p)
			f.mu.Unlock()
			return p, nil
		},
		Hello: dist.Hello{Heartbeat: workerHeartbeat},
	})
	if err != nil {
		return nil, err
	}
	f.meter = &meter{d: f.sup, tr: tr}
	for i := 0; f.spawned() < n; i++ {
		if i == maxPings {
			f.close()
			return nil, fmt.Errorf("fleet: %d of %d workers spawned after %d pings", f.spawned(), n, i)
		}
		if _, err := f.sup.Do(context.Background(), "perfbench-ping-"+strconv.Itoa(i), pingKind, "", nil); err != nil {
			f.close()
			return nil, fmt.Errorf("fleet: ping: %w", err)
		}
	}
	return f, nil
}

func (f *fleet) spawned() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.procs)
}

// workerCPU is the CPU seconds the fleet's live workers have used so far.
func (f *fleet) workerCPU() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	sum := 0.0
	for _, p := range f.procs {
		sum += procCPU(p.cmd.Process.Pid)
	}
	return sum
}

// fleetReport is what a closed fleet's workers reported.
type fleetReport struct {
	totals  []workerTotals
	peakRSS float64 // MB, the largest worker
	spawned int
}

// close shuts the fleet down (waiting for every worker to exit) and
// collects the workers' exit reports and peak RSS.
func (f *fleet) close() fleetReport {
	f.sup.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := fleetReport{spawned: len(f.procs)}
	for _, p := range f.procs {
		rep.totals = append(rep.totals, <-p.totals)
		if p.cmd.ProcessState == nil {
			continue
		}
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rep.peakRSS = max(rep.peakRSS, float64(ru.Maxrss)/1024)
		}
	}
	return rep
}

// procCPU reads a live process's user+system CPU seconds from
// /proc/<pid>/stat; 0 once the process is gone.
func procCPU(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 1/100 s.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	return (ut + st) / 100
}
