package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"columbia/internal/core"
	"columbia/internal/sweep"
)

// TestMain lets the test binary double as the worker executable: the
// supervisor spawns os.Executable() with COLUMBIA_WORKER=1, which in tests
// is this binary, so the interception must happen before any test runs.
func TestMain(m *testing.M) {
	if os.Getenv("COLUMBIA_WORKER") == "1" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// runCLI runs the command and returns its exit code, stdout and stderr.
// A run replaces the process-global sweep pool, which runCLI resets so test
// order never matters, and installs a core.RunConfig, which it must restore
// on return: runCLI fails the test if any flag leaks into the run config.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return runCLICtx(t, context.Background(), args...)
}

// runCLICtx is runCLI under ctx.
func runCLICtx(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	defer sweep.SetWorkers(0)
	var out, errOut strings.Builder
	code := run(ctx, args, &out, &errOut)
	if rc := core.Current(); rc != (core.RunConfig{}) {
		t.Errorf("columbia %s leaked its run config: %+v", strings.Join(args, " "), rc)
	}
	return code, out.String(), errOut.String()
}

func TestFaultedRunExitsNonzeroWithAnnotatedCells(t *testing.T) {
	code, s, errOut := runCLI(t, "-faults", "nodedown=0", "run", "stride")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, errOut)
	}
	// Healthy analytic rows render alongside the degraded simulation row.
	if !strings.Contains(s, "DGEMM per-CPU") {
		t.Errorf("healthy rows missing:\n%s", s)
	}
	if !strings.Contains(s, "!node-down") {
		t.Errorf("degraded cells missing:\n%s", s)
	}
	if !strings.Contains(errOut, "3 point(s) failed") {
		t.Errorf("stderr summary missing: %q", errOut)
	}
}

func TestHealthyRunExitsZero(t *testing.T) {
	code, out, errOut := runCLI(t, "run", "table1", "stride")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, errOut)
	}
	for _, want := range []string{"== table1:", "== stride:", "Ping-Pong latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if errOut != "" {
		t.Errorf("stderr not empty on a healthy run: %q", errOut)
	}
}

func TestBadFaultSpecIsUsageError(t *testing.T) {
	code, _, errOut := runCLI(t, "-faults", "bogus=1", "run", "stride")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut, "bogus") {
		t.Errorf("stderr should name the bad directive: %q", errOut)
	}
}

func TestBadExperimentIDExitsOne(t *testing.T) {
	code, _, errOut := runCLI(t, "run", "nope")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr: %q", errOut)
	}
}

func TestCommsanRunMatchesPlain(t *testing.T) {
	code, plain, errOut := runCLI(t, "run", "stride")
	if code != 0 {
		t.Fatalf("plain run exit = %d\nstderr: %s", code, errOut)
	}
	code, san, errOut := runCLI(t, "-commsan", "run", "stride")
	if code != 0 {
		t.Fatalf("-commsan run exit = %d\nstderr: %s", code, errOut)
	}
	if plain != san {
		t.Errorf("-commsan perturbed the output\n--- plain ---\n%s\n--- commsan ---\n%s", plain, san)
	}
}

func TestTimeoutFlagParses(t *testing.T) {
	// A generous per-point budget must not perturb a healthy run.
	if code, _, errOut := runCLI(t, "-timeout", "5m", "-max-retries", "1", "run", "table1"); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, errOut)
	}
}

// TestWorkersByteIdentity: the supervised multi-process sweep produces the
// exact bytes of the serial run for every fleet size.
func TestWorkersByteIdentity(t *testing.T) {
	args := []string{"run", "table1", "stride"}
	code, serial, _ := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("serial exit = %d", code)
	}
	for _, w := range []string{"2", "4"} {
		code, out, errOut := runCLI(t, append([]string{"-workers", w}, args...)...)
		if code != 0 {
			t.Fatalf("-workers %s exit = %d\nstderr: %s", w, code, errOut)
		}
		if out != serial {
			t.Errorf("-workers %s output differs from serial\n--- serial ---\n%s\n--- workers ---\n%s",
				w, serial, out)
		}
	}
}

// TestWorkersChaosByteIdentity: any crash schedule that leaves points
// completable yields byte-identical output — crashes are invisible in
// stdout, visible only in the stderr fleet summary.
func TestWorkersChaosByteIdentity(t *testing.T) {
	for _, chaos := range []string{"wkill=1", "wkill=1,wtrunc=2", "wcorrupt=2"} {
		code, serial, _ := runCLI(t, "-faults", chaos, "run", "stride")
		if code != 0 {
			t.Fatalf("serial chaos run exit = %d", code)
		}
		code, out, errOut := runCLI(t, "-workers", "2", "-faults", chaos, "run", "stride")
		if code != 0 {
			t.Fatalf("chaos %q exit = %d\nstderr: %s", chaos, code, errOut)
		}
		if out != serial {
			t.Errorf("chaos %q output differs from serial\n--- serial ---\n%s\n--- chaos ---\n%s",
				chaos, serial, out)
		}
		if !strings.Contains(errOut, "worker fleet:") || !strings.Contains(errOut, "crash(es)") {
			t.Errorf("chaos %q: fleet summary missing from stderr: %q", chaos, errOut)
		}
	}
}

// TestNoiseEnsembleWorkersByteIdentity: a seeded noise ensemble renders
// the exact bytes of the serial run under a supervised worker fleet — the
// noise spec crosses the handshake, the replica index crosses the point
// spec, and both sides derive identical cache keys. A chaos schedule that
// crashes workers mid-ensemble must not perturb a single byte either.
func TestNoiseEnsembleWorkersByteIdentity(t *testing.T) {
	args := []string{"-noise", "jitter=uniform:0.1,seed=7", "-replicas", "3", "run", "stride"}
	code, serial, _ := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("serial ensemble exit = %d", code)
	}
	if !strings.Contains(serial, "±") {
		t.Errorf("ensemble output has no distribution cells:\n%s", serial)
	}
	code, fleet, errOut := runCLI(t, append([]string{"-workers", "2"}, args...)...)
	if code != 0 {
		t.Fatalf("-workers 2 ensemble exit = %d\nstderr: %s", code, errOut)
	}
	if fleet != serial {
		t.Errorf("-workers 2 ensemble differs from serial\n--- serial ---\n%s\n--- workers ---\n%s",
			serial, fleet)
	}
	// Worker chaos: the noise directives ride -noise, the crash schedule
	// rides -faults; crashes are retried invisibly.
	chaosArgs := append([]string{"-workers", "2", "-faults", "wkill=1"}, args...)
	code, chaos, errOut := runCLI(t, chaosArgs...)
	if code != 0 {
		t.Fatalf("chaos ensemble exit = %d\nstderr: %s", code, errOut)
	}
	if chaos != serial {
		t.Errorf("chaotic fleet ensemble differs from serial\n--- serial ---\n%s\n--- chaos ---\n%s",
			serial, chaos)
	}
	if !strings.Contains(errOut, "worker fleet:") {
		t.Errorf("fleet summary missing from stderr: %q", errOut)
	}
}

// TestBadNoiseSpecIsUsageError: malformed -noise and -replicas values are
// rejected before any experiment runs.
func TestBadNoiseSpecIsUsageError(t *testing.T) {
	if code, _, errOut := runCLI(t, "-noise", "jitter=bogus:0.1", "run", "stride"); code != 2 {
		t.Fatalf("bad -noise exit = %d, want 2 (stderr %q)", code, errOut)
	} else if !strings.Contains(errOut, "bogus") {
		t.Errorf("stderr should name the bad distribution: %q", errOut)
	}
	if code, _, errOut := runCLI(t, "-replicas", "0", "run", "stride"); code != 2 {
		t.Fatalf("-replicas 0 exit = %d, want 2 (stderr %q)", code, errOut)
	}
}

// TestWorkersQuarantinePoisonPoint: a schedule that kills the worker on
// every request poisons every point; the sweep survives, each cell degrades
// to !workercrash, and the run exits 1 with the full failure summary.
func TestWorkersQuarantinePoisonPoint(t *testing.T) {
	code, out, errOut := runCLI(t, "-workers", "1", "-faults", "wkill=0", "run", "stride")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "!workercrash") {
		t.Errorf("quarantined cells missing from output:\n%s", out)
	}
	// Analytic rows (no sweep points) still render alongside.
	if !strings.Contains(out, "DGEMM per-CPU") {
		t.Errorf("healthy rows missing:\n%s", out)
	}
	for _, want := range []string{"point(s) failed", "failures by kind: workercrash=3", "quarantined"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr summary missing %q: %q", want, errOut)
		}
	}
}

// TestCanceledRunReportsPartialResults: SIGINT/SIGTERM arrive as context
// cancellation; points degrade to !canceled cells and the run exits 1 with
// a partial-results notice instead of aborting.
func TestCanceledRunReportsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, out, errOut := runCLICtx(t, ctx, "run", "stride")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errOut)
	}
	if !strings.Contains(out, "!canceled") {
		t.Errorf("canceled cells missing:\n%s", out)
	}
	if !strings.Contains(errOut, "interrupted") || !strings.Contains(errOut, "partial") {
		t.Errorf("partial-results notice missing: %q", errOut)
	}
}

// TestWorkerFlagServes: -worker is a first-class way to start a worker; it
// must speak the protocol on stdin/stdout (exercised via the env path in
// the other tests, so here we only check flag wiring rejects nothing).
func TestFailureSummaryTalliesKinds(t *testing.T) {
	_, _, errOut := runCLI(t, "-faults", "nodedown=0", "run", "stride")
	if !strings.Contains(errOut, "failures by kind: node-down=3") {
		t.Errorf("kind tally missing: %q", errOut)
	}
}
