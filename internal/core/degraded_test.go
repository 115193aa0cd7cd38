package core

import (
	"strings"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/npb"
)

// TestFaultDegradedSweepRendersAnnotatedCells is the PR's acceptance
// criterion: a sweep containing a deliberately failing point (node 0 lost,
// so every simulated point on it fails placement) still completes, renders
// the healthy analytic rows, annotates the failed cells with the failure
// kind, and reports a nonzero failure count.
func TestFaultDegradedSweepRendersAnnotatedCells(t *testing.T) {
	configure(t, RunConfig{Faults: fault.New().LoseNode(0)})
	tables := mustLookup(t, "stride").Run()
	if len(tables) != 1 {
		t.Fatalf("stride returned %d tables", len(tables))
	}
	tb := tables[0]
	if tb.Failures != 3 {
		t.Errorf("Failures = %d, want 3 (the three ping-pong points)", tb.Failures)
	}
	s := tb.String()
	// The analytic DGEMM/STREAM rows never touch the simulator and stay
	// healthy alongside the degraded simulation row.
	if !strings.Contains(s, "DGEMM per-CPU") || !strings.Contains(s, "STREAM Triad per-CPU") {
		t.Errorf("healthy analytic rows missing:\n%s", s)
	}
	if got := strings.Count(s, "!node-down"); got != 3 {
		t.Errorf("%d annotated cells, want 3:\n%s", got, s)
	}
	if !strings.Contains(s, "note: FAILED (node-down)") {
		t.Errorf("failure footnote missing:\n%s", s)
	}
}

// TestFaultPlanDoesNotPoisonHealthyCache: running an experiment under a
// fault plan and then healthy again must produce the healthy result — the
// plan is part of the cache key, so the entries never collide.
func TestFaultPlanDoesNotPoisonHealthyCache(t *testing.T) {
	healthyBefore := mustLookup(t, "stride").Run()[0]
	prev := Configure(RunConfig{Faults: fault.New().LoseNode(0)})
	faulted := mustLookup(t, "stride").Run()[0]
	Configure(prev)
	healthyAfter := mustLookup(t, "stride").Run()[0]
	if faulted.Failures == 0 {
		t.Fatal("faulted run reported no failures")
	}
	if healthyAfter.Failures != 0 {
		t.Errorf("healthy rerun inherited %d failures from the faulted plan", healthyAfter.Failures)
	}
	if a, b := healthyBefore.String(), healthyAfter.String(); a != b {
		t.Errorf("healthy output changed across a faulted run:\n--- before\n%s\n--- after\n%s", a, b)
	}
}

// TestFaultSlowNodePerturbsResults: a jitter plan changes reported numbers
// (not just availability), confirming faults flow through the experiment
// helpers into the machine model.
func TestFaultSlowNodePerturbsResults(t *testing.T) {
	healthy := npbRateMPI("CG", npb.ClassC, machine.Altix3700, 4)
	configure(t, RunConfig{Faults: fault.New().SlowNode(0, 1.5)})
	slowed := npbRateMPI("CG", npb.ClassC, machine.Altix3700, 4)
	if slowed >= healthy {
		t.Errorf("1.5x node slowdown: per-CPU rate %.4g, want below healthy %.4g", slowed, healthy)
	}
}

func mustLookup(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
