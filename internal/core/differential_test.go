package core

import (
	"context"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/noise"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

// diffFaultPlan degrades — never kills — hardware across every fault
// dimension the engines consult on their hot paths: compute (whole-box
// jitter), the memory roofline (one degraded bus), internode capacity (one
// weak link) and the intra-node cross-brick fabric. Killing faults
// (LoseNode, severed links) are covered by the fault tests; here the plan
// must let every experiment complete so the outputs can be diffed.
func diffFaultPlan() *fault.Plan {
	return fault.New().
		SlowNode(0, 1.35).
		DegradeBus(0, 0, 0.8).
		DegradeLink(1, 0.7).
		DegradeFabric(0, 0.85)
}

// diffNoiseSpec is a jitter+daemon overlay every experiment can survive:
// both noise kinds fire, so the engines must agree on every stream draw
// and window crossing, not just on healthy timelines.
func diffNoiseSpec() *noise.Spec {
	s, err := noise.Parse("jitter=exp:0.05,daemon=0.002:0.2:1.5:2,seed=12")
	if err != nil {
		panic(err)
	}
	return s
}

// TestEngineDifferential is the equivalence contract between the
// event-calendar engine and the reference engine (DESIGN.md §8): every
// registered experiment, run on each, must render byte-identical report
// output — plain, under a degrading fault plan, under the communication
// sanitizer, and under seeded performance noise (alone and stacked on the
// fault plan, whose seed decorrelates the jitter streams). The engine
// choice is not part of any cache key, so each pass runs on a fresh sweep
// pool with a cold memo cache: the reference pass genuinely recomputes
// every sweep point, selected by the pool context every leaf inherits.
func TestEngineDifferential(t *testing.T) {
	modes := []struct {
		name string
		rc   RunConfig
	}{
		{"plain", RunConfig{}},
		{"faulted", RunConfig{Faults: diffFaultPlan()}},
		{"commsan", RunConfig{Sanitize: true}},
		{"noisy", RunConfig{Noise: diffNoiseSpec()}},
		{"noisy-faulted", RunConfig{Faults: diffFaultPlan().WithSeed(7), Noise: diffNoiseSpec()}},
	}
	workers := sweep.Default().Workers()
	defer sweep.SetWorkers(workers)
	pass := func(ctx context.Context, e Experiment) string {
		sweep.Configure(ctx, sweep.Options{Workers: workers})
		return experimentCSV(e)
	}
	for _, e := range Experiments() {
		e := e
		for _, m := range modes {
			m := m
			t.Run(e.ID+"/"+m.name, func(t *testing.T) {
				if testing.Short() && heavyExperiments[e.ID] {
					t.Skip("heavy experiment in -short mode")
				}
				configure(t, m.rc)
				cal := pass(context.Background(), e)
				ref := pass(vmpi.WithReferenceEngine(context.Background()), e)
				if cal != ref {
					t.Fatalf("%s (%s): engines disagree\n--- calendar ---\n%s\n--- reference ---\n%s",
						e.ID, m.name, cal, ref)
				}
			})
		}
	}
}
