package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/noise"
	"columbia/internal/sweep"
)

// mustNoise parses a noise spec or fails the test.
func mustNoise(t *testing.T, spec string) *noise.Spec {
	t.Helper()
	s, err := noise.Parse(spec)
	if err != nil {
		t.Fatalf("noise.Parse(%q): %v", spec, err)
	}
	return s
}

// noisePointSpec is a cheap vmpi-backed point used by the cache-key tests.
func noisePointSpec() PointSpec {
	return PointSpec{Kind: "pingpong-lat", Cluster: singleNode(machine.Altix3700), Procs: 8, Stride: 1}
}

// TestNoiseEnsembleCacheIsolation: under a noise spec every replica keys
// its own memo-cache entry (the replica index rides the noise
// fingerprint), and replica 0 collides with the single-shot key of the
// same spec, so -replicas only ever adds entries.
func TestNoiseEnsembleCacheIsolation(t *testing.T) {
	rc := RunConfig{Noise: mustNoise(t, "jitter=exp:0.1,seed=9")}
	spec := noisePointSpec()
	keys := make(map[string]int)
	for r := 0; r < 4; r++ {
		s := spec
		s.Replica = r
		key, _, err := buildPoint(rc, s)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = r
	}
	if len(keys) != 4 {
		t.Errorf("4 replicas produced %d distinct cache keys: %v", len(keys), keys)
	}
	// Replica 0 is the single-shot point: its key must not mention the
	// replica, so ensemble and plain runs share its cache entry.
	zero, _, err := buildPoint(rc, spec)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(zero, "replica") {
		t.Errorf("replica-0 key mentions replica (splits the single-shot cache): %s", zero)
	}
}

// TestNoiseEnsembleCollapsesWithoutNoise: with a silent spec the replica
// index is discarded before the fingerprint, so every replica of a point
// shares one key — an ensemble sweep without -noise memoizes down to
// single computations.
func TestNoiseEnsembleCollapsesWithoutNoise(t *testing.T) {
	rc := RunConfig{Replicas: 5}
	configure(t, rc)
	spec := noisePointSpec()
	base, _, err := buildPoint(rc, spec)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 5; r++ {
		s := spec
		s.Replica = r
		key, _, err := buildPoint(rc, s)
		if err != nil {
			t.Fatal(err)
		}
		if key != base {
			t.Errorf("silent replica %d keys a fresh cache entry:\n%s\nvs\n%s", r, key, base)
		}
	}
	e := submitPoint[float64](spec)
	if e.size() != 5 {
		t.Fatalf("ensemble size = %d, want 5", e.size())
	}
	for r := 1; r < 5; r++ {
		if e.reps[r] != e.reps[0] {
			t.Errorf("silent replica %d did not collapse onto replica 0's future", r)
		}
	}
}

// TestNoiseEnsembleRerunHitsMemoCache: resubmitting the same seeded
// ensemble returns the identical futures for every replica — the rerun is
// pure cache hits, no recomputation.
func TestNoiseEnsembleRerunHitsMemoCache(t *testing.T) {
	configure(t, RunConfig{Noise: mustNoise(t, "jitter=uniform:0.2,seed=4"), Replicas: 3})
	spec := noisePointSpec()
	first := submitPoint[float64](spec)
	first.Wait()
	again := submitPoint[float64](spec)
	if first.size() != again.size() {
		t.Fatalf("ensemble sizes differ: %d vs %d", first.size(), again.size())
	}
	for r := range first.reps {
		if first.reps[r] != again.reps[r] {
			t.Errorf("replica %d resubmission missed the memo cache", r)
		}
	}
	// Distinct replicas stay distinct entries.
	if first.reps[0] == first.reps[1] {
		t.Error("noisy replicas 0 and 1 alias one cache entry")
	}
}

// noiseEnsembleCSV renders fig7 — the lightest experiment whose points run
// real vmpi compute phases, so jitter visibly spreads its cells — under
// the installed run configuration.
func noiseEnsembleCSV(t *testing.T) string {
	t.Helper()
	e, err := Lookup("fig7")
	if err != nil {
		t.Fatal(err)
	}
	return experimentCSV(e)
}

// TestNoiseEnsembleParallelReplayDeterminism: a seeded ensemble renders
// byte-identical reports on one worker and on eight — replica draws are a
// pure function of (spec, seed, replica), never of scheduling.
func TestNoiseEnsembleParallelReplayDeterminism(t *testing.T) {
	configure(t, RunConfig{Noise: mustNoise(t, "jitter=exp:0.05,seed=12"), Replicas: 3})
	defer sweep.SetWorkers(0)
	sweep.SetWorkers(1)
	serial := noiseEnsembleCSV(t)
	sweep.SetWorkers(8)
	parallel := noiseEnsembleCSV(t)
	if serial != parallel {
		t.Fatalf("noisy ensemble differs across worker counts\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "±") {
		t.Errorf("ensemble output has no distribution cells:\n%s", serial)
	}
}

// TestNoiseEnsembleSeedsMoveCells: the same experiment under two seeds
// renders different distribution cells, and a replica ensemble genuinely
// spreads — at least one cell reports a nonzero relative spread.
func TestNoiseEnsembleSeedsMoveCells(t *testing.T) {
	defer sweep.SetWorkers(0)
	sweep.SetWorkers(0) // fresh cache so the seeds cannot alias
	configure(t, RunConfig{Noise: mustNoise(t, "jitter=exp:0.05,seed=1"), Replicas: 3})
	one := noiseEnsembleCSV(t)
	Configure(RunConfig{Noise: mustNoise(t, "jitter=exp:0.05,seed=2"), Replicas: 3})
	two := noiseEnsembleCSV(t)
	if one == two {
		t.Errorf("different seeds rendered identical reports:\n%s", one)
	}
	spread := false
	for _, line := range strings.Split(one, "\n") {
		for _, cell := range strings.Split(line, ",") {
			if strings.Contains(cell, "±") && !strings.Contains(cell, "±0.0%") {
				spread = true
			}
		}
	}
	if !spread {
		t.Errorf("no cell shows a nonzero replica spread:\n%s", one)
	}
}

// TestGoldenNoiseEnsemble pins the distribution-aware rendering: fig7
// under a fixed seed and three replicas, healthy and under a node-down
// fault plan (where every replica of a point fails and the ensemble cell
// degrades to a single "!node-down" annotation). Regenerate with
//
//	go test ./internal/core -run TestGoldenNoiseEnsemble -update
func TestGoldenNoiseEnsemble(t *testing.T) {
	cases := []struct {
		name   string
		faults *fault.Plan
	}{
		{"noise_fig7", nil},
		{"noise_fig7_degraded", fault.New().LoseNode(0)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			configure(t, RunConfig{Faults: tc.faults, Noise: mustNoise(t, "jitter=exp:0.05,seed=12"), Replicas: 3})
			got := noiseEnsembleCSV(t)
			path := filepath.Join("testdata", "golden", tc.name+".csv")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("noisy ensemble output drifted from %s\n%s", path, firstDiff(string(want), got))
			}
			if tc.faults == nil && !strings.Contains(got, "±") {
				t.Errorf("healthy ensemble golden has no distribution cells:\n%s", got)
			}
			if tc.faults != nil && !strings.Contains(got, "!node-down") {
				t.Errorf("degraded ensemble golden has no !node-down cells:\n%s", got)
			}
		})
	}
}
