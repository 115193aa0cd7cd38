package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"columbia/internal/hpcc"
	"columbia/internal/machine"
	"columbia/internal/npb"
	"columbia/internal/pinning"
	"columbia/internal/sweep"
)

// loopback is a Dispatcher that executes points in-process through the same
// ExecutePoint entry a worker process uses, so the full spec → wire → key
// check → run → wire → decode path is exercised without spawning anything.
type loopback struct {
	t     *testing.T
	calls *int
}

func (l loopback) Do(ctx context.Context, class, kind, key string, spec []byte) ([]byte, error) {
	if l.calls != nil {
		*l.calls++
	}
	if want := sweep.ClassOf(key); class != want {
		l.t.Errorf("dispatched class %q, want %q for key %q", class, want, key)
	}
	return ExecutePoint(ctx, kind, key, spec)
}

// withLoopback installs the loopback dispatcher for the duration of the
// test, clearing the memo cache on both edges so serial and dispatched
// computations cannot shadow one another.
func withLoopback(t *testing.T, calls *int) {
	t.Helper()
	sweep.ResetCache()
	SetDispatcher(loopback{t: t, calls: calls})
	t.Cleanup(func() {
		SetDispatcher(nil)
		sweep.ResetCache()
	})
}

// TestFaultRemoteMatchesLocal: every point kind computes the identical
// value whether it runs in-process or through the dispatch/execute wire
// path. The simulation is deterministic, so equality is exact.
func TestFaultRemoteMatchesLocal(t *testing.T) {
	scalars := []struct {
		name string
		run  func() float64
	}{
		{"npb-mpi", func() float64 { return npbRateMPI("CG", npb.ClassC, machine.Altix3700, 4) }},
		{"npb-omp", func() float64 { return npbRateOpenMP("FT", npb.ClassB, machine.AltixBX2b, 4, 1) }},
		{"mz", func() float64 {
			return mzTime("SP-MZ", npb.ClassC, singleNode(machine.AltixBX2b), 16, 2, 1,
				pinning.Dplace, machine.MPT111b)
		}},
		{"pingpong-lat", func() float64 {
			return submitPoint[float64](PointSpec{
				Kind: "pingpong-lat", Cluster: singleNode(machine.Altix3700), Procs: 8, Stride: 2,
			}).Wait()
		}},
		{"md-weak", func() float64 {
			return submitPoint[float64](PointSpec{
				Kind: "md-weak", Cluster: quadNL, Procs: 8, Nodes: 1,
			}).Wait()
		}},
	}
	serial := make([]float64, len(scalars))
	for i, s := range scalars {
		serial[i] = s.run()
	}
	beffSerial := beffAsync(singleNode(machine.AltixBX2b), 8, 1, true).Wait()

	calls := 0
	withLoopback(t, &calls)
	for i, s := range scalars {
		if got := s.run(); got != serial[i] {
			t.Errorf("%s: dispatched = %v, serial = %v", s.name, got, serial[i])
		}
	}
	if got := beffAsync(singleNode(machine.AltixBX2b), 8, 1, true).Wait(); got != beffSerial {
		t.Errorf("beff: dispatched = %+v, serial = %+v", got, beffSerial)
	}
	if want := len(scalars) + 1; calls != want {
		t.Errorf("dispatcher served %d points, want %d", calls, want)
	}
	// A repeated submission memoizes on the supervisor side: no new call.
	_ = beffAsync(singleNode(machine.AltixBX2b), 8, 1, true).Wait()
	if want := len(scalars) + 1; calls != want {
		t.Errorf("memoized resubmission hit the dispatcher (%d calls)", calls)
	}
}

// TestFaultRemoteBeffResultShape: the struct-valued b_eff point survives
// gob intact — all six sub-metrics present after the wire trip.
func TestFaultRemoteBeffResultShape(t *testing.T) {
	withLoopback(t, nil)
	r := beffAsync(singleNode(machine.Altix3700), 4, 1, true).Wait()
	var zero hpcc.BeffResult
	if r == zero || r.PingPong.Latency <= 0 || r.Random.Bandwidth <= 0 {
		t.Errorf("wire-tripped b_eff result degenerate: %+v", r)
	}
}

// TestFaultExecutePointRejectsDrift: a worker that derives a different key
// than the supervisor routed by must refuse the point rather than fill a
// cell from the wrong configuration.
func TestFaultExecutePointRejectsDrift(t *testing.T) {
	spec := PointSpec{Kind: "npb-mpi", Cluster: singleNode(machine.Altix3700),
		Procs: 4, Bench: "CG", Class: npb.ClassC}
	key, _, err := buildPoint(Current(), spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePoint(context.Background(), "npb-mpi", key+"x", raw); err == nil ||
		!strings.Contains(err.Error(), "key drift") {
		t.Errorf("drifted key: err = %v, want key drift", err)
	}
	if _, err := ExecutePoint(context.Background(), "mz", key, raw); err == nil ||
		!strings.Contains(err.Error(), "kind mismatch") {
		t.Errorf("mismatched kind: err = %v, want kind mismatch", err)
	}
	if _, err := ExecutePoint(context.Background(), "npb-mpi", key, []byte("garbage")); err == nil {
		t.Error("garbage spec decoded")
	}
	if got, err := ExecutePoint(context.Background(), "npb-mpi", key, raw); err != nil || len(got) == 0 {
		t.Errorf("valid point: %v, %v", got, err)
	}
}

// TestFaultUnknownKindDegrades: an unbuildable spec surfaces as a failed
// future, not a panic, and ExecutePoint refuses it symmetrically.
func TestFaultUnknownKindDegrades(t *testing.T) {
	sweep.ResetCache()
	t.Cleanup(sweep.ResetCache)
	_, err := submitPoint[float64](PointSpec{Kind: "no-such-kind"}).WaitErr()
	if err == nil || !strings.Contains(err.Error(), "unknown point kind") {
		t.Errorf("submit unknown kind: err = %v", err)
	}
	raw, _ := encodeSpec(PointSpec{Kind: "no-such-kind"})
	if _, err := ExecutePoint(context.Background(), "no-such-kind", "k", raw); err == nil {
		t.Error("ExecutePoint accepted unknown kind")
	}
}

// TestExecutePointAlternatingRankCounts: the worker arena is rebuilt when
// consecutive points switch rank count, and a switch must never leak state
// into a result. Points at p=16, p=64, p=16 and p=64 each decode to the
// value the in-process path computes. Two callers run the sequence at
// once, so one of them may fall back from the busy arena to the pool.
func TestExecutePointAlternatingRankCounts(t *testing.T) {
	a := PointSpec{Kind: "npb-mpi", Cluster: singleNode(machine.Altix3700),
		Procs: 16, Bench: "CG", Class: npb.ClassB}
	b := PointSpec{Kind: "npb-mpi", Cluster: singleNode(machine.Altix3700),
		Procs: 64, Bench: "FT", Class: npb.ClassB}
	specs := []PointSpec{a, b, a, b}
	keys := make([]string, len(specs))
	raws := make([][]byte, len(specs))
	wants := make([]float64, len(specs))
	for i, spec := range specs {
		key, run, err := buildPoint(Current(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := encodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		keys[i], raws[i], wants[i] = key, raw, want.(float64)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, spec := range specs {
				reply, err := ExecutePoint(context.Background(), spec.Kind, keys[i], raws[i])
				if err != nil {
					t.Errorf("point %d (p=%d): %v", i, spec.Procs, err)
					return
				}
				got, err := decodeResult[float64](reply)
				if err != nil {
					t.Error(err)
					return
				}
				if got != wants[i] {
					t.Errorf("point %d (p=%d): worker path = %v, in-process = %v", i, spec.Procs, got, wants[i])
				}
			}
		}()
	}
	wg.Wait()
}
