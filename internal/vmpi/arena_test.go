package vmpi

// Tests for worker-private arenas: runs under WithArena recycle their
// scratch through the arena (not the process-wide pool), errored runs drop
// it, and the context plumbing tolerates nil.

import (
	"context"
	"fmt"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

func TestArenaRecyclesScratchAcrossRuns(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	run := func() {
		t.Helper()
		if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 8}, func(c par.Comm) {
			par.AllreduceBytes(c, 1024)
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	first := a.scr
	if first == nil {
		t.Fatal("clean arena run did not refill its arena")
	}
	run()
	if a.scr != first {
		t.Error("second run did not reuse the arena's scratch")
	}
	// The mailboxes built by the first run must have survived for the
	// second: same ranks, same (source, tag) universe, zero new boxes.
	boxes := 0
	for _, r := range first.ranks[:8] {
		boxes += len(r.mail)
	}
	run()
	after := 0
	for _, r := range first.ranks[:8] {
		after += len(r.mail)
	}
	if after != boxes {
		t.Errorf("warm rerun grew mailboxes %d -> %d, want none", boxes, after)
	}
}

func TestArenaErroredRunDropsScratch(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
		c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if a.scr == nil {
		t.Fatal("clean run did not refill the arena")
	}
	_, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier()
	})
	if err == nil {
		t.Fatal("want a rank-panic error")
	}
	// The panicking run took the scratch and must not have returned it: a
	// non-quiescent scratch is dropped, and the next clean run starts cold.
	if a.scr != nil {
		t.Error("errored run returned its scratch to the arena")
	}
}

func TestWithArenaNil(t *testing.T) {
	ctx := context.Background()
	if WithArena(ctx, nil) != ctx {
		t.Error("WithArena(nil) should be the identity")
	}
	if arenaFrom(ctx) != nil {
		t.Error("arenaFrom on a bare context should be nil")
	}
}

// TestArenaReuseLeavesNoStalePending: a clean run may end with unmatched
// messages still queued. Recycling must drain them and empty every rank's
// pending list, or a later wildcard receive on the same arena would scan
// a stale box (an empty queue, or a message from the earlier run).
func TestArenaReuseLeavesNoStalePending(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cfg := Config{Cluster: machine.NewSingleNode(machine.AltixBX2b), Procs: 4}
	// Ranks 1-3 send rank 0 traffic it never receives, on the tag the next
	// run's wildcard uses and on another one.
	if _, err := RunCtx(ctx, cfg, func(c par.Comm) {
		if c.Rank() > 0 {
			c.SendBytes(0, 5, 64)
			c.SendBytes(0, 6, 64)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if a.scr == nil {
		t.Fatal("clean run did not refill the arena")
	}
	for _, r := range a.scr.ranks[:cfg.Procs] {
		if len(r.pending) != 0 {
			t.Fatalf("rank %d: %d pending boxes survived recycle", r.id, len(r.pending))
		}
		if r.api.e != nil {
			t.Fatalf("rank %d: pooled record still points at the finished engine", r.id)
		}
	}
	fanIn := func(c par.Comm) {
		if c.Rank() == 0 {
			any := c.(interface{ RecvAny(int) (int, []float64) })
			for s := 1; s < c.Size(); s++ {
				src, data := any.RecvAny(5)
				if data[0] != float64(src) {
					panic(fmt.Sprintf("matched %v from rank %d", data, src))
				}
			}
			return
		}
		c.(Clock).Elapse(float64(c.Size()-c.Rank()) * 1e-6)
		c.Send(0, 5, []float64{float64(c.Rank())})
	}
	reused, err := RunCtx(ctx, cfg, fanIn)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := TryRun(cfg, fanIn)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reused) != fmt.Sprint(fresh) {
		t.Errorf("wildcard run on a reused arena diverged from a fresh run:\n reused: %+v\n fresh:  %+v", reused, fresh)
	}
}
