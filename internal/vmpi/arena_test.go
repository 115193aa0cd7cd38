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
	// Every mailbox ends a clean run on the scratch's free list, and a warm
	// rerun draws all its boxes from there: it carves no new ones.
	boxes := len(first.boxes)
	if boxes == 0 {
		t.Fatal("recycled scratch holds no free mailboxes")
	}
	run()
	if after := len(first.boxes); after != boxes {
		t.Errorf("warm rerun grew the mailbox free list %d -> %d, want none", boxes, after)
	}
}

// drainScratchPool empties the process-wide scratch pool, so the next
// arena miss starts from a new scratch. A pooled scratch has served a run,
// so it always has rank records; a new one has none.
func drainScratchPool() {
	for len(scratchPool.Get().ranks) > 0 {
	}
}

// ringShift sends one message around the ring.
func ringShift(c par.Comm) {
	n, r := c.Size(), c.Rank()
	c.SendBytes((r+1)%n, 1, 64)
	c.RecvBytes((r-1+n)%n, 1)
}

// TestArenaHoldsOneRankCount: an arena whose runs switch rank count drops
// the old scratch instead of carrying both counts' state, and reuses the
// new one while the count holds. The process-wide pool keeps reusing across
// rank counts.
func TestArenaHoldsOneRankCount(t *testing.T) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	run := func(ctx context.Context, procs int) {
		t.Helper()
		if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: procs}, ringShift); err != nil {
			t.Fatal(err)
		}
	}
	drainScratchPool()
	fresh := NewArena()
	run(WithArena(context.Background(), fresh), 16)
	want := len(fresh.scr.boxes)

	drainScratchPool()
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	run(ctx, 8)
	p8 := a.scr
	run(ctx, 16)
	p16 := a.scr
	if p16 == nil || p16 == p8 {
		t.Fatal("a P=16 run reused the arena's P=8 scratch")
	}
	if len(p16.ranks) != 16 {
		t.Errorf("P=16 scratch has %d rank records, want 16", len(p16.ranks))
	}
	if got := len(p16.boxes); got != want {
		t.Errorf("P=16 scratch holds %d free mailboxes after P=8 then P=16, want %d (a fresh P=16 run's)", got, want)
	}
	run(ctx, 16)
	if a.scr != p16 {
		t.Error("a second P=16 run did not reuse the arena's scratch")
	}
	if got := len(p16.boxes); got != want {
		t.Errorf("a second P=16 run grew the mailbox free list %d -> %d, want none", want, got)
	}

	// Without an arena the pooled scratch serves every rank count.
	drainScratchPool()
	run(context.Background(), 16)
	pooled := scratchPool.Get()
	scratchPool.Put(pooled)
	run(context.Background(), 8)
	if got := scratchPool.Get(); got != pooled {
		t.Error("a P=8 run after a P=16 run did not reuse the pooled scratch")
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
		if len(r.pending) != 0 || len(r.pkeys) != 0 {
			t.Fatalf("rank %d: %d pending boxes (%d keys) survived recycle", r.id, len(r.pending), len(r.pkeys))
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
