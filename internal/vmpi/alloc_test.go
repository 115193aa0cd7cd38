package vmpi

import (
	"context"
	"math"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

// The calendar engine's hot paths are pooled: message structs come from an
// engine-local free list (released back on receive), drained mailboxes go
// to a free list with their ring storage, and heap events live in a reused
// slice. These tests
// pin the steady-state allocation budgets so a regression (a forgotten
// release, a per-event allocation sneaking into yield) fails loudly.
//
// All measurements use the delta technique: run the same program with K
// and 2K operations and attribute the difference to the extra K. Fixed
// per-run costs — rank coroutines, the pending lists, result assembly —
// appear in both runs and cancel, leaving the marginal per-operation rate.
//
// Budgets (measured on the seed implementation):
//
//	ping-pong round-trip (2 msgs) — 0 allocs: the receive releases each
//	  message struct before the next send needs one, so the free list
//	  reaches steady state immediately.
//	barrier across 8 ranks       — 0 allocs: release events reuse the
//	  pooled heap storage; nothing is allocated per barrier.
//	one-way burst per message    — ≤1.05 allocs: the sender outruns the
//	  receiver, so every in-flight message needs a live struct; exactly
//	  the message struct itself is allocated, nothing else.
//	wildcard round-trip          — 0 allocs: the RecvAny match scans the
//	  pending list in place (TestAllocBudgetRecvAny).
//	rank start, per run          — 12 allocs: the iter.Pull coroutine
//	  (TestSpawnCostPerRank, delta over the rank count instead).

// allocRun measures total allocations for one engine run of fn.
func allocRun(t *testing.T, procs int, fn func(par.Comm)) float64 {
	t.Helper()
	cfg := Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: procs}
	return testing.AllocsPerRun(5, func() { Run(cfg, fn) })
}

// pingPong bounces k round-trips between ranks 0 and 1.
func pingPong(k int) func(par.Comm) {
	return func(c par.Comm) {
		for i := 0; i < k; i++ {
			if c.Rank() == 0 {
				c.SendBytes(1, 3, 1024)
				c.RecvBytes(1, 5)
			} else {
				c.RecvBytes(0, 3)
				c.SendBytes(0, 5, 1024)
			}
		}
	}
}

func TestAllocBudgetPingPong(t *testing.T) {
	const k = 2000
	base := allocRun(t, 2, pingPong(k))
	double := allocRun(t, 2, pingPong(2*k))
	perRT := (double - base) / k
	t.Logf("per round-trip: %.4f allocs (base %.0f, double %.0f)", perRT, base, double)
	if perRT > 0.01 {
		t.Errorf("ping-pong round-trip allocates %.4f/op, budget is 0: a message release is being missed", perRT)
	}
}

func TestAllocBudgetBarrier(t *testing.T) {
	const k = 2000
	barriers := func(k int) func(par.Comm) {
		return func(c par.Comm) {
			for i := 0; i < k; i++ {
				c.Barrier()
			}
		}
	}
	base := allocRun(t, 8, barriers(k))
	double := allocRun(t, 8, barriers(2*k))
	perBar := (double - base) / k
	t.Logf("per barrier (8 ranks): %.4f allocs (base %.0f, double %.0f)", perBar, base, double)
	if perBar > 0.01 {
		t.Errorf("barrier allocates %.4f/op, budget is 0: release events must reuse pooled heap storage", perBar)
	}
}

func TestAllocBudgetBurst(t *testing.T) {
	const k = 2000
	burst := func(k int) func(par.Comm) {
		return func(c par.Comm) {
			for i := 0; i < k; i++ {
				if c.Rank() == 0 {
					c.SendBytes(1, i%4, 1024)
				} else {
					c.RecvBytes(0, i%4)
				}
			}
		}
	}
	base := allocRun(t, 2, burst(k))
	double := allocRun(t, 2, burst(2*k))
	perMsg := (double - base) / k
	t.Logf("per burst message: %.4f allocs (base %.0f, double %.0f)", perMsg, base, double)
	if perMsg > 1.05 {
		t.Errorf("burst send allocates %.4f/msg, budget is 1 (the message struct): something extra is allocating per message", perMsg)
	}
}

// TestAllocBudgetRecvAny pins the wildcard path at zero steady-state
// allocations: a RecvAny match scans the receiver's pending list and pops
// the chosen box in place, and the reply reuses the pooled message.
func TestAllocBudgetRecvAny(t *testing.T) {
	const k = 1000
	fanIn := func(k int) func(par.Comm) {
		return func(c par.Comm) {
			any := c.(interface{ RecvAny(int) (int, []float64) })
			for i := 0; i < k; i++ {
				if c.Rank() == 0 {
					for s := 1; s < c.Size(); s++ {
						src, _ := any.RecvAny(3)
						c.SendBytes(src, 5, 64)
					}
				} else {
					c.SendBytes(0, 3, 1024)
					c.RecvBytes(0, 5)
				}
			}
		}
	}
	base := allocRun(t, 4, fanIn(k))
	double := allocRun(t, 4, fanIn(2*k))
	perRT := (double - base) / (3 * k)
	t.Logf("per wildcard round-trip: %.4f allocs (base %.0f, double %.0f)", perRT, base, double)
	if perRT > 0.01 {
		t.Errorf("wildcard round-trip allocates %.4f/op, budget is 0: the pending-list match must not allocate", perRT)
	}
}

// TestSpawnCostPerRank pins what one rank costs a run to start: its
// coroutine (iter.Pull allocates 11 objects on Go 1.24 — the coroutine,
// its goroutine and the next/stop/yield closures with their captured
// state, against 3 for a goroutine plus a channel) and its par.Comm.
// Runs at P and 2P ranks on a warm arena; the difference divided by P is
// the per-rank cost, with the per-run constants cancelled.
func TestSpawnCostPerRank(t *testing.T) {
	const p = 64
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.Altix3700)
	allocs := func(procs int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: procs}, func(par.Comm) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// AllocsPerRun's warm-up run reshapes the arena for each rank count, so
	// neither measurement pays for building rank records.
	base := allocs(p)
	double := allocs(2 * p)
	perRank := (double - base) / p
	t.Logf("per rank per run: %.2f allocs (P=%d: %.0f, 2P: %.0f)", perRank, p, base, double)
	// Rounded: slices the run builds by append (placement slots and the
	// like) cost one extra allocation per doubling, a fraction per rank.
	if math.Round(perRank) > 12 {
		t.Errorf("starting a rank allocates %.2f objects, budget is 12 (iter.Pull's 11 plus the comm)", perRank)
	}
}
