package vmpi

import (
	"context"
	"sync"
)

// Arena is a worker-private allocation domain for engine runs. A run
// started under WithArena draws its scratch state — rank records,
// mailboxes, message free list, calendar, occupancy clocks and the mailbox
// and payload slabs — from the arena instead of the process-wide scratch
// pool, and a clean completion hands the scratch back to the same arena.
//
// The point is working-set partitioning: a sweep worker that owns an arena
// and keeps being handed leaves of the same workload family (the sweep's
// slot affinity does exactly that) re-runs similar simulations on scratch
// state shaped by that family alone. Its rank mail maps hold one family's
// (source, tag) universe instead of every family's, which keeps lookups on
// the engine's hottest path inside a small, cache-resident table — the
// mechanism that lets eight sweep workers beat one even on a single CPU,
// where raw parallelism buys nothing.
//
// An arena holds at most one scratch; it is meant to back one worker slot,
// which runs one leaf at a time. Concurrent runs under the same arena are
// safe but pointless: whoever acquires first gets the scratch, everyone
// else falls through to the process-wide pool.
type Arena struct {
	mu  sync.Mutex
	scr *engineScratch
}

// NewArena returns an empty arena; its first run builds the scratch the
// arena then keeps recycling.
func NewArena() *Arena { return &Arena{} }

// take detaches the arena's scratch, or returns nil when it is empty or
// checked out.
//
//perflint:hot
func (a *Arena) take() *engineScratch {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	s := a.scr
	a.scr = nil
	a.mu.Unlock()
	return s
}

// put offers a scratch back; reports false when the arena is already full
// (a concurrent run returned first) so the caller can fall back to the
// process-wide pool.
//
//perflint:hot
func (a *Arena) put(s *engineScratch) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.scr != nil {
		return false
	}
	a.scr = s
	return true
}

type arenaCtxKey struct{}

// WithArena returns a context under which RunCtx draws engine scratch
// state from a rather than the process-wide pool. The sweep scheduler
// installs one arena per worker slot (see sweep.RegisterWorkerContext);
// direct engine callers normally have no reason to.
func WithArena(ctx context.Context, a *Arena) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, arenaCtxKey{}, a)
}

// arenaFrom extracts the arena installed by WithArena, if any.
func arenaFrom(ctx context.Context) *Arena {
	a, _ := ctx.Value(arenaCtxKey{}).(*Arena)
	return a
}

type referenceCtxKey struct{}

// WithReferenceEngine returns a context under which RunCtx runs on the
// reference engine — the original central-loop scheduler — instead of the
// event calendar. It exists for tests only: the differential suites run
// every simulation twice and require byte-identical results. The choice
// rides the context, never the Config, so it cannot enter a fingerprint, a
// cache key, the worker wire protocol or the CLI.
func WithReferenceEngine(ctx context.Context) context.Context {
	return context.WithValue(ctx, referenceCtxKey{}, true)
}

// referenceFrom reports whether WithReferenceEngine marked ctx.
func referenceFrom(ctx context.Context) bool {
	return ctx.Value(referenceCtxKey{}) != nil
}
