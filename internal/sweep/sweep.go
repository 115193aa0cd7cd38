package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Pool's execution policy beyond its concurrency
// bound: a per-attempt wall-clock budget, and a bounded retry loop for
// failures that report themselves retryable (vmpi timeouts, transient
// faults).
type Options struct {
	// Workers is the pool's -j degree: the number of affinity lanes (each
	// with its own worker-scoped state), and the bound on concurrent leaf
	// points. True concurrency is additionally clamped to GOMAXPROCS —
	// extra lanes beyond the core count still partition the sweep by
	// scheduling class (see slotTable) but never oversubscribe the host.
	// Values below 1 select GOMAXPROCS.
	Workers int
	// Timeout is the wall-clock budget for one attempt of one leaf point;
	// zero means no per-point deadline. Expired attempts surface as a
	// retryable error (vmpi maps the deadline to ErrTimeout).
	Timeout time.Duration
	// MaxRetries is how many times a retryable failure is resubmitted
	// after the first attempt. Deterministic failures (config errors,
	// deadlocks, panics) are never retried regardless.
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles per retry
	// and is capped at maxBackoff. Zero selects defaultBackoff.
	Backoff time.Duration
}

const (
	defaultBackoff = 50 * time.Millisecond
	maxBackoff     = 2 * time.Second
)

// shardCount is the number of lock stripes the memo cache is split into.
// Every Cached/CachedCtx call from every worker used to serialize on one
// pool-wide mutex; with the cache sharded by fingerprint hash, two workers
// only contend when their keys land in the same stripe (1/64 of the time),
// so submission stops being a scaling bottleneck. Must be a power of two.
const shardCount = 64

// cacheShard is one lock stripe of the memo cache. The trailing pad keeps
// neighbouring shards' mutexes on separate cache lines so uncontended locks
// on different shards do not false-share.
type cacheShard struct {
	mu sync.Mutex
	m  map[string]*entry
	_  [64 - 16]byte
}

// fnv32 is FNV-1a over s.
//
//perflint:hot
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardIndex hashes a cache key (FNV-1a) onto its lock stripe.
//
//perflint:hot
func shardIndex(key string) uint32 {
	return fnv32(key) & (shardCount - 1)
}

// family extracts the workload-family prefix of a fingerprint key — the
// segment before the first '/' ("mz", "npb", "beff", ...). Keys are built
// as <workload prefix>/<configuration fingerprint>, so the family names the
// simulation's shape: which collectives it drives, which (source, tag)
// mailboxes its engines create, which models it loads. Slot affinity keys
// on it (see slotFor).
//
//perflint:hot
func family(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i]
		}
	}
	return key
}

// Pool bounds how many leaf simulation points run concurrently, memoizes
// completed points by fingerprint key, and owns the context / timeout /
// retry policy every leaf runs under. Canceling the pool's context stops
// queued points immediately and running points at their next scheduling
// step (leaf functions receive a derived context for exactly that).
//
// The memo cache is lock-striped into shardCount shards keyed by a hash of
// the fingerprint, so concurrent submissions from many workers do not
// serialize on a single mutex. Exactly-once execution, failed-entry
// eviction and ResetCache semantics are all per-key and unaffected by the
// striping.
type Pool struct {
	slots slotTable
	ctx   context.Context
	opts  Options
	// wctx, when installed via RegisterWorkerContext, decorates the context
	// of every leaf attempt with state scoped to the worker slot the leaf
	// acquired — the hook worker-private engine arenas hang off.
	wctx WorkerContext
	// after paces retry backoff; tests swap in a fake to drive the retry
	// schedule deterministically instead of sleeping.
	after func(time.Duration) <-chan time.Time
	// retries counts attempts spent beyond each point's first — the
	// end-of-run failure summary reports it (see Stats).
	retries atomic.Int64
	shards  [shardCount]cacheShard
}

// Stats is a snapshot of the pool's cumulative execution counters.
type Stats struct {
	// Retries is how many extra attempts retryable failures have cost so
	// far, summed over all points (local and remote).
	Retries int64
}

// Stats snapshots the pool's counters; safe concurrently with submissions.
func (p *Pool) Stats() Stats { return Stats{Retries: p.retries.Load()} }

// WorkerContext decorates the context a leaf attempt runs under with state
// scoped to its worker slot (0 <= slot < Workers). It is called once per
// attempt, always with the slot the leaf holds for the attempt's duration,
// so anything it attaches is exclusive to one running leaf at a time.
type WorkerContext func(slot int, ctx context.Context) context.Context

// workerContextProvider builds each new pool's WorkerContext; installed at
// most once, by the package that owns the slot-scoped state (core wires
// vmpi arenas in). Atomic because pools are created from any goroutine.
var workerContextProvider atomic.Pointer[func(workers int) WorkerContext]

// RegisterWorkerContext installs the provider consulted by every
// subsequently created pool: it is called with the pool's worker count and
// returns the WorkerContext for that pool (nil for none). Existing pools
// are unaffected.
func RegisterWorkerContext(provider func(workers int) WorkerContext) {
	workerContextProvider.Store(&provider)
}

// affinityClass, when registered, maps a cache key to the scheduling class
// slot affinity groups by; empty string falls back to the family prefix.
var affinityClass atomic.Pointer[func(key string) string]

// RegisterAffinity installs the function that names a key's scheduling
// class for slot affinity. The default — the key's workload-family prefix
// — groups leaves that share models; a sharper classifier (core registers
// one keying on the configuration's rank count, which is what actually
// determines a simulation's mailbox universe) groups leaves that share
// engine working sets, so each worker slot's arenas stay small and
// cache-resident.
func RegisterAffinity(class func(key string) string) {
	affinityClass.Store(&class)
}

// slotTable hands out the pool's worker slots. A slot is an affinity lane,
// not a thread: the pool has Workers lanes, each backing its own
// worker-scoped state (see WorkerContext), while the number of lanes
// *concurrently held* is separately bounded by width = min(Workers,
// GOMAXPROCS). The split matters on both ends of the machine spectrum. On
// a many-core host width equals Workers and lanes are plain worker slots.
// On a host with fewer cores than -j, running -j leaves at once would buy
// nothing but cache thrash — eight half-resident engine working sets
// interleaving on one core — so width clamps true concurrency to the
// hardware while the extra lanes still partition the sweep: each lane's
// arenas hold one scheduling class's working set (one rank-count's mailbox
// universe) instead of the union of everything, and the release handoff
// below runs same-class leaves back to back on their warm lane. That
// partitioning and batching is how -j 8 beats -j 1 even on a single CPU.
//
// Acquisition is affinity-aware: a leaf asks for the lane its scheduling
// class hashes to, and spills to another free lane rather than queueing
// when its preference is busy — the width bound stays a real concurrency
// guarantee and a hot class cannot idle the pool.
type slotTable struct {
	mu sync.Mutex
	// width bounds concurrently held lanes; held counts them.
	width int
	held  int
	free  []bool
	nfree int
	// waiters is FIFO; release scans it for the first waiter preferring
	// the freed lane — the class-batching handoff — and falls back to the
	// head, so affinity wins when possible but no waiter is starved by an
	// empty-preference steady state.
	waiters []*slotWaiter
}

type slotWaiter struct {
	pref int
	ch   chan int // buffered(1): release never blocks on handoff
}

func (t *slotTable) init(lanes, width int) {
	t.free = make([]bool, lanes)
	for i := range t.free {
		t.free[i] = true
	}
	t.nfree = lanes
	t.width = width
}

// acquire blocks until a lane is granted (preferring pref) or ctx is done.
// The free-lane fast path allocates nothing; only the contended path builds
// a waiter (the two budgeted escapes below).
//
//perflint:hot
func (t *slotTable) acquire(ctx context.Context, pref int) (int, error) {
	t.mu.Lock()
	// held < width implies a free lane exists (lanes >= width).
	if t.held < t.width {
		s := pref
		if !t.free[s] {
			for i := range t.free {
				if t.free[i] {
					s = i
					break
				}
			}
		}
		t.free[s] = false
		t.nfree--
		t.held++
		t.mu.Unlock()
		return s, nil
	}
	w := &slotWaiter{pref: pref, ch: make(chan int, 1)}
	t.waiters = append(t.waiters, w)
	t.mu.Unlock()
	select {
	case s := <-w.ch:
		return s, nil
	case <-ctx.Done():
		t.mu.Lock()
		for i, q := range t.waiters {
			if q == w {
				t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
				t.mu.Unlock()
				return 0, ctx.Err()
			}
		}
		t.mu.Unlock()
		// A release raced the cancellation and already granted us a lane;
		// take it and put it back so the grant is not lost.
		s := <-w.ch
		t.release(s)
		return 0, ctx.Err()
	}
}

// release frees a lane. With waiters queued, the width token passes
// directly: the earliest waiter preferring this lane gets it (running
// same-class leaves consecutively on warm state), else the head waiter is
// granted its own preferred lane when that lane is idle, or this one.
//
//perflint:hot
func (t *slotTable) release(s int) {
	t.mu.Lock()
	if len(t.waiters) > 0 {
		idx := 0
		for i, w := range t.waiters {
			if w.pref == s {
				idx = i
				break
			}
		}
		w := t.waiters[idx]
		t.waiters = append(t.waiters[:idx], t.waiters[idx+1:]...)
		g := s
		if w.pref != s && t.free[w.pref] {
			g = w.pref
			t.free[g] = false
			t.free[s] = true
		}
		t.mu.Unlock()
		w.ch <- g
		return
	}
	t.free[s] = true
	t.nfree++
	t.held--
	t.mu.Unlock()
}

// entry is one submitted point: a completion signal plus its value, or the
// structured error (including wrapped panics) it failed with.
type entry struct {
	done chan struct{}
	key  string
	val  any
	err  error
}

// NewPool returns a pool admitting workers concurrent leaf points; values
// below 1 select GOMAXPROCS. The pool runs under context.Background with
// no per-point timeout and no retries.
func NewPool(workers int) *Pool {
	return NewPoolOpts(context.Background(), Options{Workers: workers})
}

// NewPoolOpts returns a pool with the full execution policy. All leaf
// points run under contexts derived from ctx; canceling it drains the
// pool: queued points fail with ctx's error without running.
func NewPoolOpts(ctx context.Context, o Options) *Pool {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = defaultBackoff
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pool{
		ctx:   ctx,
		opts:  o,
		after: time.After,
	}
	width := o.Workers
	if g := runtime.GOMAXPROCS(0); width > g {
		width = g
	}
	p.slots.init(o.Workers, width)
	if f := workerContextProvider.Load(); f != nil && *f != nil {
		p.wctx = (*f)(o.Workers)
	}
	for i := range p.shards {
		p.shards[i].m = make(map[string]*entry)
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return len(p.slots.free) }

// ClassOf names key's scheduling class: the registered affinity
// classifier's answer (core installs one keying on the configuration's rank
// count), falling back to the workload-family prefix when no classifier is
// installed or it abstains. Only in-process slot affinity routes by it; the
// out-of-process supervisor (package dist) receives the class but feeds
// every worker from one shared queue.
func ClassOf(key string) string {
	if f := affinityClass.Load(); f != nil && *f != nil {
		if c := (*f)(key); c != "" {
			return c
		}
	}
	return family(key)
}

// slotFor hashes a cache key's scheduling class onto a preferred worker
// slot, so every leaf of one class names the same slot (see slotTable and
// RegisterAffinity).
//
//perflint:hot
func (p *Pool) slotFor(key string) int {
	return int(fnv32(ClassOf(key)) % uint32(p.Workers()))
}

// shard returns the lock stripe holding key.
//
//perflint:hot
func (p *Pool) shard(key string) *cacheShard { return &p.shards[shardIndex(key)] }

// ResetCache drops every memoized result, forcing subsequent Cached calls
// to recompute. Tests and benchmarks use it to observe fresh computation.
// Safe concurrently with in-flight points: a running point whose entry was
// dropped completes normally for its current waiters, and its failure
// eviction becomes a no-op (evict only removes the identical entry).
func (p *Pool) ResetCache() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry)
		s.mu.Unlock()
	}
}

// defaultPool is the process-wide pool, swapped atomically so the hot
// submission path (every Cached call goes through Default) never takes a
// global lock, and Configure during an in-flight sweep cannot block or be
// blocked by submissions.
var defaultPool atomic.Pointer[Pool]

func init() { defaultPool.Store(NewPool(0)) }

// Default returns the process-wide pool the core experiments submit to.
func Default() *Pool { return defaultPool.Load() }

// SetWorkers replaces the default pool with a fresh one of n workers
// (n < 1 selects GOMAXPROCS). The previous pool's cache is dropped; points
// already running on it complete undisturbed.
func SetWorkers(n int) { Configure(context.Background(), Options{Workers: n}) }

// Configure replaces the default pool with one running the given policy
// under ctx. Like SetWorkers, the previous pool's cache is dropped and
// in-flight points complete undisturbed on the old pool: coordinators that
// captured the old pool (or futures minted from it) keep their entries,
// workers and context until they finish.
func Configure(ctx context.Context, o Options) {
	defaultPool.Store(NewPoolOpts(ctx, o))
}

// ResetCache clears the default pool's memoized results.
func ResetCache() { Default().ResetCache() }

// PanicError wraps a panic recovered from a submitted function, preserving
// the panic value and the goroutine stack captured at recovery time so the
// crash site survives the trip across the pool to whichever goroutine
// ultimately collects the future.
type PanicError struct {
	// Key is the cache key of the panicking leaf point; empty for
	// coordinator (Go) panics.
	Key string
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack string
}

func (e *PanicError) Error() string {
	where := "sweep: point panicked"
	if e.Key != "" {
		where = fmt.Sprintf("sweep: point %q panicked", e.Key)
	}
	return fmt.Sprintf("%s: %v\n%s", where, e.Value, e.Stack)
}

// Unwrap exposes an error-typed panic value to errors.Is/As chains, so a
// rank program that panics with a *vmpi.RunError keeps its kind visible.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// FailureKind labels degraded report cells (see report.FailureKinder).
// A wrapped error-typed panic value with its own kind wins.
func (e *PanicError) FailureKind() string {
	if fk, ok := e.Value.(interface{ FailureKind() string }); ok {
		return fk.FailureKind()
	}
	return "panic"
}

// retryable reports whether err (or anything it wraps) declares itself
// worth resubmitting via a Retryable() method — vmpi timeouts and
// transient faults do; deterministic failures do not.
func retryable(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if r, ok := e.(interface{ Retryable() bool }); ok {
			return r.Retryable()
		}
	}
	return false
}

// Future is the pending result of a submitted point. It is a small value
// (one word) so handing a memoized result to its caller allocates nothing;
// copy it freely. The zero Future is invalid — futures come from Go,
// Cached or CachedCtx.
type Future[T any] struct {
	e *entry
}

// Valid reports whether the future came from a real submission. The zero
// Future is not valid; experiments use zero futures for table cells whose
// configuration is impossible (over the CPU or fabric-card limit).
func (f Future[T]) Valid() bool { return f.e != nil }

// Wait blocks until the point completes and returns its value. If the
// point failed, Wait panics with its error (panicking points arrive as a
// *PanicError carrying the original value and stack), so failures surface
// on the collecting goroutine exactly as they would serially. Callers that
// can degrade gracefully use WaitErr instead.
func (f Future[T]) Wait() T {
	v, err := f.WaitErr()
	if err != nil {
		panic(err)
	}
	return v
}

// WaitErr blocks until the point completes and returns its value or its
// structured error: the leaf function's own error, a *PanicError for a
// recovered panic, or the pool context's error for points drained by
// cancellation.
func (f Future[T]) WaitErr() (T, error) {
	<-f.e.done
	if f.e.err != nil {
		var zero T
		return zero, f.e.err
	}
	return f.e.val.(T), nil
}

// Err blocks until the point completes and returns only its error.
func (f Future[T]) Err() error {
	<-f.e.done
	return f.e.err
}

// evict removes a failed entry from the cache — unless a ResetCache or
// pool replacement already installed a different entry under the key — so
// a later resubmission of the same point can attempt a fresh computation
// instead of being served the memoized failure forever.
//
//perflint:hot
func (p *Pool) evict(e *entry) {
	if e.key == "" {
		return
	}
	s := p.shard(e.key)
	s.mu.Lock()
	if s.m[e.key] == e {
		delete(s.m, e.key)
	}
	s.mu.Unlock()
}

// attempt runs fn once under a fresh per-attempt context — decorated with
// the acquired slot's worker state, then the per-attempt timeout —
// converting a panic into a *PanicError with the stack captured here, at
// the source.
func (p *Pool) attempt(slot int, key string, fn func(context.Context) (any, error)) (val any, err error) {
	ctx := p.ctx
	if p.wctx != nil {
		ctx = p.wctx(slot, ctx)
	}
	if p.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: key, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx)
}

// runLeaf executes a leaf entry on a worker slot: acquire with family
// affinity (or bail on pool cancellation), then attempt with bounded
// doubling-backoff retries for retryable failures — the slot, and with it
// any worker-scoped state, is held across retries. A final failure is
// recorded for current waiters and the entry is evicted so resubmission
// recomputes.
func (p *Pool) runLeaf(e *entry, fn func(context.Context) (any, error)) {
	go func() {
		defer close(e.done)
		slot, err := p.slots.acquire(p.ctx, p.slotFor(e.key))
		if err != nil {
			e.err = err
			p.evict(e)
			return
		}
		defer p.slots.release(slot)
		// Re-check after acquiring: a cancellation that raced the slot
		// release must still drain the queue deterministically.
		if err := p.ctx.Err(); err != nil {
			e.err = err
			p.evict(e)
			return
		}
		delay := p.opts.Backoff
		for attempt := 0; ; attempt++ {
			val, err := p.attempt(slot, e.key, fn)
			if err == nil {
				e.val, e.err = val, nil
				return
			}
			e.err = err
			if attempt >= p.opts.MaxRetries || !retryable(err) {
				break
			}
			p.retries.Add(1)
			select {
			case <-p.after(delay):
			case <-p.ctx.Done():
				e.err = p.ctx.Err()
				p.evict(e)
				return
			}
			if delay < maxBackoff {
				delay *= 2
			}
		}
		p.evict(e)
	}()
}

// runRemote is runLeaf for out-of-process points: no slot is acquired (the
// worker fleet owns its own concurrency), no worker-context decoration and
// no per-attempt timeout are applied (the worker enforces the wall-clock
// budget; double-budgeting here would turn a worker-side "!timeout" cell
// into a supervisor-side "!canceled" one). Retry pacing, eviction and panic
// conversion match the local path.
func (p *Pool) runRemote(e *entry, fn func(context.Context) (any, error)) {
	go func() {
		defer close(e.done)
		if err := p.ctx.Err(); err != nil {
			e.err = err
			p.evict(e)
			return
		}
		delay := p.opts.Backoff
		for attempt := 0; ; attempt++ {
			val, err := p.remoteAttempt(e.key, fn)
			if err == nil {
				e.val, e.err = val, nil
				return
			}
			e.err = err
			if attempt >= p.opts.MaxRetries || !retryable(err) {
				break
			}
			p.retries.Add(1)
			select {
			case <-p.after(delay):
			case <-p.ctx.Done():
				e.err = p.ctx.Err()
				p.evict(e)
				return
			}
			if delay < maxBackoff {
				delay *= 2
			}
		}
		p.evict(e)
	}()
}

// remoteAttempt runs fn once under the pool's own context, converting a
// panic into a *PanicError with the stack captured at the source.
func (p *Pool) remoteAttempt(key string, fn func(context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: key, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(p.ctx)
}

// Go runs fn concurrently on a plain goroutine, outside the worker bound.
// It exists for coordination tasks — a whole experiment submitting its
// points and assembling tables — which spend their time waiting on Cached
// futures and would deadlock a small pool if they held a slot meanwhile.
func Go[T any](p *Pool, fn func() T) Future[T] {
	e := &entry{done: make(chan struct{})}
	go func() {
		defer close(e.done)
		defer func() {
			if r := recover(); r != nil {
				e.err = &PanicError{Value: r, Stack: string(debug.Stack())}
			}
		}()
		e.val = fn()
	}()
	return Future[T]{e: e}
}

// lookup returns the future already memoized under key, if any. It is the
// cache-hit path of every Cached call and must stay allocation-free: the
// future wraps the existing entry by value.
//
//perflint:hot
func lookup[T any](p *Pool, key string) (Future[T], bool) {
	s := p.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return Future[T]{}, false
	}
	return Future[T]{e: e}, true
}

// Cached submits the leaf point fn under the given fingerprint key, or, if
// the key was already submitted to this pool, returns the existing future
// (possibly already complete). At most Workers leaf points execute at any
// moment. The key must canonically identify both the workload and the
// configuration — build it from vmpi.Config.Fingerprint plus a workload
// prefix. fn must not wait on other futures.
//
// The cache-hit path allocates nothing: the future is returned by value
// and the context adapter around fn is only built on a miss (the one
// budgeted escape below).
//
//perflint:hot
func Cached[T any](p *Pool, key string, fn func() T) Future[T] {
	if f, ok := lookup[T](p, key); ok {
		return f
	}
	return CachedCtx(p, key, func(context.Context) (T, error) { return fn(), nil })
}

// CachedCtx is Cached for fault-aware leaf points: fn receives a context
// derived from the pool's (with the per-attempt Timeout applied) and may
// return a structured error instead of panicking. Failed points are
// retried per the pool's policy when the error is retryable, recorded for
// all current waiters, and evicted from the cache so a later resubmission
// recomputes rather than replaying the failure.
//
//perflint:hot
func CachedCtx[T any](p *Pool, key string, fn func(context.Context) (T, error)) Future[T] {
	s := p.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.mu.Unlock()
		return Future[T]{e: e}
	}
	e := &entry{done: make(chan struct{}), key: key}
	s.m[key] = e
	s.mu.Unlock()
	p.runLeaf(e, func(ctx context.Context) (any, error) { return fn(ctx) })
	return Future[T]{e: e}
}

// CachedRemote is CachedCtx for points dispatched to an out-of-process
// worker fleet (see package dist): memoization under the same key space,
// retryable-failure resubmission with the pool's backoff schedule, and
// failed-entry eviction are identical, but the submission holds no worker
// slot, gets no worker-context decoration, and runs under the pool's
// context without the per-attempt Timeout — the fleet owns concurrency,
// worker state and the wall-clock budget. Mixing Cached and CachedRemote
// keys in one pool is safe: whichever submission lands first owns the entry.
//
//perflint:hot
func CachedRemote[T any](p *Pool, key string, fn func(context.Context) (T, error)) Future[T] {
	s := p.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.mu.Unlock()
		return Future[T]{e: e}
	}
	e := &entry{done: make(chan struct{}), key: key}
	s.m[key] = e
	s.mu.Unlock()
	p.runRemote(e, func(ctx context.Context) (any, error) { return fn(ctx) })
	return Future[T]{e: e}
}

// Collect waits on futures in submission order and returns their values —
// the step that restores sequential output order after a parallel fan-out.
// Like Wait, it panics on the first failed point; degraded-mode callers
// iterate with WaitErr themselves.
func Collect[T any](fs []Future[T]) []T {
	out := make([]T, len(fs))
	for i, f := range fs {
		out[i] = f.Wait()
	}
	return out
}
