// Package vmpi is the virtual-time execution engine: it runs the same
// rank programs as the real engine in package par, but every communication
// and compute operation advances a per-rank virtual clock according to the
// Columbia machine model instead of consuming wall time. This is how the
// repository regenerates the paper's measurements at 4–2048 CPUs on a
// laptop.
//
// # Simulation semantics
//
// Ranks are coroutines scheduled cooperatively: exactly one runs at a time,
// and the engine always resumes the runnable rank with the smallest virtual
// clock, so execution is deterministic. Sends are buffered
// (asynchronous-complete): the sender pays an initiation overhead and
// proceeds, while the message is timestamped with an arrival time
//
//	arrival = start + (latency + bytes/bandwidth) · mpt
//
// along its path. Messages crossing node boundaries additionally serialize
// FCFS on each box's finite internode capacity (NUMAlink4 quad links or the
// installed InfiniBand cards), which is what makes bandwidth-hungry
// patterns collapse over InfiniBand exactly as §4.6.1 reports. Receives
// block until the matching arrival; barriers release at the latest entry
// plus a logarithmic tree cost.
//
// Per-rank compute time comes from the roofline model in package machine
// (single-threaded ranks) or the OpenMP NUMA model in package omp (hybrid
// ranks with Threads > 1), scaled by the compiler factor and the pinning
// penalty, and inflated by the boot-cpuset factor when a run occupies every
// CPU of a box.
//
// # Execution engines
//
// Every run uses the event-calendar engine: an O(log P) min-heap of
// (time, rank) wake events with lazy invalidation, one iter.Pull coroutine
// per rank resumed by a run loop (a yielding rank that is still the
// earliest event just keeps running, with no switch at all), a per-rank
// pending list that holds only the mailboxes with queued mail — found by
// one packed (source, tag) word, so both a directed and a wildcard match
// cost O(pending) rather than O(P) — and free-listed message/mailbox
// storage so the hot send/recv path does not allocate.
//
// The original central-loop scheduler, which scans every rank for the
// smallest clock and matches wildcards by a source-order scan of every
// mailbox, is kept only as the reference engine: the executable
// specification the calendar engine is differentially tested against.
// Tests select it per run with WithReferenceEngine; it is never a
// configuration option and never enters a fingerprint. See DESIGN.md §8
// for the equivalence contract.
package vmpi

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/netmodel"
	"columbia/internal/noise"
	"columbia/internal/omp"
	"columbia/internal/par"
	"columbia/internal/pinning"
	"columbia/internal/vmpi/calendar"
	"columbia/internal/vmpi/commsan"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// sendOverheadFrac is the fraction of the path latency charged to the
// sender as initiation overhead. [calibrated]
const sendOverheadFrac = 0.35

// Config describes one simulated job.
type Config struct {
	// Cluster is the machine; required.
	Cluster *machine.Cluster
	// Net overrides the interconnect model (defaults to netmodel.New).
	Net *netmodel.Model
	// Procs is the number of MPI ranks.
	Procs int
	// Threads is the number of OpenMP threads per rank (>= 1).
	Threads int
	// Nodes spreads the job evenly over this many boxes; 0 or 1 packs
	// CPUs densely from node 0.
	Nodes int
	// Stride places CPUs every Stride-th processor (§4.2); 0 means 1.
	Stride int
	// Placement overrides the computed CPU assignment (Procs*Threads
	// slots, rank-major).
	Placement *machine.Placement
	// Pin is the pinning policy (default Dplace — the paper pins
	// everything except the Fig. 7 comparison).
	Pin pinning.Method
	// ComputeFactor multiplies all compute time (compiler version etc.).
	ComputeFactor float64
	// OMP tunes the hybrid thread model for Threads > 1.
	OMP omp.ModelOpts
	// RandomPattern marks communication with no locality, enabling the
	// InfiniBand random-ring protocol collapse.
	RandomPattern bool
	// Faults injects deterministic hardware degradation (slow CPUs,
	// degraded buses, flapping links, lost nodes — see package fault).
	// nil simulates the healthy machine; the plan is fingerprint-visible,
	// so faulted and healthy runs never share a cache entry.
	Faults *fault.Plan
	// Noise overlays seeded stochastic performance noise (per-rank compute
	// jitter and periodic daemon-interference windows — see package noise)
	// on top of whatever Faults describes. nil is silence; the spec,
	// including its seed and ensemble replica index, is
	// fingerprint-visible, so every (seed, replica) point memoizes
	// independently while noiseless fingerprints stay byte-identical.
	Noise *noise.Spec
	// Sanitize enables the communication sanitizer (package commsan):
	// per-rank vector clocks and a message-match ledger that turn
	// wildcard-receive races, unmatched traffic and mismatched collectives
	// into structured ErrSanitizer failures. The sanitizer observes without
	// perturbing timing — a clean sanitized run is byte-identical to the
	// unsanitized run — but the toggle is fingerprint-visible because
	// sanitized runs can fail where unsanitized runs succeed.
	Sanitize bool
}

func (c *Config) placement() *machine.Placement {
	if c.Placement != nil {
		return c.Placement
	}
	slots := c.Procs * c.threads()
	if c.Nodes > 1 {
		return machine.Blocked(c.Cluster, slots, c.Nodes)
	}
	stride := c.Stride
	if stride < 1 {
		stride = 1
	}
	return machine.Strided(c.Cluster, slots, stride)
}

func (c *Config) threads() int {
	if c.Threads < 1 {
		return 1
	}
	return c.Threads
}

// RankStats reports the virtual-time breakdown of one rank.
type RankStats struct {
	Compute float64 // seconds advancing in Compute/Elapse
	Comm    float64 // seconds in send overhead, receive waits, barriers
	Finish  float64 // final clock value
}

// Result summarizes a simulated job.
type Result struct {
	// Time is the job's makespan: the largest rank finish time.
	Time float64
	// MaxComm and MaxCompute are per-rank maxima, the numbers the paper
	// reports as "comm" and "exec" times.
	MaxComm    float64
	MaxCompute float64
	// AvgComm and AvgCompute are means over ranks.
	AvgComm    float64
	AvgCompute float64
	// Stats holds the per-rank breakdown.
	Stats []RankStats
}

type status int

const (
	stReady status = iota
	stRunning
	stBlockedRecv
	stBlockedBarrier
	stDone
)

// mailKey packs a (source, tag) mailbox address into one word, so finding
// a box is one integer compare per pending entry. Both halves are 32 bits:
// send and recv reject tags outside the int32 range (checkTag), which would
// otherwise share a mailbox with another tag.
func mailKey(src, tag int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(tag))
}

type message struct {
	src, tag int
	bytes    float64
	data     []float64
	arrival  float64
	// sid is the sanitizer's ledger id; meaningful only when sanitizing.
	sid int
}

// msgq is one mailbox: a FIFO of messages for a (source, tag) pair. A box
// exists only while it holds mail: a drained box leaves its rank's pending
// list for the scratch's free list, backing storage and all, and the next
// box any rank opens reuses it, so the steady state allocates nothing and
// a rank never carries boxes for traffic it is not holding.
type msgq = calendar.Queue[*message]

type rankState struct {
	id      int
	now     float64
	compute float64
	comm    float64
	status  status
	// pending lists the rank's mailboxes, all non-empty, in no particular
	// order, and pkeys their mailKeys at the same indices: a box joins when
	// a send opens it and is swap-deleted when a receive drains it, so
	// every match scans only queued traffic.
	pending []*msgq
	pkeys   []uint64
	// next resumes the rank's coroutine until it parks or finishes; stop
	// unwinds it (see spawn). park, valid inside the coroutine, suspends it
	// and reports false once stop was called.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool
	// api is the par.Comm handed to the rank program, kept in the pooled
	// record so starting a rank does not allocate one per run.
	api comm
	// Pending receive when blocked.
	wantSrc, wantTag int
	recvResult       *message
	// Calendar-engine bookkeeping: seq stamps this rank's latest calendar
	// event (older events are stale and discarded on pop); anyWake caches
	// the earliest candidate arrival of a pending wildcard receive so a
	// new queue-head message updates the wake event in O(1).
	seq     uint32
	anyWake float64
}

type engine struct {
	cfg        Config
	net        *netmodel.Model
	place      *machine.Placement
	threads    int
	subPlace   []*machine.Placement // per-rank thread slots, Threads > 1
	ranks      []*rankState
	linkBusy   []float64 // per node: internode capacity next-free time
	fabricBusy []float64 // per node: intra-node cross-brick capacity next-free time
	inBarrier  int
	barrierMax float64
	barrierLat float64
	bootFactor float64
	computeFac float64
	faults     *fault.Plan
	// noise is the run's bound noise runtime (per-rank jitter streams and
	// the daemon eligibility mask); nil is silence. It lives on the engine,
	// never shared across runs, because streams are mutable per-rank state.
	noise *noise.Runtime
	// san is the communication sanitizer; nil unless Config.Sanitize.
	san *commsan.Tracker
	// arena, when non-nil, is where this run's scratch came from and where
	// recycle returns it (worker-private runs under WithArena).
	arena *Arena
	// runErr records the first rank failure.
	runErr *RunError
	// msgs pools message structs: the hot send/recv path reuses them
	// instead of allocating one per simulated message. Payload slices are
	// never pooled — ownership transfers to the receiving program. It lives
	// in scr so the pool survives the run and warms the next one.
	msgs *calendar.FreeList[message]
	// scr is the recycled allocation-heavy state (ranks, mailboxes, message
	// pool, calendar storage, occupancy clocks) this run drew from the
	// shared scratch pool; RunCtx recycles it after a clean completion.
	scr *engineScratch
	// Calendar-engine state (cal selects it). heap orders wake events by
	// (time, rank); ctx is the run's context, checked at every dispatch;
	// active counts unfinished ranks; handoff is the rank a parking or
	// exiting rank chose to run next, nil when the run is over. Exactly one
	// coroutine runs at a time, so no field needs a lock.
	cal     bool
	ctx     context.Context
	heap    *calendar.Heap
	active  int
	handoff *rankState
}

// stopToken unwinds a rank coroutine during shutdown; the recover handler
// recognizes it and does not record it as a rank panic.
type stopToken struct{}

// Run simulates fn on cfg.Procs ranks and returns the virtual-time result.
// It panics with a *RunError on any failure — the legacy contract kept for
// callers that treat a failed simulation as fatal; robust callers use
// TryRun or RunCtx instead.
func Run(cfg Config, fn func(par.Comm)) Result {
	res, err := TryRun(cfg, fn)
	if err != nil {
		panic(err)
	}
	return res
}

// TryRun is the error-returning variant of Run: invalid configurations,
// deadlocks, node-down faults and rank panics come back as a *RunError
// instead of a panic.
func TryRun(cfg Config, fn func(par.Comm)) (Result, error) {
	return RunCtx(context.Background(), cfg, fn)
}

// RunCtx is TryRun under a context: cancellation or a deadline stops the
// simulation at its next scheduling step (every compute or communication
// operation is one), shuts every rank coroutine down cleanly, and returns
// an ErrCanceled or ErrTimeout RunError. Rank programs that loop without
// ever touching their Comm cannot be preempted; none of the workloads in
// this repository do that.
func RunCtx(ctx context.Context, cfg Config, fn func(par.Comm)) (Result, error) {
	e, err := newEngine(cfg, arenaFrom(ctx), referenceFrom(ctx))
	if err != nil {
		return Result{}, err
	}
	e.spawn(fn)
	var res Result
	if e.cal {
		res, err = e.runCalendar(ctx)
	} else {
		res, err = e.runReference(ctx)
	}
	// Unwind every rank still parked (a failed or canceled run); stopping a
	// finished coroutine is a no-op.
	for _, r := range e.ranks {
		r.stop()
	}
	if err == nil {
		// Every rank has finished; hand the run's storage back to the
		// scratch pool so the next run starts warm. Failed or canceled runs
		// drop theirs — cheap, and provably safe.
		e.recycle()
	}
	return res, err
}

// rankExit is the deferred tail of every rank coroutine: it converts rank
// panics into the run's error, marks the rank done and, under the calendar
// engine, picks the next rank to run. A stopToken panic is shutdown
// unwinding, not a failure, and schedules nothing. Every panic is
// recovered here, so none escapes the coroutine into the run loop.
func (e *engine) rankExit(r *rankState) {
	p := recover()
	r.status = stDone
	if _, stop := p.(stopToken); stop {
		return
	}
	if p != nil && e.runErr == nil {
		e.runErr = &RunError{
			Kind:       ErrPanic,
			Rank:       r.id,
			PanicValue: p,
			Stack:      string(debug.Stack()),
		}
	}
	if !e.cal {
		return
	}
	e.active--
	if e.runErr == nil && e.active > 0 {
		e.handoff = e.calNext()
	}
}

// runReference is the reference engine (WithReferenceEngine): a central
// loop that repeatedly scans for the rank with the smallest virtual clock
// and resumes it until it parks. One O(P) scan per scheduling step.
func (e *engine) runReference(ctx context.Context) (Result, error) {
	active := len(e.ranks)
	for active > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return Result{}, ctxErr(cerr)
		}
		r := e.pickReady()
		if e.runErr != nil {
			// A deferred wildcard match inside pickReady can raise a
			// sanitizer violation on the scheduler itself.
			return Result{}, e.runErr
		}
		if r == nil {
			return Result{}, e.deadlockErr()
		}
		r.status = stRunning
		r.next()
		if e.runErr != nil {
			return Result{}, e.runErr
		}
		if r.status == stDone {
			active--
		}
	}
	return e.finish()
}

// runCalendar is the event-calendar engine's run loop: it seeds the heap
// with every rank's start event and resumes ranks in event order. The
// scheduling decisions happen on the rank side (yield, rankExit), which
// leave the next event's rank in e.handoff; a nil handoff ends the run.
func (e *engine) runCalendar(ctx context.Context) (Result, error) {
	e.ctx = ctx
	e.active = len(e.ranks)
	for _, r := range e.ranks {
		e.calPush(r, 0)
	}
	// calNext checks the context first, so — like the reference engine —
	// an already-canceled run fails before its first rank executes.
	for r := e.calNext(); r != nil; r = e.handoff {
		e.handoff = nil
		r.status = stRunning
		r.next()
	}
	if e.runErr != nil {
		return Result{}, e.runErr
	}
	return e.finish()
}

// finish runs the sanitizer's end-of-run checks and assembles the result.
func (e *engine) finish() (Result, error) {
	if e.san != nil {
		if v := e.san.Finalize(); v != nil {
			e.sanFail(v)
			return Result{}, e.runErr
		}
	}
	return e.result(), nil
}

// ctxErr converts a context error into the run's canceled or timed-out
// failure.
func ctxErr(cerr error) *RunError {
	kind := ErrCanceled
	if cerr == context.DeadlineExceeded {
		kind = ErrTimeout
	}
	return &RunError{Kind: kind, Rank: -1, Msg: cerr.Error(), Err: cerr}
}

// calPush schedules rank r to be pickable at virtual time at, superseding
// any event previously pushed for it (stale events fail the seq check).
func (e *engine) calPush(r *rankState, at float64) {
	r.seq++
	e.heap.Push(calendar.Event{At: at, Rank: int32(r.id), Seq: r.seq})
}

// calNext pops the next valid event and returns its rank, completing a
// pending wildcard receive exactly like pickReady does. It returns nil —
// with e.runErr set — when the run is over: context canceled, a recorded
// failure, a sanitizer violation raised by the wildcard match, or a drained
// calendar (deadlock: every live rank is blocked with no wake event).
func (e *engine) calNext() *rankState {
	if cerr := e.ctx.Err(); cerr != nil {
		e.runErr = ctxErr(cerr)
		return nil
	}
	if e.runErr != nil {
		return nil
	}
	for {
		ev, ok := e.heap.Pop()
		if !ok {
			e.runErr = e.deadlockErr()
			return nil
		}
		r := e.ranks[ev.Rank]
		if ev.Seq != r.seq {
			continue // superseded by a fresher event for this rank
		}
		if r.status == stBlockedRecv {
			e.completeRecv(r)
			if e.runErr != nil {
				return nil
			}
		}
		return r
	}
}

func newEngine(cfg Config, arena *Arena, reference bool) (e *engine, err error) {
	if cfg.Cluster == nil {
		return nil, configErr("Config.Cluster is required")
	}
	if cfg.Procs < 1 {
		return nil, configErr("Config.Procs must be positive, got %d", cfg.Procs)
	}
	// The placement constructors in package machine report impossible
	// geometries (too few CPUs, invalid node counts, duplicated slots) by
	// panicking; surface those as structured config errors.
	defer func() {
		if p := recover(); p != nil {
			e, err = nil, configErr("%v", p)
		}
	}()
	net := cfg.Net
	if net == nil {
		net = netmodel.New(cfg.Cluster)
	}
	e = &engine{
		cfg:        cfg,
		net:        net,
		place:      cfg.placement(),
		threads:    cfg.threads(),
		cal:        !reference,
		computeFac: cfg.ComputeFactor,
		faults:     cfg.Faults,
	}
	if cfg.Sanitize {
		e.san = commsan.New(cfg.Procs)
	}
	if !e.faults.Empty() {
		for _, l := range e.place.Locs() {
			if e.faults.NodeDown(l.Node) {
				return nil, &RunError{
					Kind:      ErrNodeDown,
					Rank:      -1,
					Msg:       fmt.Sprintf("placement uses node %d, which the fault plan lost", l.Node),
					Transient: e.faults.Transient(),
				}
			}
		}
	}
	if e.computeFac <= 0 {
		e.computeFac = 1
	}
	// Bind the noise spec to this run: one derived rng stream per rank
	// (keyed by spec seed, fault-plan seed, replica, rank) plus the daemon
	// eligibility mask from each rank's per-node CPU index. Both engines
	// share computeTime, so a nil runtime here is the only engine-visible
	// difference between silence and noise.
	if cfg.Noise.Perturbs() {
		e.noise = noise.NewRuntime(cfg.Noise, cfg.Faults.Seed(), cfg.Procs,
			func(rank int) int { return e.slot(rank, 0).CPU })
	}
	e.bootFactor = 1
	if e.place.UsesWholeNode() {
		e.bootFactor = machine.BootCpusetFactor
	}
	if e.threads > 1 {
		e.subPlace = make([]*machine.Placement, cfg.Procs)
		locs := e.place.Locs()
		for i := 0; i < cfg.Procs; i++ {
			e.subPlace[i] = machine.NewPlacement(cfg.Cluster, locs[i*e.threads:(i+1)*e.threads])
		}
	}
	// All error returns are behind us: draw the run's allocation-heavy
	// state (rank records, mailboxes, message pool, calendar, occupancy
	// clocks) from the worker's arena or the scratch pool instead of
	// rebuilding it.
	e.arena = arena
	e.scr = acquireScratch(arena, cfg.Procs, len(cfg.Cluster.Nodes))
	e.ranks = e.scr.ranks[:cfg.Procs]
	e.msgs = &e.scr.msgs
	e.heap = &e.scr.heap
	e.linkBusy = e.scr.linkBusy
	e.fabricBusy = e.scr.fabricBusy
	// Representative latency for the barrier tree: the span of the job.
	a := e.slot(0, 0)
	b := e.slot(cfg.Procs-1, 0)
	e.barrierLat = e.net.Latency(a, b)
	return e, nil
}

// slot returns the CPU of rank r's thread t.
func (e *engine) slot(r, t int) machine.Loc {
	return e.place.Loc(r*e.threads + t)
}

// pickReady selects the next rank to resume: the smallest virtual clock,
// ties to the lowest id. A rank blocked in a wildcard receive competes too,
// at the time the receive would complete (the earliest candidate arrival):
// deferring the match to the moment that wake time is globally minimal
// guarantees every send that could arrive by then has already been issued,
// so the chosen sender is the (arrival, source) minimum over the whole
// program — a property of the message timeline, never of the order the
// engine happened to execute the sends in.
func (e *engine) pickReady() *rankState {
	var best *rankState
	var bestAt float64
	for _, r := range e.ranks {
		at := r.now
		switch r.status {
		case stReady:
		case stBlockedRecv:
			if r.wantSrc != AnySource {
				continue
			}
			arr, ok := e.earliestAny(r)
			if !ok {
				continue
			}
			if arr > at {
				at = arr
			}
		default:
			continue
		}
		//detlint:allow floatcmp rank clocks advance by identical arithmetic, so ties are exact; the id tie-break keeps pick order deterministic
		if best == nil || at < bestAt || (at == bestAt && r.id < best.id) {
			best, bestAt = r, at
		}
	}
	if best != nil && best.status == stBlockedRecv {
		e.completeRecv(best)
	}
	return best
}

// earliestAny returns the earliest arrival among queued messages that could
// satisfy r's pending wildcard receive.
func (e *engine) earliestAny(r *rankState) (float64, bool) {
	i := e.anyBox(r, r.wantTag)
	if i < 0 {
		return 0, false
	}
	return r.pending[i].Peek().arrival, true
}

// anyBox returns the index in r.pending of the mailbox a wildcard receive
// on tag matches next: the earliest head arrival, ties to the lowest
// source; -1 when nothing is queued. The calendar engine ranks the pending
// boxes' heads in whatever order swap-deletes left them, so the tie-break
// is explicit.
func (e *engine) anyBox(r *rankState, tag int) int {
	if !e.cal {
		return e.scanAny(r, tag)
	}
	best := -1
	var head *message
	for i, q := range r.pending {
		m := q.Peek()
		if m.tag != tag {
			continue
		}
		//detlint:allow floatcmp equal arrivals are a true tie, broken by the lowest source exactly as the reference scan's strict < does
		if best < 0 || m.arrival < head.arrival || (m.arrival == head.arrival && m.src < head.src) {
			best, head = i, m
		}
	}
	return best
}

// scanAny is the reference engine's wildcard match: a source-order scan of
// every possible mailbox, where the strict < keeps the lowest source on
// tied arrivals. It looks each source up by key instead of ranking the
// pending list's heads, so the differential tests check the calendar
// engine's explicit tie-break against an independent derivation.
func (e *engine) scanAny(r *rankState, tag int) int {
	best := -1
	for s := range e.ranks {
		if i := r.box(mailKey(s, tag)); i >= 0 && (best < 0 || r.pending[i].Peek().arrival < r.pending[best].Peek().arrival) {
			best = i
		}
	}
	return best
}

// anyCandidates returns the sanitizer ledger ids of the queue-head messages
// that could satisfy r's pending wildcard receive, in source order. It
// collects them from the pending list and sorts by source, so it costs
// O(pending log pending) rather than a lookup per possible source.
func (e *engine) anyCandidates(r *rankState) []int {
	var heads []*message
	for _, q := range r.pending {
		if m := q.Peek(); m.tag == r.wantTag {
			heads = append(heads, m)
		}
	}
	slices.SortFunc(heads, func(a, b *message) int { return cmp.Compare(a.src, b.src) })
	ids := make([]int, len(heads))
	for i, m := range heads {
		ids[i] = m.sid
	}
	return ids
}

// sanFail records a sanitizer violation as the run's failure; the first one
// wins. Callers on rank goroutines keep executing until their next park,
// where the scheduler aborts the run.
func (e *engine) sanFail(v *commsan.Violation) {
	if e.runErr != nil {
		return
	}
	e.runErr = &RunError{
		Kind:   ErrSanitizer,
		Rank:   -1,
		Msg:    v.String(),
		Report: &commsan.Report{Violations: []*commsan.Violation{v}},
	}
}

// deadlockErr enumerates every blocked rank (in rank order) into a
// structured ErrDeadlock error, extracts the wait-for chain, and — when the
// sanitizer is on and the deadlock is really a collective entered by a
// strict subset of ranks — upgrades the failure to ErrSanitizer with the
// skipping rank named.
func (e *engine) deadlockErr() *RunError {
	var blocked []BlockedRank
	for _, r := range e.ranks {
		switch r.status {
		case stBlockedRecv:
			blocked = append(blocked, BlockedRank{Rank: r.id, Op: "recv", Src: r.wantSrc, Tag: r.wantTag, Time: r.now})
		case stBlockedBarrier:
			blocked = append(blocked, BlockedRank{Rank: r.id, Op: "barrier", Src: -1, Tag: -1, Time: r.now})
		}
	}
	cycle := e.waitCycle()
	if e.san != nil {
		// Ranks stuck in the engine barrier, or in a receive whose tag is
		// in the collective range, are waiting inside a collective; ranks
		// already finished can never join them.
		var waiting, finished []int
		for _, r := range e.ranks {
			switch {
			case r.status == stBlockedBarrier,
				r.status == stBlockedRecv && r.wantTag >= par.TagBase:
				waiting = append(waiting, r.id)
			case r.status == stDone:
				finished = append(finished, r.id)
			}
		}
		if v := e.san.CollectiveSubset(waiting, finished); v != nil {
			return &RunError{
				Kind:    ErrSanitizer,
				Rank:    -1,
				Msg:     v.String(),
				Report:  &commsan.Report{Violations: []*commsan.Violation{v}},
				Blocked: blocked,
				Cycle:   cycle,
			}
		}
	}
	return &RunError{Kind: ErrDeadlock, Rank: -1, Blocked: blocked, Cycle: cycle}
}

// waitCycle follows wait-for edges from the lowest blocked rank until the
// chain revisits a rank (a true cycle — the lead-in is trimmed) or reaches
// a rank that cannot unblock anyone (typically one that already finished:
// the skipper of a subset collective).
func (e *engine) waitCycle() []CycleStep {
	start := -1
	for _, r := range e.ranks {
		if r.status == stBlockedRecv || r.status == stBlockedBarrier {
			start = r.id
			break
		}
	}
	if start < 0 {
		return nil
	}
	var steps []CycleStep
	index := make(map[int]int)
	for cur := start; ; {
		r := e.ranks[cur]
		if r.status != stBlockedRecv && r.status != stBlockedBarrier {
			return steps
		}
		if at, seen := index[cur]; seen {
			return steps[at:]
		}
		index[cur] = len(steps)
		step := e.waitStep(r)
		steps = append(steps, step)
		if step.On < 0 {
			return steps
		}
		cur = step.On
	}
}

// waitStep computes the wait-for edge out of blocked rank r: the rank whose
// progress could unblock it. A directed receive waits on its source; a
// wildcard receive or a barrier waits on any rank not already with it —
// preferring blocked ranks (they extend the chain toward a cycle) over
// finished ones (they terminate it).
func (e *engine) waitStep(r *rankState) CycleStep {
	st := CycleStep{Rank: r.id, On: -1}
	if r.status == stBlockedRecv {
		st.Op, st.Src, st.Tag = "recv", r.wantSrc, r.wantTag
		if r.wantSrc != AnySource {
			st.On = r.wantSrc
			st.OnDone = e.ranks[r.wantSrc].status == stDone
			return st
		}
	} else {
		st.Op, st.Src, st.Tag = "barrier", -1, -1
	}
	for pass := 0; pass < 2; pass++ {
		for _, d := range e.ranks {
			if d.id == r.id || (st.Op == "barrier" && d.status == stBlockedBarrier) {
				continue
			}
			blocked := d.status == stBlockedRecv || d.status == stBlockedBarrier
			if (pass == 0 && blocked) || (pass == 1 && d.status == stDone) {
				st.On, st.OnDone = d.id, d.status == stDone
				return st
			}
		}
	}
	return st
}

// yield parks the calling rank and hands control back to the run loop.
// Under the calendar engine the rank first picks the next event's rank
// itself, and when that is the rank again it keeps running with no switch
// at all. A park that reports false means shutdown stopped the coroutine:
// the rank unwinds through stopToken.
func (e *engine) yield(r *rankState) {
	if e.cal {
		next := e.calNext()
		if next == r {
			r.status = stRunning
			return
		}
		e.handoff = next
	}
	if !r.park(struct{}{}) {
		panic(stopToken{})
	}
}

// yieldReady parks the rank in the ready state after its clock advanced, so
// ranks with smaller clocks get scheduled first. This keeps the FCFS
// occupancy of shared fabric/link capacities in near-time order: without
// it, a rank that unblocks early can execute a whole compute phase and
// timestamp *future* traffic before slower ranks issue their current
// messages, inflating everyone's queue position.
func (e *engine) yieldReady(r *rankState) {
	r.status = stReady
	if e.cal {
		e.calPush(r, r.now)
	}
	e.yield(r)
}

// send timestamps and enqueues a message; see the package comment for the
// timing model.
func (e *engine) send(r *rankState, dst, tag int, bytes float64, data []float64) {
	if dst < 0 || dst >= len(e.ranks) {
		panic(fmt.Sprintf("vmpi: rank %d sent to invalid rank %d", r.id, dst))
	}
	checkTag(r, tag)
	a := e.slot(r.id, 0)
	b := e.slot(dst, 0)
	lat := e.net.Latency(a, b)
	bw := e.net.Bandwidth(a, b)
	internode := a.Node != b.Node
	ib := internode && e.cfg.Cluster.Fabric == machine.InfiniBand
	if ib && e.cfg.RandomPattern {
		bw *= machine.IBRandomRingCollapse
	}
	start := r.now
	if internode && (e.faults.LinkDead(a.Node, start) || e.faults.LinkDead(b.Node, start)) {
		// A severed link (bandwidth scale at the fault floor) fails the run
		// with the fault named instead of simulating a near-infinite
		// transfer; the message never enters the sanitizer's ledger, so the
		// failure is attributed to the link, not to unmatched traffic.
		if e.runErr == nil {
			e.runErr = &RunError{
				Kind:      ErrLinkDown,
				Rank:      r.id,
				Msg:       fmt.Sprintf("rank %d send to rank %d (tag %d, %g bytes) crossed severed link %d↔%d at t=%.6g", r.id, dst, tag, bytes, a.Node, b.Node, start),
				Transient: e.faults.Transient(),
			}
		}
		return
	}
	if internode {
		// A degraded or flapping link throttles the per-stream rate too:
		// the path is only as good as its worse endpoint, evaluated at
		// the (virtual) send time so flapping stays deterministic.
		s := e.faults.LinkScale(a.Node, start)
		if sb := e.faults.LinkScale(b.Node, start); sb < s {
			s = sb
		}
		bw *= s
	}
	arr := start + lat + bytes/bw
	if !internode && e.cfg.Cluster.Brick(a) != e.cfg.Cluster.Brick(b) {
		// Same box, different C-bricks: the transfer occupies the node's
		// shared NUMAlink fabric FCFS. This is what makes bisection-
		// hungry patterns (FT's transpose, random rings) degrade with
		// CPU count, and degrade harder on the 3700.
		occ := bytes / (e.net.IntraNodeCapacity(a.Node) * e.faults.FabricScale(a.Node))
		free := e.fabricBusy[a.Node]
		if start > free {
			free = start
		}
		e.fabricBusy[a.Node] = free + occ
		if t := e.fabricBusy[a.Node] + lat; t > arr {
			arr = t
		}
	}
	if internode {
		// FCFS occupancy of each box's internode capacity.
		for _, nd := range [2]int{a.Node, b.Node} {
			occ := bytes / (e.net.InternodeCapacity(nd) * e.faults.LinkScale(nd, start))
			free := e.linkBusy[nd]
			if start > free {
				free = start
			}
			e.linkBusy[nd] = free + occ
			if t := e.linkBusy[nd] + lat; t > arr {
				arr = t
			}
		}
	}
	oh := sendOverheadFrac * lat
	r.now += oh
	r.comm += oh

	m := e.msgs.Get()
	m.src, m.tag, m.bytes, m.arrival, m.sid = r.id, tag, bytes, arr, 0
	if data != nil {
		// The payload is never pooled: ownership transfers to the
		// receiving rank's program when the matching Recv returns it. The
		// copy itself is carved from the run's payload slab.
		m.data = e.scr.copyPayload(data)
	}
	if e.san != nil {
		m.sid = e.san.Send(r.id, dst, tag, bytes, start)
	}
	d := e.ranks[dst]
	k := mailKey(r.id, tag)
	i := d.box(k)
	newHead := i < 0
	if newHead {
		i = len(d.pending)
		d.pending = append(d.pending, e.scr.newMsgq())
		d.pkeys = append(d.pkeys, k)
	}
	d.pending[i].Push(m)
	// Only directed receivers wake eagerly; wildcard receives stay parked
	// until pickReady proves their earliest candidate is globally minimal
	// (see pickReady), which keeps the match independent of send order.
	if d.status == stBlockedRecv && d.wantTag == tag {
		switch {
		case d.wantSrc == r.id:
			e.completeRecv(d)
			if e.cal {
				e.calPush(d, d.now)
			}
		case e.cal && d.wantSrc == AnySource && newHead && m.arrival < d.anyWake:
			// A new queue head lowered the wildcard's earliest candidate:
			// refresh its wake event. The cached minimum only ever
			// decreases while the rank is blocked (mail is consumed only
			// by the rank itself), so superseded events are always at
			// later-or-equal times and die on the seq check.
			d.anyWake = m.arrival
			at := d.anyWake
			if d.now > at {
				at = d.now
			}
			e.calPush(d, at)
		}
	}
}

// match pops the next message for (src, tag) if one is queued. AnySource
// picks the earliest arrival (ties to the lowest source rank) for
// determinism.
func (e *engine) match(r *rankState, src, tag int) *message {
	var i int
	if src == AnySource {
		i = e.anyBox(r, tag)
	} else {
		i = r.box(mailKey(src, tag))
	}
	if i < 0 {
		return nil
	}
	q := r.pending[i]
	m := q.Pop()
	if q.Len() == 0 {
		r.unpend(i)
		e.scr.freeMsgq(q) // a drained queue keeps its storage for the next box
	}
	if e.san != nil {
		e.san.Match(m.sid, r.id)
	}
	return m
}

// box returns the index in r.pending of r's mailbox for key k, or -1 when
// no mail for k is queued.
func (r *rankState) box(k uint64) int {
	for i, pk := range r.pkeys {
		if pk == k {
			return i
		}
	}
	return -1
}

// unpend swap-deletes the just-drained mailbox at index i from r's pending
// list, keeping pkeys in step.
func (r *rankState) unpend(i int) {
	last := len(r.pending) - 1
	r.pending[i] = r.pending[last]
	r.pkeys[i] = r.pkeys[last]
	r.pending[last] = nil
	r.pending = r.pending[:last]
	r.pkeys = r.pkeys[:last]
}

// release returns a fully consumed message to the pool. Callers must have
// extracted the payload first: the data slice belongs to the program now
// and is detached, never recycled.
func (e *engine) release(m *message) {
	m.data = nil
	e.msgs.Put(m)
}

// completeRecv finishes a blocked receive whose message has just arrived.
func (e *engine) completeRecv(d *rankState) {
	if e.san != nil && d.wantSrc == AnySource {
		if v := e.san.RecvAny(d.id, d.wantTag, e.anyCandidates(d)); v != nil {
			e.sanFail(v)
		}
	}
	m := e.match(d, d.wantSrc, d.wantTag)
	if m == nil {
		return
	}
	if m.arrival > d.now {
		d.comm += m.arrival - d.now
		d.now = m.arrival
	}
	d.recvResult = m
	d.status = stReady
}

// checkTag panics on a tag that does not fit the 32-bit half of mailKey.
func checkTag(r *rankState, tag int) {
	if tag != int(int32(tag)) {
		panic(fmt.Sprintf("vmpi: rank %d used tag %d outside the int32 range", r.id, tag))
	}
}

func (e *engine) recv(r *rankState, src, tag int) *message {
	if src != AnySource && (src < 0 || src >= len(e.ranks)) {
		panic(fmt.Sprintf("vmpi: rank %d receives from invalid rank %d", r.id, src))
	}
	checkTag(r, tag)
	if src == AnySource {
		// Wildcard receives always defer to the scheduler, even when a
		// candidate is already queued: a not-yet-issued send could still
		// arrive earlier, and only pickReady can prove none will.
		r.wantSrc, r.wantTag = src, tag
		r.status = stBlockedRecv
		if e.cal {
			// Seed the wake event at the earliest candidate arrival (if
			// any): the calendar analogue of competing in pickReady at
			// max(now, earliestAny). Later sends lower it via anyWake.
			r.anyWake = math.Inf(1)
			if arr, ok := e.earliestAny(r); ok {
				r.anyWake = arr
				at := arr
				if r.now > at {
					at = r.now
				}
				e.calPush(r, at)
			}
		}
		e.yield(r)
		m := r.recvResult
		r.recvResult = nil
		if m == nil {
			panic("vmpi: spurious wakeup")
		}
		return m
	}
	if m := e.match(r, src, tag); m != nil {
		if m.arrival > r.now {
			r.comm += m.arrival - r.now
			r.now = m.arrival
			e.yieldReady(r)
		}
		return m
	}
	r.wantSrc, r.wantTag = src, tag
	r.status = stBlockedRecv
	e.yield(r)
	m := r.recvResult
	r.recvResult = nil
	if m == nil {
		panic("vmpi: spurious wakeup")
	}
	return m
}

func (e *engine) barrier(r *rankState) {
	if e.san != nil {
		if v := e.san.EnterCollective(r.id, "Barrier", 0); v != nil {
			e.sanFail(v)
		}
	}
	e.inBarrier++
	if r.now > e.barrierMax {
		e.barrierMax = r.now
	}
	if e.inBarrier < len(e.ranks) {
		r.status = stBlockedBarrier
		e.yield(r)
		return
	}
	// Last one in: release everyone at the tree-completion time.
	cost := 2 * math.Ceil(math.Log2(float64(len(e.ranks)))) * e.barrierLat
	if len(e.ranks) == 1 {
		cost = 0
	}
	t := e.barrierMax + cost
	for _, d := range e.ranks {
		if d == r || d.status == stBlockedBarrier {
			d.comm += t - d.now
			d.now = t
			if d != r {
				d.status = stReady
				if e.cal {
					e.calPush(d, t)
				}
			}
		}
	}
	e.inBarrier = 0
	e.barrierMax = 0
	if e.san != nil {
		// A barrier synchronizes everyone: merge the vector clocks so
		// traffic after the barrier is ordered behind everything before it.
		e.san.SyncAll()
	}
}

// computeTime evaluates work w for rank r including threads, compiler
// factor, pinning penalty, boot-cpuset interference and injected faults.
func (e *engine) computeTime(r *rankState, w machine.Work) float64 {
	var t float64
	total := e.place.N()
	l := e.slot(r.id, 0)
	if e.threads == 1 {
		//detlint:allow floatcmp BusScale returns the stored scale verbatim, with 1 as the exact no-fault sentinel
		if bs := e.faults.BusScale(l.Node, e.cfg.Cluster.Bus(l)); bs != 1 {
			// A degraded memory bus reshapes the roofline rather than
			// inflating the whole phase: compute-bound work rides it out.
			t = e.cfg.Cluster.ComputeTimeDegraded(w, l, e.place.BusShare(r.id), bs)
		} else {
			t = e.place.ComputeTime(r.id, w)
		}
		t *= pinning.MemPenalty(e.cfg.Pin, 1, total)
	} else {
		o := e.cfg.OMP
		o.Method = e.cfg.Pin
		t = omp.ModelTime(e.subPlace[r.id], w, o, total)
	}
	t *= e.computeFac * e.bootFactor
	// OS-jitter faults steal cycles across the board; a hybrid rank is
	// dragged by its slowest thread slot (its parallel regions barrier).
	jf := e.faults.CPUFactor(l)
	for th := 1; th < e.threads; th++ {
		if f := e.faults.CPUFactor(e.slot(r.id, th)); f > jf {
			jf = f
		}
	}
	// Stochastic noise perturbs last, on top of every deterministic
	// factor: the rank's jitter stream advances exactly once per compute
	// event (per-rank program order, so both engines and every scheduler
	// interleaving replay identical draws), and the daemon window is a
	// square wave of the rank's own virtual clock. Elapse is exempt —
	// fixed costs model I/O and setup, not CPU time a daemon could steal.
	return e.noise.Perturb(r.id, r.now, t*jf)
}

func (e *engine) result() Result {
	res := Result{Stats: make([]RankStats, len(e.ranks))}
	for i, r := range e.ranks {
		res.Stats[i] = RankStats{Compute: r.compute, Comm: r.comm, Finish: r.now}
		if r.now > res.Time {
			res.Time = r.now
		}
		if r.comm > res.MaxComm {
			res.MaxComm = r.comm
		}
		if r.compute > res.MaxCompute {
			res.MaxCompute = r.compute
		}
		res.AvgComm += r.comm
		res.AvgCompute += r.compute
	}
	res.AvgComm /= float64(len(e.ranks))
	res.AvgCompute /= float64(len(e.ranks))
	return res
}
