package vmpi

import "columbia/internal/vmpi/calendar"

// engineScratch is the allocation-heavy state of one engine run — rank
// records (with their mailbox maps, pending lists and mailbox storage), the pooled message free list, the event calendar and the
// per-node occupancy clocks. A fresh engine used to rebuild all of it per
// run, which put ~2M short-lived objects per sweep point on the GC; now a
// completed run resets and recycles its scratch instead, so a steady-state
// sweep worker re-runs configurations almost entirely inside warm storage.
//
// Scratches travel through a calendar.SharedPool: a run owns its scratch
// exclusively from newEngine until recycle, so concurrent sweep workers
// each operate on private storage and never bounce cache lines through
// per-message shared state — the pool's lock is taken twice per run, not
// per operation. Only clean completions recycle; errored or canceled runs
// drop theirs, because their mailboxes are not provably quiescent.
type engineScratch struct {
	// ranks grows monotonically; a run slices off the prefix it needs, so
	// the mail maps and mailbox queues of past runs stay warm. Rank ids equal indices and never change.
	ranks []*rankState
	// msgs pools message structs across runs as well as within one.
	msgs calendar.FreeList[message]
	// heap is the event calendar; Reset keeps its storage.
	heap calendar.Heap
	// linkBusy and fabricBusy are the per-node FCFS occupancy clocks,
	// re-zeroed (and regrown if the cluster is bigger) per run.
	linkBusy   []float64
	fabricBusy []float64
	// Mailbox and payload arenas. A big run creates hundreds of thousands
	// of (source, tag) mailboxes and payload copies, and each private
	// worker scratch pays that bill again — carving them from chunked
	// slabs turns three allocations per mailbox (struct, first-push
	// backing, payload copy) into a handful per chunk. qslab and pslab are
	// the uncarved tails of the current mailbox-struct and seed-backing
	// chunks; fslab is the uncarved tail of the payload chunk. Carved
	// regions are owned by their mailbox or receiving program and are
	// never reclaimed by the arena, so only the tails are reused across
	// runs.
	qslab []msgq
	pslab []*message
	fslab []float64
}

const (
	// qslabChunk is how many mailbox structs (and their seed windows) are
	// allocated per slab refill.
	qslabChunk = 128
	// msgqSeed is the per-mailbox backing window: most mailboxes never
	// hold more than a couple of in-flight messages, and one that does
	// simply grows out of the window via append.
	msgqSeed = 2
	// fslabChunk is the payload slab refill size in float64s.
	fslabChunk = 4096
)

// newMsgq carves a fresh mailbox from the scratch's arena and seeds it
// with a msgqSeed-capacity backing window so its first pushes are free.
func (s *engineScratch) newMsgq() *msgq {
	if len(s.qslab) == 0 {
		s.qslab = make([]msgq, qslabChunk)
	}
	q := &s.qslab[0]
	s.qslab = s.qslab[1:]
	if len(s.pslab) < msgqSeed {
		s.pslab = make([]*message, qslabChunk*msgqSeed)
	}
	q.Reserve(s.pslab[:0:msgqSeed])
	s.pslab = s.pslab[msgqSeed:]
	return q
}

// copyPayload copies a send's payload into a region carved from the float
// slab. Ownership of the copy transfers to the receiving program exactly as
// with a standalone allocation — the region is capped at its length, so a
// receiver that appends reallocates instead of clobbering a neighbour.
// Returns nil for an empty payload, matching append's behaviour, which
// differential tests observe.
func (s *engineScratch) copyPayload(data []float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	if len(s.fslab) < len(data) {
		n := fslabChunk
		if len(data) > n {
			n = len(data)
		}
		s.fslab = make([]float64, n)
	}
	buf := s.fslab[:len(data):len(data)]
	s.fslab = s.fslab[len(data):]
	copy(buf, data)
	return buf
}

// scratchPool recycles engineScratch values across runs and workers.
var scratchPool calendar.SharedPool[engineScratch]

// acquireScratch draws a scratch — from the run's arena when it has one,
// else the process-wide pool — and readies it for a run of procs ranks on
// a cluster of nodes boxes. Missing rank records are created; existing ones
// are reset but keep their mailbox storage.
//
//perflint:pooled the scratch pool owns the per-rank records; growing them here is how reuse amortizes them
func acquireScratch(a *Arena, procs, nodes int) *engineScratch {
	s := a.take()
	if s == nil {
		s = scratchPool.Get()
	}
	for len(s.ranks) < procs {
		s.ranks = append(s.ranks, &rankState{
			id:   len(s.ranks),
			mail: make(map[uint64]*msgq),
		})
	}
	for _, r := range s.ranks[:procs] {
		r.reset()
	}
	s.heap.Reset()
	s.linkBusy = resetFloats(s.linkBusy, nodes)
	s.fabricBusy = resetFloats(s.fabricBusy, nodes)
	return s
}

// recycle drains the run's leftover state back into the scratch and returns
// it to the pool. Only called after a clean completion, when every rank
// coroutine has finished: unmatched messages may legally remain queued (the
// sanitizer is what forbids them, and it fails the run instead), so each
// rank's pending mailboxes are emptied — never by ranging the mail map —
// and the structs go back to the free list with payloads dropped, so no
// stale data or pending entry can leak into a later run.
func (e *engine) recycle() {
	s := e.scr
	if s == nil {
		return
	}
	e.scr = nil
	for _, r := range e.ranks {
		for i, q := range r.pending {
			for q.Len() > 0 {
				m := q.Pop()
				m.data = nil
				s.msgs.Put(m)
			}
			r.pending[i] = nil
		}
		r.pending = r.pending[:0]
		r.recvResult = nil
		r.next, r.stop, r.park = nil, nil, nil
		// The comm points at this engine; a pooled record must not pin it
		// (and its sanitizer clocks) until a later run overwrites it.
		r.api = comm{}
	}
	// Scratches go home: an arena-backed run refills its own arena so the
	// worker's next leaf reuses the same family-shaped state, and only
	// arena-less (or surplus concurrent) runs feed the process-wide pool.
	if !e.arena.put(s) {
		scratchPool.Put(s)
	}
}

// reset readies a pooled rank record for its next run. mail and pending are
// deliberately kept: recycle drained both, and reusing the mailboxes is
// most of the win. id is immutable across runs.
func (r *rankState) reset() {
	r.now = 0
	r.compute = 0
	r.comm = 0
	r.status = stReady
	r.wantSrc = 0
	r.wantTag = 0
	r.recvResult = nil
	r.seq = 0
	r.anyWake = 0
}

// resetFloats returns s resized to n elements, all zero, reusing capacity.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
