// Package vmpi (fixture) exercises rankscale: O(ranks) make/append/go
// sites must be pooled, budgeted, or flagged. The test instance budgets
// exactly one site in budgeted().
package vmpi

import "iter"

type config struct{ Procs int }

func worker(i int) { _ = i }

func direct(cfg config) []int {
	return make([]int, cfg.Procs) // want `rankscale: .*make sized by the rank count`
}

func viaLocal(cfg config) []byte {
	n := cfg.Procs * 8
	return make([]byte, n) // want `rankscale: .*make sized by the rank count`
}

func perRankLoop(nranks int, data []int) []int {
	var out []int
	for i := 0; i < nranks; i++ {
		out = append(out, data[i%len(data)]) // want `rankscale: .*append growing once per rank`
		go worker(i)                         // want `rankscale: .*goroutine started once per rank`
	}
	return out
}

// perRankCoroutines: iter.Pull in a rank loop starts one coroutine per
// rank, exactly like a go statement; outside the loop it is a single site
// and silent.
func perRankCoroutines(ranks []int) []func() (int, bool) {
	var nexts []func() (int, bool)
	for range ranks {
		next, _ := iter.Pull(func(yield func(int) bool) { yield(0) }) // want `rankscale: .*coroutine started once per rank`
		nexts = append(nexts, next)                                   // want `rankscale: .*append growing once per rank`
	}
	once, _ := iter.Pull(func(yield func(int) bool) {})
	return append(nexts, once)
}

// inductionSized: the loop induction variable i is itself rank-scaled, so
// a buffer sized by it is a rank-sized allocation even though nranks never
// appears in the make.
func inductionSized(nranks int) [][]byte {
	var bufs [][]byte
	for i := 0; i < nranks; i++ {
		bufs = append(bufs, make([]byte, i)) // want `rankscale: .*append growing once per rank` `rankscale: .*make sized by the rank count`
	}
	return bufs
}

// rankRange: ranging over a rank-sized container is a rank-count trip.
func rankRange(ranks []int) []int {
	var out []int
	for _, r := range ranks {
		out = append(out, r*2) // want `rankscale: .*append growing once per rank`
	}
	return out
}

// fixedSize allocates independently of the rank count: silent.
func fixedSize() []int {
	return make([]int, 64)
}

// dataLoop iterates a non-rank container: silent.
func dataLoop(data []int) int {
	s := 0
	for _, v := range data {
		s += v
	}
	return s
}

// rankArena owns the per-rank slabs; the annotation is the exemption —
// arenas exist to hold exactly these allocations.
//
//perflint:pooled the arena owns all rank-sized slabs by design
func rankArena(nranks int) [][]byte {
	slabs := make([][]byte, nranks)
	for i := range slabs {
		slabs[i] = make([]byte, 128)
	}
	return slabs
}

// budgeted carries a committed budget of 1: the first site passes, the
// second is over budget.
func budgeted(nranks int) ([]int, []int) {
	a := make([]int, nranks)
	b := make([]int, nranks) // want `rankscale: .*site 2 of 2, budget 1`
	return a, b
}

// allowed demonstrates the suppression protocol.
func allowed(nranks int) []int {
	//detlint:allow rankscale bounded by the small fixture configs
	return make([]int, nranks)
}
