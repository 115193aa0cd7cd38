//go:build go1.23

// iter.Pull is Go 1.23 API while go.mod still declares go 1.22; the build
// constraint raises this file's language version so vet's stdversion check
// accepts it.

package vmpi

import (
	"iter"

	"columbia/internal/par"
)

// spawn creates one coroutine per rank, suspended until the run loop's first
// r.next(). The coroutines are the rank programs' stacks under both
// engines; they differ only in who picks the next rank when one parks or
// exits (yield, rankExit). Stopping a coroutine that never ran skips the
// rank program entirely; stopping a parked one makes its park report false
// and the rank unwinds through stopToken.
func (e *engine) spawn(fn func(par.Comm)) {
	for _, r := range e.ranks {
		r.next, r.stop = iter.Pull(func(park func(struct{}) bool) {
			defer e.rankExit(r)
			r.park = park
			r.api = comm{e: e, r: r}
			fn(&r.api)
		})
	}
}
