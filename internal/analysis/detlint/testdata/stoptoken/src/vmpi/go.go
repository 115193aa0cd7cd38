// Package vmpi (fixture) exercises stoptoken: every goroutine in
// non-test files must reference the rank stop token, directly or through
// a stop-aware callee, and so must every function handed to iter.Pull.
package vmpi

import "iter"

// stopToken mirrors the real engine's shutdown panic value.
type stopToken struct{}

type engine struct {
	stopping bool
	parked   chan int
}

// runRank is stop-aware: it panics with stopToken when asked to unwind.
func (e *engine) runRank(id int) {
	if e.stopping {
		panic(stopToken{})
	}
	e.parked <- id
}

// drain never consults the token.
func (e *engine) drain() {
	for range e.parked {
	}
}

func (e *engine) start() {
	// Direct reference in the literal body.
	go func() {
		if e.stopping {
			panic(stopToken{})
		}
		e.parked <- 0
	}()
	// Stop-aware through a callee.
	go func() {
		e.runRank(1)
	}()
	// Named stop-aware method.
	go e.runRank(2)
	// Neither: leaks past shutdown.
	go e.drain() // want `stoptoken: goroutine started without referencing the rank stop token`
	go func() {  // want `stoptoken: goroutine started without referencing the rank stop token`
		e.parked <- 3
	}()
	// Justified fire-and-forget.
	//detlint:allow stoptoken metrics flush, exits with the process
	go func() {
		e.parked <- 4
	}()
	// The only token mention sits after an unconditional return: the CFG
	// rebase sees it is unreachable and still flags the goroutine.
	go func() { // want `stoptoken: goroutine started without referencing the rank stop token`
		e.parked <- 5
		return
		if e.stopping {
			panic(stopToken{})
		}
	}()
}

// Coroutines are rank stacks too: the function handed to iter.Pull must be
// stop-aware exactly like a goroutine body.
func (e *engine) coroutines() {
	// Stop-aware: a stopped park unwinds through the token.
	next, stop := iter.Pull(func(park func(int) bool) {
		if !park(0) {
			panic(stopToken{})
		}
	})
	next()
	stop()
	// Named stop-aware function value.
	next2, stop2 := iter.Pull(e.parkRank)
	next2()
	stop2()
	// Ignores stop: keeps yielding after the engine shut it down.
	next3, stop3 := iter.Pull(func(park func(int) bool) { // want `stoptoken: coroutine started without referencing the rank stop token`
		for i := 0; ; i++ {
			park(i)
		}
	})
	next3()
	stop3()
	// Pull2 coroutines are checked alike.
	next4, stop4 := iter.Pull2(func(park func(int, int) bool) { // want `stoptoken: coroutine started without referencing the rank stop token`
		park(0, 1)
	})
	next4()
	stop4()
}

// parkRank parks once and unwinds if stopped.
func (e *engine) parkRank(park func(int) bool) {
	if !park(1) {
		panic(stopToken{})
	}
}
