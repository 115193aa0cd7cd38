// RecvAny determinism regressions: the wildcard match is the
// (arrival time, source rank) minimum over the whole message timeline, so
// racing sends resolve identically no matter what order the engine executed
// them in — and no matter how many sweep workers replay the run. The
// package is vmpi_test so it can drive runs through the sweep pool, which
// itself is built on vmpi fingerprints.
package vmpi_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

type anyReceiver interface {
	RecvAny(tag int) (int, []float64)
}

func singleNode(procs int) vmpi.Config {
	return vmpi.Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: procs}
}

// TestRecvAnyMatchesEarliestArrival: the source whose message arrives first
// in virtual time wins, regardless of which rank issued its send first in
// execution order.
func TestRecvAnyMatchesEarliestArrival(t *testing.T) {
	run := func(slowRank int) []int {
		var srcs []int
		res, err := vmpi.TryRun(singleNode(3), func(c par.Comm) {
			switch c.Rank() {
			case 0:
				ar := c.(anyReceiver)
				for i := 0; i < 2; i++ {
					s, _ := ar.RecvAny(7)
					srcs = append(srcs, s)
				}
			case slowRank:
				c.Compute(machine.Work{Flops: 1e9, Efficiency: 1}) // send late
				c.SendBytes(0, 7, 64)
			default:
				c.SendBytes(0, 7, 64) // send at t=0
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Time <= 0 {
			t.Fatalf("degenerate run: %+v", res)
		}
		return srcs
	}
	if got := run(2); got[0] != 1 || got[1] != 2 {
		t.Errorf("slow rank 2: matched %v, want [1 2] (earliest arrival first)", got)
	}
	// Swap which sender is delayed: the match must follow the timeline, not
	// the rank ids.
	if got := run(1); got[0] != 2 || got[1] != 1 {
		t.Errorf("slow rank 1: matched %v, want [2 1] (earliest arrival first)", got)
	}
}

// TestRecvAnyTieBreaksByLowestRank: identical sends issued at the same
// virtual time arrive together; the tie resolves to the lowest source rank,
// so even a true race (which the sanitizer would flag) replays identically.
func TestRecvAnyTieBreaksByLowestRank(t *testing.T) {
	var srcs []int
	_, err := vmpi.TryRun(singleNode(4), func(c par.Comm) {
		if c.Rank() == 0 {
			ar := c.(anyReceiver)
			for i := 0; i < 3; i++ {
				s, _ := ar.RecvAny(9)
				srcs = append(srcs, s)
			}
		} else {
			c.SendBytes(0, 9, 256)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(srcs) != "[1 2 3]" {
		t.Errorf("tied arrivals matched as %v, want [1 2 3]", srcs)
	}
}

// racingTranscript runs the racing-senders program once and renders
// everything observable about it — match order and the full timing result —
// into one string.
func racingTranscript() string {
	var srcs []int
	res, err := vmpi.TryRun(singleNode(6), func(c par.Comm) {
		if c.Rank() == 0 {
			ar := c.(anyReceiver)
			for i := 0; i < 5; i++ {
				s, _ := ar.RecvAny(11)
				srcs = append(srcs, s)
			}
		} else {
			c.Compute(machine.Work{Flops: float64(c.Rank()%3) * 1e8, Efficiency: 1})
			c.SendBytes(0, 11, 1024)
		}
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("srcs=%v time=%.17g comm=%.17g", srcs, res.Time, res.MaxComm)
}

// TestRecvAnyTranscriptIdenticalAcrossWorkers is the -j regression: the
// same racing program submitted through 1-worker and 8-worker sweep pools
// produces byte-identical transcripts. Before the deferred-match rework the
// winner depended on send execution order, which worker scheduling could
// perturb.
func TestRecvAnyTranscriptIdenticalAcrossWorkers(t *testing.T) {
	const points = 12
	transcripts := func(workers int) string {
		p := sweep.NewPool(workers)
		var fs []sweep.Future[string]
		for i := 0; i < points; i++ {
			fs = append(fs, sweep.Cached(p, fmt.Sprintf("recvany-%d", i),
				racingTranscript))
		}
		return strings.Join(sweep.Collect(fs), "\n")
	}
	serial := transcripts(1)
	parallel := transcripts(8)
	if serial != parallel {
		t.Fatalf("transcripts diverge between -j 1 and -j 8\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	// All points ran the identical program, so every transcript line must
	// also agree with the first — a second, stricter determinism check.
	lines := strings.Split(serial, "\n")
	for i, l := range lines {
		if l != lines[0] {
			t.Fatalf("point %d diverged:\n%s\nvs\n%s", i, l, lines[0])
		}
	}
}

// TestRecvAnyExactTiesMixedTags: three senders on one brick send a tag-8
// and then a tag-7 message at the same virtual instants, so each tag's
// three arrivals tie exactly (asserted: the receiver's clock does not move
// between matches). The receiver's pending list interleaves both tags, and
// every drained box is swap-deleted, so after the first match the tied
// boxes no longer sit in source order — the lowest source must still win
// every tie, on both engines.
func TestRecvAnyExactTiesMixedTags(t *testing.T) {
	cfg := vmpi.Config{Cluster: machine.NewSingleNode(machine.AltixBX2b), Procs: 8}
	senders := []int{2, 3, 4} // one brick, one hop from rank 0's bus
	run := func(ctx context.Context) string {
		var got []string
		res, err := vmpi.RunCtx(ctx, cfg, func(c par.Comm) {
			switch c.Rank() {
			case 0:
				ar := c.(anyReceiver)
				for _, tag := range []int{8, 7} {
					var srcs []int
					var at []float64
					for range senders {
						s, _ := ar.RecvAny(tag)
						srcs = append(srcs, s)
						at = append(at, c.Now())
					}
					if at[0] != at[1] || at[1] != at[2] {
						t.Errorf("tag %d: arrivals %v are not an exact tie; the test no longer exercises the tie-break", tag, at)
					}
					got = append(got, fmt.Sprintf("tag%d=%v", tag, srcs))
				}
			case 2, 3, 4:
				c.SendBytes(0, 8, 512)
				c.SendBytes(0, 7, 512)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s time=%.17g", strings.Join(got, " "), res.Time)
	}
	cal := run(context.Background())
	ref := run(vmpi.WithReferenceEngine(context.Background()))
	if cal != ref {
		t.Errorf("engines disagree:\n calendar:  %s\n reference: %s", cal, ref)
	}
	if !strings.HasPrefix(cal, "tag8=[2 3 4] tag7=[2 3 4] ") {
		t.Errorf("tied wildcard matches = %s, want the lowest source first for both tags", cal)
	}
}
