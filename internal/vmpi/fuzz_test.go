package vmpi

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

// fuzzOps caps the interpreted program length so every generated run
// terminates quickly; a deadlocking program is detected, not waited out.
const fuzzOps = 64

// fuzzProgram interprets a byte string as a small SPMD rank program over
// sends, receives (directed and wildcard), barriers, ring shifts and
// compute. Every rank runs the same op list, but destinations, tags and
// byte counts are rank- and argument-dependent, so the generated traffic
// exercises eager directed completion, deferred wildcard matching, FIFO
// mailbox order, mismatched tags (deadlocks) and unmatched sends
// (sanitizer findings). The interpreter never panics: panic stacks embed
// goroutine ids, which are not comparable across runs. Every wildcard
// match's source is appended to *matched (ranks run one at a time), so a
// tie broken the wrong way shows even when the timing cannot.
func fuzzProgram(ops []byte, matched *[]int) func(par.Comm) {
	return func(c par.Comm) {
		rank, size := c.Rank(), c.Size()
		clock := c.(Clock)
		any := c.(interface{ RecvAny(int) (int, []float64) })
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			switch op {
			case 0: // compute: ranks drift apart by different amounts
				clock.Elapse(float64(arg%16+1+rank) * 1e-6)
			case 1: // directed send, possibly to self, tag from arg
				c.SendBytes(arg%size, arg%4, float64(arg+1)*64)
			case 2: // directed receive; mismatched traffic deadlocks
				c.RecvBytes(arg%size, arg%4)
			case 3: // barrier: aligned, every rank runs the same list
				c.Barrier()
			case 4: // ring shift with payload: always matched
				c.Send((rank+1)%size, 9, []float64{float64(rank), float64(arg)})
				c.Recv((rank+size-1)%size, 9)
			case 5: // gather to rank 0 via wildcard receives
				if rank == 0 {
					for s := 1; s < size; s++ {
						src, _ := any.RecvAny(7)
						*matched = append(*matched, src)
					}
				} else {
					c.SendBytes(0, 7, float64(arg%256+1)*8)
				}
			}
		}
	}
}

// runFuzzProgram runs one interpreted program — on the reference engine
// when reference is set, the calendar engine otherwise — and renders the
// outcome to a canonical string: the error text on failure, or the
// wildcard match order and the bit-exact per-rank statistics on success
// (hex float bits, so even a one-ULP timing divergence between engines is
// caught).
func runFuzzProgram(program []byte, reference, sanitize bool) string {
	procs := 2 + int(program[0])%6
	ops := program[1:]
	if len(ops) > 2*fuzzOps {
		ops = ops[:2*fuzzOps]
	}
	cfg := Config{
		Cluster:  machine.NewSingleNode(machine.Altix3700),
		Procs:    procs,
		Sanitize: sanitize,
	}
	ctx := context.Background()
	if reference {
		ctx = WithReferenceEngine(ctx)
	}
	var matched []int
	res, err := RunCtx(ctx, cfg, fuzzProgram(ops, &matched))
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "wildcard=%v time=%016x", matched, math.Float64bits(res.Time))
	for i, s := range res.Stats {
		fmt.Fprintf(&b, "\nrank %d: compute=%016x comm=%016x finish=%016x",
			i, math.Float64bits(s.Compute), math.Float64bits(s.Comm), math.Float64bits(s.Finish))
	}
	return b.String()
}

// FuzzEngineEquivalence generates random small rank programs and requires
// the calendar and reference engines to agree bit-for-bit on the outcome —
// per-rank statistics on success, the full error text (deadlock
// enumerations, wait-for chains, sanitizer violations) on failure — both
// plain and under the communication sanitizer. The seeded corpus under
// testdata/fuzz covers every op the interpreter knows, so a plain `go
// test` run replays the interesting shapes without requiring -fuzz.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0})                                  // trivial: ranks finish immediately
	f.Add([]byte{2, 0, 5, 1, 9, 3, 3})                // compute drift + aligned barriers
	f.Add([]byte{4, 4, 0, 4, 17, 4, 250})             // ring shifts with payload
	f.Add([]byte{6, 5, 0, 0, 3, 5, 11})               // wildcard gather between compute drift
	f.Add([]byte{3, 1, 5, 0, 2, 2, 5})                // crossing directed sends and recvs
	f.Add([]byte{5, 2, 9})                            // recv with no send: deadlock
	f.Add([]byte{4, 1, 6, 3, 128})                    // unmatched send, then barrier
	f.Add([]byte{7, 5, 1, 5, 2, 0, 7, 3, 3, 4, 42})   // gathers, compute, barrier, ring
	f.Add([]byte{2, 1, 2, 2, 2, 0, 9, 4, 3, 1, 255})  // send/recv pairs with tag collisions
	f.Add([]byte{8, 0, 1, 5, 200, 3, 0, 5, 3, 2, 17}) // wide ranks: gather + deadlock mix
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			t.Skip()
		}
		for _, sanitize := range []bool{false, true} {
			cal := runFuzzProgram(program, false, sanitize)
			ref := runFuzzProgram(program, true, sanitize)
			if cal != ref {
				t.Fatalf("engines disagree (sanitize=%v) on program %v\n--- calendar ---\n%s\n--- reference ---\n%s",
					sanitize, program, cal, ref)
			}
		}
	})
}
