package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"columbia/internal/machine"
	"columbia/internal/md"
	"columbia/internal/npb"
	"columbia/internal/par"
	"columbia/internal/vmpi"
)

// engineCase is one direct vmpi.RunCtx run of the engine-ranks ladder. The
// cases are a few very large runs — unlike the paper's many small points —
// and anysrc2048 drives the wildcard match that no paper experiment calls.
type engineCase struct {
	name string
	cfg  vmpi.Config
	fn   func(par.Comm)
	// msgs is the exact number of point-to-point messages a run sends.
	msgs int64
	// check validates a run's result against the stored outcome.
	check func(vmpi.Result) error
}

// want is a stored engine outcome: a change to the engine must leave these
// bit-identical.
type want struct{ time, maxComm, maxCompute float64 }

func (w want) check(r vmpi.Result) error {
	if r.Time != w.time || r.MaxComm != w.maxComm || r.MaxCompute != w.maxCompute {
		return fmt.Errorf("result (time %v, max comm %v, max compute %v), stored (%v, %v, %v)",
			r.Time, r.MaxComm, r.MaxCompute, w.time, w.maxComm, w.maxCompute)
	}
	return nil
}

// Stored outcomes and message counts of the deterministic cases.
var (
	wantMD2048 = want{3.7723891719909997, 0.02162926281656063, 3.7507599091744384}
	wantMD8192 = want{4.113259805594015, 0.27533411974762817, 4.000810569786068}
	wantFT256  = want{0.25997445750755155, 0.10159579084088421, 0.15837866666666667}
)

const (
	// md.SkeletonSteps steps of a six-face exchange on every rank.
	msgsMD2048 = 3 * 6 * 2048
	msgsMD8192 = 3 * 6 * 8192
	// npb.SkeletonIters iterations of an alltoall (P-1 sends per rank) and
	// a recursive-doubling allreduce (log2 P sends per rank).
	msgsFT256 = 4 * 256 * (255 + 8)
)

// anysrcTag is the tag of the anysrc2048 fan-in.
const anysrcTag = 7

// anyReceiver is the optional wildcard receive of simulated comms.
type anyReceiver interface {
	RecvAny(tag int) (int, []float64)
}

// engineCaseNames are the cases of newEngineCases, in order.
var engineCaseNames = []string{"md2048", "md8192", "ft256", "anysrc2048"}

// newEngineCases builds the ladder. seed draws the per-sender virtual
// pre-send delays of anysrc2048, which set the fan-in's arrival order.
func newEngineCases(seed int64) []*engineCase {
	w := md.PaperWeakScaling()
	ftFn, _ := npb.Skeleton("FT", npb.ClassC, 256)
	return []*engineCase{
		{
			name:  "md2048",
			cfg:   vmpi.Config{Cluster: machine.NewBX2bQuad(), Procs: 2048, Nodes: 4},
			fn:    w.Skeleton(2048),
			msgs:  msgsMD2048,
			check: wantMD2048.check,
		},
		{
			name:  "md8192",
			cfg:   vmpi.Config{Cluster: machine.NewColumbia(), Procs: 8192, Nodes: 16},
			fn:    w.Skeleton(8192),
			msgs:  msgsMD8192,
			check: wantMD8192.check,
		},
		{
			name:  "ft256",
			cfg:   vmpi.Config{Cluster: machine.NewSingleNode(machine.AltixBX2b), Procs: 256},
			fn:    ftFn,
			msgs:  msgsFT256,
			check: wantFT256.check,
		},
		anySourceCase(seed, 2048),
	}
}

// anySourceCase has every rank but 0 compute for a seeded time and then
// send to rank 0, which takes the messages with RecvAny. Its check is that
// rank 0 heard from every sender exactly once.
func anySourceCase(seed int64, procs int) *engineCase {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xa5))
	delays := make([]float64, procs)
	for r := 1; r < procs; r++ {
		delays[r] = rng.Float64() * 1e7 // flops: up to ~1.6 ms of virtual time
	}
	var seen []int
	c := &engineCase{
		name: fmt.Sprintf("anysrc%d", procs),
		cfg:  vmpi.Config{Cluster: machine.NewBX2bQuad(), Procs: procs, Nodes: 4},
		msgs: int64(procs - 1),
	}
	c.fn = func(comm par.Comm) {
		if comm.Rank() != 0 {
			comm.Compute(machine.Work{Flops: delays[comm.Rank()], Efficiency: 1})
			comm.SendBytes(0, anysrcTag, 64)
			return
		}
		got := make([]int, procs)
		ar := comm.(anyReceiver)
		for i := 1; i < procs; i++ {
			src, _ := ar.RecvAny(anysrcTag)
			if src >= 0 && src < procs {
				got[src]++
			}
		}
		seen = got
	}
	c.check = func(vmpi.Result) error {
		if len(seen) != procs {
			return fmt.Errorf("rank 0 did not finish its receives")
		}
		for src, n := range seen {
			if n != min(src, 1) {
				return fmt.Errorf("rank 0 received %d messages from rank %d, want %d", n, src, min(src, 1))
			}
		}
		seen = nil
		return nil
	}
	return c
}

// counts are the per-pass operation counts of the counting decorator.
type counts struct{ msgs, computes, barriers, collectives int64 }

func (a *counts) add(b counts) {
	a.msgs += b.msgs
	a.computes += b.computes
	a.barriers += b.barriers
	a.collectives += b.collectives
}

// countComm is a par.Comm decorator that counts the calls a rank makes and
// forwards every one unchanged, including the optional RecvAny and
// par.CollectiveAnnouncer interfaces of the simulated comm.
type countComm struct {
	par.Comm
	n counts
}

func (c *countComm) Send(dst, tag int, data []float64) {
	c.n.msgs++
	c.Comm.Send(dst, tag, data)
}

func (c *countComm) SendBytes(dst, tag int, bytes float64) {
	c.n.msgs++
	c.Comm.SendBytes(dst, tag, bytes)
}

func (c *countComm) Compute(w machine.Work) {
	c.n.computes++
	c.Comm.Compute(w)
}

func (c *countComm) Barrier() {
	c.n.barriers++
	c.Comm.Barrier()
}

func (c *countComm) RecvAny(tag int) (int, []float64) {
	return c.Comm.(anyReceiver).RecvAny(tag)
}

func (c *countComm) AnnounceCollective(kind string, operand float64) {
	c.n.collectives++
	if a, ok := c.Comm.(par.CollectiveAnnouncer); ok {
		a.AnnounceCollective(kind, operand)
	}
}

// counted decorates every rank of fn with a countComm; total sums the
// counts once the run has returned.
func counted(fn func(par.Comm), procs int) (wrapped func(par.Comm), total func() counts) {
	per := make([]*countComm, procs)
	wrapped = func(c par.Comm) {
		cc := &countComm{Comm: c}
		per[c.Rank()] = cc
		fn(cc)
	}
	total = func() counts {
		var sum counts
		for _, cc := range per {
			if cc != nil {
				sum.add(cc.n)
			}
		}
		return sum
	}
	return wrapped, total
}

// closureTol is how much of an engine-ranks pass may lie outside its cases.
const closureTol = 0.02

// engineBench is the engine-ranks workload: the cases in sequence on one
// goroutine, bypassing sweep, core and dist.
type engineBench struct {
	seed  int64
	cases []*engineCase

	caseMS, allocMB map[string][]float64
	perPass         []counts
	caseSum         []float64
	golay           goLayers
	// minCover is the smallest share of a pass its cases accounted for.
	minCover float64
}

func newEngineBench(seed int64) *engineBench {
	return &engineBench{seed: seed, caseMS: map[string][]float64{}, allocMB: map[string][]float64{}, minCover: 1}
}

// setUp builds the clusters, configurations and rank programs.
func (b *engineBench) setUp() (float64, error) {
	t0 := time.Now()
	b.cases = newEngineCases(b.seed)
	return time.Since(t0).Seconds(), nil
}

func (b *engineBench) msgsPerPass() int64 {
	var n int64
	for _, c := range b.cases {
		n += c.msgs
	}
	return n
}

func (b *engineBench) pass(tr *tracer) (passResult, error) {
	ctx := context.Background()
	p := passResult{attempted: len(b.cases)}
	root := -1
	var g0 goStats
	if tr != nil {
		root = tr.beginPass()
		g0 = readGoStats()
	}
	cpu0, t0 := selfCPU(), time.Now()
	var inCases time.Duration
	var passCounts counts
	for _, c := range b.cases {
		fn, total := c.fn, func() counts { return counts{} }
		sid := -1
		var a0 goStats
		if tr != nil {
			fn, total = counted(c.fn, c.cfg.Procs)
			sid = tr.begin("vmpi.case."+c.name, root)
			a0 = readGoStats()
		}
		c0 := time.Now()
		res, err := vmpi.RunCtx(ctx, c.cfg, fn)
		d := time.Since(c0)
		inCases += d
		if tr != nil {
			tr.end(sid)
			b.caseMS[c.name] = append(b.caseMS[c.name], float64(d)/1e6)
			b.allocMB[c.name] = append(b.allocMB[c.name], readGoStats().sub(a0).allocBytes/(1<<20))
		}
		if err == nil {
			err = c.check(res)
		}
		n := total()
		if err == nil && tr != nil && n.msgs != c.msgs {
			err = fmt.Errorf("sent %d messages, stored count %d", n.msgs, c.msgs)
		}
		passCounts.add(n)
		if err != nil {
			fmt.Printf("FAILED %s: %v\n", c.name, err)
			p.failed++
		}
	}
	wall := time.Since(t0)
	p.wall, p.cpu = wall.Seconds(), selfCPU()-cpu0
	if tr != nil {
		tr.end(root)
		b.golay.add(readGoStats().sub(g0))
		b.perPass = append(b.perPass, passCounts)
		b.caseSum = append(b.caseSum, inCases.Seconds())
	}
	cover := inCases.Seconds() / p.wall
	b.minCover = min(b.minCover, cover)
	if 1-cover > closureTol {
		fmt.Printf("FAILED closure: cases cover %.4f s of a %.4f s pass (tolerance %.0f%%)\n",
			inCases.Seconds(), p.wall, 100*closureTol)
		p.failed = p.attempted
	}
	return p, nil
}

func (b *engineBench) layers(*tracer) (map[string]float64, int) {
	m := map[string]float64{}
	for _, c := range b.cases {
		m["vmpi.case."+c.name+"_ms"] = median(b.caseMS[c.name])
		m["vmpi.case."+c.name+"_alloc_mb"] = median(b.allocMB[c.name])
	}
	if len(b.perPass) > 0 {
		n := b.perPass[0]
		m["vmpi.msgs"] = float64(n.msgs)
		m["vmpi.computes"] = float64(n.computes)
		m["vmpi.barriers"] = float64(n.barriers)
		m["par.collectives"] = float64(n.collectives)
		m["vmpi.ns_per_msg"] = median(b.caseSum) * 1e9 / float64(n.msgs)
	}
	b.golay.fill(m)
	return m, 0
}

func (b *engineBench) close() float64 { return 0 }
