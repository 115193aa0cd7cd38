package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"columbia/internal/core"
	"columbia/internal/sweep"
)

// paperIDs are the experiments of one pass, in paper order; their golden
// CSVs live in internal/core/testdata/golden.
var paperIDs = []string{"table1", "fig5", "fig6", "table2", "table3", "stride", "fig7",
	"fig8", "table4", "fig9", "fig10", "fig11", "table5", "table6", "future"}

// paperPoints is the number of distinct sweep points one cold pass computes
// (the experiments make 345 submissions; 34 of them hit the memo cache).
// paper-workers checks it on every pass, as the count of dispatched points;
// paper-inproc computes the same points and uses it for points_per_s.
const paperPoints = 311

// paperBench is the paper-inproc and paper-workers workload: every
// experiment, submitted in a seeded order on coordinator goroutines as
// cmd/columbia does, on a cold memo cache each pass.
type paperBench struct {
	remote bool
	exps   []core.Experiment // in submission order
	golden map[string]string

	fleet  *fleet // the untraced passes' workers
	tfleet *fleet // the traced passes' workers, in a traced run
	rss    float64

	spawnS  float64
	retries []float64
	golay   goLayers
}

func newPaperBench(seed int64, remote bool) (*paperBench, error) {
	b := &paperBench{remote: remote, golden: map[string]string{}}
	exps := core.Experiments()
	if len(exps) != len(paperIDs) {
		return nil, fmt.Errorf("core has %d experiments, the benchmark expects %d", len(exps), len(paperIDs))
	}
	for i, e := range exps {
		if e.ID != paperIDs[i] {
			return nil, fmt.Errorf("experiment %d is %q, the benchmark expects %q", i, e.ID, paperIDs[i])
		}
		data, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "golden", e.ID+".csv"))
		if err != nil {
			return nil, err
		}
		b.golden[e.ID] = string(data)
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	for _, i := range rng.Perm(len(exps)) {
		b.exps = append(b.exps, exps[i])
	}
	return b, nil
}

// setUp configures a fresh sweep pool of lanes lanes and, on paper-workers,
// starts a fresh fleet with both workers spawned and handshaken.
func (b *paperBench) setUp() (float64, error) {
	b.release()
	t0 := time.Now()
	sweep.Configure(context.Background(), sweep.Options{Workers: lanes})
	if b.remote {
		f, err := startFleet(lanes, nil)
		if err != nil {
			return 0, err
		}
		b.fleet = f
		core.SetDispatcher(f.meter)
	}
	return time.Since(t0).Seconds(), nil
}

// rendered is one experiment's output in the golden files' CSV form.
type rendered struct {
	id       string
	csv      string
	failures int
}

func (b *paperBench) pass(tr *tracer) (passResult, error) {
	f := b.fleet
	if b.remote && tr != nil {
		if b.tfleet == nil {
			t0 := time.Now()
			tf, err := startFleet(lanes, tr)
			if err != nil {
				return passResult{}, err
			}
			b.spawnS = time.Since(t0).Seconds()
			b.tfleet = tf
		}
		f = b.tfleet
	}
	if f != nil {
		core.SetDispatcher(f.meter)
	}
	sweep.ResetCache()
	pool := sweep.Default()
	retries0 := pool.Stats().Retries
	var points0 int64
	var crashes0 int64
	workerCPU0 := 0.0
	if f != nil {
		points0, crashes0, workerCPU0 = f.meter.points.Load(), f.sup.Stats().Crashes, f.workerCPU()
	}
	root := -1
	var g0 goStats
	if tr != nil {
		root = tr.beginPass()
		if f != nil {
			f.meter.root = root
		}
		g0 = readGoStats()
	}
	cpu0, t0 := selfCPU(), time.Now()

	futs := make([]sweep.Future[rendered], len(b.exps))
	for i, e := range b.exps {
		futs[i] = sweep.Go(pool, func() rendered { return runExperiment(e, tr, root) })
	}
	outs := sweep.Collect(futs)

	p := passResult{wall: time.Since(t0).Seconds(), attempted: paperPoints}
	p.cpu = selfCPU() - cpu0
	if tr != nil {
		tr.end(root)
		b.golay.add(readGoStats().sub(g0))
		b.retries = append(b.retries, float64(pool.Stats().Retries-retries0))
	}
	for _, r := range outs {
		bad := max(r.failures, diffLines(b.golden[r.id], r.csv))
		if bad > 0 {
			fmt.Printf("FAILED %s: %d degraded or mismatched lines against its golden CSV\n", r.id, bad)
		}
		p.failed += bad
	}
	if f != nil {
		p.cpu += f.workerCPU() - workerCPU0
		if n := f.meter.points.Load() - points0; n != paperPoints {
			fmt.Printf("FAILED dispatch: %d points dispatched, %d submitted\n", n, paperPoints)
			p.failed += max(1, abs(int(n)-paperPoints))
		}
		if n := f.sup.Stats().Crashes - crashes0; n > 0 {
			fmt.Printf("FAILED fleet: %d worker crashes\n", n)
			p.failed += int(n)
		}
	}
	p.failed = min(p.failed, p.attempted)
	return p, nil
}

// runExperiment runs one experiment and renders it as its golden file
// does, timing Experiment.Run and Table.CSV as spans under root.
func runExperiment(e core.Experiment, tr *tracer, root int) rendered {
	sid := -1
	if tr != nil {
		sid = tr.begin("core.exp."+e.ID, root)
	}
	tables := e.Run()
	if tr != nil {
		tr.end(sid)
		sid = tr.begin("report.render", root)
	}
	r := rendered{id: e.ID}
	var sb strings.Builder
	for _, t := range tables {
		sb.WriteString("# " + t.Title + "\n")
		sb.WriteString(t.CSV())
		sb.WriteByte('\n')
		r.failures += t.Failures
	}
	if tr != nil {
		tr.end(sid)
	}
	r.csv = sb.String()
	return r
}

// diffLines counts the lines where got differs from want.
func diffLines(want, got string) int {
	if want == got {
		return 0
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := abs(len(wl) - len(gl))
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			n++
		}
	}
	return max(n, 1)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (b *paperBench) layers(tr *tracer) (map[string]float64, int) {
	m := map[string]float64{}
	for _, id := range paperIDs {
		m["core.exp."+id+"_s"] = median(tr.perPass("core.exp." + id))
	}
	m["report.render_ms"] = median(tr.perPass("report.render")) * 1e3
	m["sweep.retries"] = median(b.retries)
	b.golay.fill(m)
	if b.tfleet == nil {
		return m, 0
	}
	f := b.tfleet
	b.tfleet = nil
	st := f.sup.Stats()
	rep := f.close()
	b.rss = max(b.rss, rep.peakRSS)
	passes := float64(tr.passes())
	failed := 0
	execS, busyMax, points := 0.0, 0.0, 0
	for _, t := range rep.totals {
		execS += t.ExecS
		busyMax = max(busyMax, t.ExecS)
		points += t.Points
	}
	dispatched := f.meter.points.Load()
	if int64(points) != dispatched || rep.spawned != lanes {
		fmt.Printf("FAILED fleet: workers executed %d points of %d dispatched, %d workers spawned for %d lanes\n",
			points, dispatched, rep.spawned, lanes)
		failed++
	}
	doS := median(tr.perPass("dist.do"))
	dos := tr.durations("dist.do")
	m["dist.points"] = float64(dispatched) / passes
	m["dist.do_s"] = doS
	m["dist.exec_s"] = execS / passes
	m["dist.overhead_s"] = doS - execS/passes
	m["dist.spec_bytes"] = float64(f.meter.specBytes) / passes
	m["dist.reply_bytes"] = float64(f.meter.replyBytes) / passes
	m["dist.crashes"] = float64(st.Crashes) / passes
	m["dist.restarts"] = float64(st.Restarts) / passes
	m["dist.do_p50_ms"] = quantile(dos, 0.50) * 1e3
	m["dist.do_p95_ms"] = quantile(dos, 0.95) * 1e3
	m["dist.lane_busy_max_s"] = busyMax / passes
	if execS > 0 {
		m["dist.lane_imbalance"] = busyMax / (execS / float64(len(rep.totals)))
	}
	m["dist.spawn_s"] = b.spawnS
	return m, failed
}

// release shuts down the current fleet, if any.
func (b *paperBench) release() {
	if b.fleet == nil {
		return
	}
	core.SetDispatcher(nil)
	rep := b.fleet.close()
	b.rss = max(b.rss, rep.peakRSS)
	b.fleet = nil
}

func (b *paperBench) close() float64 {
	b.release()
	if b.tfleet != nil {
		b.rss = max(b.rss, b.tfleet.close().peakRSS)
		b.tfleet = nil
	}
	return b.rss
}
