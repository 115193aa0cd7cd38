// Command perfbench is the repository's benchmark: it regenerates the paper
// in-process and over supervised worker processes, and runs a ladder of
// large direct engine cases, checking every output against stored results.
//
// Run it through the wrapper, which builds this package first:
//
//	python3 perfbench/run.py --workload paper-inproc --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	paper-inproc   every experiment, seeded submission order, 2 sweep lanes
//	paper-workers  the same points sent to 2 supervised worker processes
//	engine-ranks   md2048, md8192, ft256 and anysrc2048 through vmpi.RunCtx
//
// With --trace 0 the result carries the end-to-end metrics (pass_s,
// points_per_s, cpu_s, setup_s, peak_rss_mb). With --trace 1 the run
// alternates untraced and traced passes and reports the per-layer metrics
// instead, and writes the spans to .bench_build/trace/. The last line of
// standard output is the JSON result; the lines before it are the same
// numbers for people, including failed_frac and, on engine-ranks,
// sim_msgs_per_s.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// lanes is the concurrency of the load: sweep lanes in-process, worker
// processes on paper-workers.
var lanes = min(2, runtime.NumCPU())

// A run sets its workload up at least minSetups times and until setupBudget
// has passed, at most maxSetups times; setup_s is the median, and the last
// set-up is the one the passes use. In-process set-ups take microseconds,
// so many samples are needed for a steady median, and spreading them over
// half a second keeps a short burst of host noise from moving it.
const (
	minSetups   = 15
	maxSetups   = 2000
	setupBudget = 500 * time.Millisecond
)

func main() {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(workerMain())
	}
	os.Exit(run())
}

// passResult is one timed pass of a workload.
type passResult struct {
	wall, cpu         float64 // host seconds
	attempted, failed int
}

// bench is one workload.
type bench interface {
	// setUp releases the state of any earlier set-up, then prepares the
	// workload for its passes and returns the seconds the preparation took.
	setUp() (float64, error)
	// pass runs one cold pass and checks its outputs; tr is nil when
	// tracing is off.
	pass(tr *tracer) (passResult, error)
	// layers returns the per-layer metrics gathered over the traced passes
	// and the number of checks that failed in gathering them.
	layers(tr *tracer) (map[string]float64, int)
	// close stops every process and goroutine the workload started and
	// returns the peak RSS of its worker processes in MB (0 if none).
	close() float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	workload := flag.String("workload", "", "paper-inproc, paper-workers or engine-ranks")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traceOn := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.Parse()
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	traced := *traceOn == 1
	var b bench
	var err error
	switch *workload {
	case "paper-inproc", "paper-workers":
		b, err = newPaperBench(*seed, *workload == "paper-workers")
	case "engine-ranks":
		b = newEngineBench(*seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prov := provenance{Workload: *workload, Seed: *seed, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Lanes: lanes}
	fmt.Printf("provenance: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s lanes=%d\n",
		prov.Workload, prov.Seed, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Lanes)

	res, err := measure(b, time.Duration(*seconds)*time.Second, traced, prov)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measure sets the workload up repeatedly, then runs passes until the
// next one would end past budget. A traced run alternates untraced and
// traced passes, starting untraced, and runs at least one of each.
func measure(b bench, budget time.Duration, traced bool, prov provenance) (res result, err error) {
	var setups []float64
	t0 := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(t0) < setupBudget); i++ {
		s, err := b.setUp()
		if err != nil {
			b.close()
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, withTrace []passResult
	start := time.Now()
	last := time.Duration(0)
	minPasses := 1
	if traced {
		minPasses = 2
	}
	for i := 0; i < minPasses || time.Since(start)+last <= budget; i++ {
		var ptr *tracer
		if traced && i%2 == 1 {
			ptr = tr
		}
		t0 := time.Now()
		p, perr := b.pass(ptr)
		last = time.Since(t0)
		if perr != nil {
			b.close()
			return res, perr
		}
		if ptr != nil {
			withTrace = append(withTrace, p)
		} else {
			plain = append(plain, p)
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	var layers map[string]float64
	if traced {
		var failed int
		layers, failed = b.layers(tr)
		res.Failed += failed
	}
	workerRSS := b.close()
	res.Correct = res.Failed == 0

	walls := field(plain, func(p passResult) float64 { return p.wall })
	passS := median(walls)
	work := float64(plain[0].attempted)
	selfRSS := peakRSSMB()
	fmt.Printf("passes: %d untraced, %d traced; untraced pass seconds %.3f\n", len(plain), len(withTrace), walls)
	fmt.Printf("pass_s        %.4f s    (median of %d; p25 %.4f, p75 %.4f)\n", passS, len(walls), quantile(walls, 0.25), quantile(walls, 0.75))
	fmt.Printf("failed_frac   %.4f frac (%d of %d)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if e, ok := b.(*engineBench); ok {
		fmt.Printf("sim_msgs_per_s %.0f 1/s\n", float64(e.msgsPerPass())/passS)
		fmt.Printf("closure: cases cover at least %.2f%% of every pass (tolerance %.0f%%)\n",
			100*e.minCover, 100*closureTol)
	}

	if traced {
		tracedS := median(field(withTrace, func(p passResult) float64 { return p.wall }))
		layers["trace.overhead_frac"] = tracedS/passS - 1
		for name := range layers {
			if !slices.Contains(perLayer, name) {
				return res, fmt.Errorf("per-layer metric %q is not declared", name)
			}
		}
		for _, name := range perLayer {
			if _, ok := layers[name]; !ok {
				layers[name] = 0 // a layer this workload does not drive
			}
		}
		if err := tr.write(prov, layers); err != nil {
			return res, err
		}
		res.Metrics = make(map[string]metric, len(layers))
		for _, name := range sortedKeys(layers) {
			res.Metrics[name] = metric{Value: layers[name], Unit: layerUnit(name)}
			fmt.Printf("%-28s %g %s\n", name, layers[name], layerUnit(name))
		}
		return res, nil
	}
	vals := map[string]float64{
		"pass_s":       passS,
		"points_per_s": work / passS,
		"cpu_s":        median(field(plain, func(p passResult) float64 { return p.cpu })),
		"setup_s":      median(setups),
		"peak_rss_mb":  max(selfRSS, workerRSS),
	}
	res.Metrics = make(map[string]metric, len(vals))
	for _, name := range sortedKeys(vals) {
		res.Metrics[name] = metric{Value: vals[name], Unit: endToEnd[name]}
		fmt.Printf("%-13s %g %s\n", name, vals[name], endToEnd[name])
	}
	return res, nil
}

// endToEnd maps the end-to-end metrics of an untraced run to their units,
// as BENCHMARK.json lists them.
var endToEnd = map[string]string{
	"pass_s":       "s",
	"points_per_s": "1/s",
	"cpu_s":        "s",
	"setup_s":      "s",
	"peak_rss_mb":  "MB",
}

// perLayer names every per-layer metric, as BENCHMARK.json lists them. A
// traced run reports all of them; a layer the workload does not drive, or
// that the benchmark cannot observe from outside the program, reads 0.
// Each group notes the end-to-end metric it should move, and where.
var perLayer = func() []string {
	var names []string
	// core.exp.<id>_s: the Experiment.Run span on its coordinator, per
	// pass. Moves pass_s on paper-*: at 2 lanes pass_s is at least the
	// longest span and half the total point work; fig6 and fig11 dominate.
	for _, id := range paperIDs {
		names = append(names, "core.exp."+id+"_s")
	}
	// report.render_ms: Table.CSV time per pass (pass_s on paper-*, under
	// 1% of it). sweep.retries: Pool.Stats retries per pass; nonzero
	// inflates pass_s.
	names = append(names, "report.render_ms", "sweep.retries")
	// dist.*: the Dispatcher decorator around the supervisor and the
	// worker-side timing executor, per pass. Move pass_s and setup_s on
	// paper-workers only; 0 on the other workloads. do_s sums Do calls
	// (including lane queueing), exec_s sums worker ExecutePoint time,
	// overhead_s is their difference, spawn_s starts a fleet.
	names = append(names,
		"dist.points", "dist.do_s", "dist.exec_s", "dist.spec_bytes", "dist.reply_bytes",
		"dist.crashes", "dist.restarts", "dist.do_p50_ms", "dist.do_p95_ms", "dist.overhead_s",
		"dist.lane_busy_max_s", "dist.lane_imbalance", "dist.spawn_s")
	// vmpi.*, par.collectives: the engine-ranks cases and the counting
	// par.Comm decorator. Move sim_msgs_per_s and pass_s on engine-ranks,
	// and pass_s on paper-* through fig6/fig11 and dist.exec_s — except
	// anysrc2048, whose wildcard match no paper experiment uses.
	for _, c := range engineCaseNames {
		names = append(names, "vmpi.case."+c+"_ms", "vmpi.case."+c+"_alloc_mb")
	}
	names = append(names, "vmpi.msgs", "vmpi.computes", "vmpi.barriers", "vmpi.ns_per_msg",
		"par.collectives")
	// go.*: runtime/metrics of the benchmark process per pass. Move cpu_s
	// everywhere and pass_s on the single-goroutine engine-ranks.
	// trace.overhead_frac: traced over untraced pass_s, minus 1.
	return append(names, "go.alloc_mb", "go.gc_cycles", "go.gc_cpu_s", "trace.overhead_frac")
}()

// provenance identifies the host and inputs a result was measured with.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Lanes      int    `json:"lanes"`
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_imbalance"):
		return "ratio"
	case strings.HasSuffix(name, "ns_per_msg"):
		return "ns"
	}
	return "count"
}

func field(ps []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median is quantile(xs, 0.5); 0 for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB is this process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
