package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the index of the enclosing
// span, -1 for a pass's root; Pass numbers the traced pass it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps the spans of every traced pass in memory; write puts them
// out when the run ends. Methods are safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), pass: -1} }

// beginPass opens the root span of the next traced pass.
func (t *tracer) beginPass() int {
	t.mu.Lock()
	t.pass++
	t.mu.Unlock()
	return t.begin("pass", -1)
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Pass: t.pass})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-timed span under parent.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Pass: t.pass})
	t.mu.Unlock()
}

// perPass returns, for every traced pass, the summed duration in seconds
// of the spans called name.
func (t *tracer) perPass(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, t.pass+1)
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Pass] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// durations returns the duration in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// passes is the number of traced passes begun.
func (t *tracer) passes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pass + 1
}

// computeSelf sets every span's self time: its duration minus the part of
// it that the union of its children's intervals covers.
func computeSelf(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write saves the spans, their per-name totals and the run's per-layer
// metrics to .bench_build/trace/<workload>-seed<seed>.json.
func (t *tracer) write(prov provenance, layers map[string]float64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	computeSelf(spans)
	type total struct {
		Count  int     `json:"count"`
		WallMS float64 `json:"wall_ms"`
		SelfMS float64 `json:"self_ms"`
	}
	totals := make(map[string]*total)
	for _, s := range spans {
		tt := totals[s.Name]
		if tt == nil {
			tt = &total{}
			totals[s.Name] = tt
		}
		tt.Count++
		tt.WallMS += float64(s.End-s.Start) / 1e6
		tt.SelfMS += float64(s.Self) / 1e6
	}
	doc := struct {
		Provenance provenance         `json:"provenance"`
		Layers     map[string]float64 `json:"layers"`
		Totals     map[string]*total  `json:"totals"`
		Spans      []span             `json:"spans"`
	}{prov, layers, totals, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", prov.Workload, prov.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans in %s\n", len(spans), path)
	return nil
}

// goStats samples the Go runtime's cumulative allocation and GC counters.
type goStats struct{ allocBytes, gcCycles, gcCPU float64 }

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGoStats() goStats {
	s := append([]metrics.Sample(nil), goSamples...)
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// goLayers records the runtime counters of traced passes, one sample each.
type goLayers struct{ alloc, cycles, cpu []float64 }

func (g *goLayers) add(d goStats) {
	g.alloc = append(g.alloc, d.allocBytes/(1<<20))
	g.cycles = append(g.cycles, d.gcCycles)
	g.cpu = append(g.cpu, d.gcCPU)
}

func (g *goLayers) fill(m map[string]float64) {
	m["go.alloc_mb"] = median(g.alloc)
	m["go.gc_cycles"] = median(g.cycles)
	m["go.gc_cpu_s"] = median(g.cpu)
}
