package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the binary
// prints in step: the per-layer names and units, and the end-to-end names.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range doc.PerLayer {
		names = append(names, m.Name)
		if u := layerUnit(m.Name); u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, printed unit %q", m.Name, m.Unit, u)
		}
	}
	if !slices.Equal(names, perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nbinary         %v", names, perLayer)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the binary prints %d", len(doc.EndToEnd), len(endToEnd))
	}
	for _, m := range doc.EndToEnd {
		if endToEnd[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, printed unit %q", m.Name, m.Unit, endToEnd[m.Name])
		}
	}
}
