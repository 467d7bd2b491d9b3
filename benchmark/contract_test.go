package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesReports holds BENCHMARK.json (at the repository
// root) to what the benchmark prints: the same workloads, and every
// declared metric reported with the declared unit in its mode.
func TestBenchmarkJSONMatchesReports(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, err := lookup(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %d", names, len(workloads))
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		reported map[string]string
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.declared) != len(set.reported) {
			t.Errorf("%d metrics declared, %d reported", len(set.declared), len(set.reported))
		}
		for _, m := range set.declared {
			if unit, ok := set.reported[m.Name]; !ok || unit != m.Unit {
				t.Errorf("metric %s: declared unit %q, reported %q (present %v)", m.Name, m.Unit, unit, ok)
			}
		}
	}
}
