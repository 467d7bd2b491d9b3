package main

import (
	"os"
	"testing"
)

// tiny shrinks a workload to a sub-second run.
func tiny(t *testing.T, name string) params {
	t.Helper()
	p, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Seconds, p.Setups, p.LadderEvents = 3, 0.4, 1, 3000
	switch name {
	case "hub-flood":
		p.Homes, p.Models, p.Offsets = 8, 2, 2
	case "adapt-drift":
		// Home 0 is re-mined at its first drift scan, 4096 accepted
		// events in: give it room even under the race detector.
		p.Homes, p.Seconds = 2, 1
	}
	return p
}

// TestTinyWorkloadsPassTheirGates runs every workload at toy size: the
// accounting must balance and the reference check pass.
func TestTinyWorkloadsPassTheirGates(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, res, err := run(tiny(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Books.Problems) != 0 || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("gate: %+v", rep.Books)
			}
			for m := range endToEnd {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("metric %s missing", m)
				}
			}
			if v := res.Metrics["decided_eps"].Value; v <= 0 {
				t.Errorf("decided_eps %v", v)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs the traced mode once: every
// per-layer metric is present and the spans are written out.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	p := tiny(t, "wire-open")
	p.Trace = true
	rep, res, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run not correct: %+v", rep.Books)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, m := range []string{"monitor.step_ns", "hub.event_ns", "wire.event_ns", "cluster.event_ns", "pc.mine_ms", "cluster.migrate_p50_ms"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v", m, res.Metrics[m].Value)
		}
	}
	if _, err := os.Stat(".bench_build/traces/wire-open-seed3.jsonl"); err != nil {
		t.Error(err)
	}
}
