// Command benchmark measures the CausalIoT serving stack end to end and
// layer by layer. One run serves one workload for a fixed time, checks
// every output against a reference, and prints a report line followed by
// the result line:
//
//	bash benchmark/run.sh --workload hub-flood --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures half its time untraced and
// half traced (the difference is the tracing overhead), then replays the
// workload's stream through the per-layer ladder; the result carries the
// per-layer metrics and the spans are written under .bench_build/traces.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// windows is how many time slices a run's latency percentiles are taken
// over (reported as the median slice).
const windows = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line before it: provenance, accounting and every timing
// with its sample count.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Box      box               `json:"box"`
	Books    books             `json:"books"`
	Timings  map[string]timing `json:"timings,omitempty"`
	Setups   []float64         `json:"setup_s"`
	// Unsupported names percentiles with too few samples beyond them; a
	// run with any is not correct.
	Unsupported []string       `json:"unsupported,omitempty"`
	Extra       map[string]any `json:"extra,omitempty"`
}

// endToEnd and perLayer name every metric each mode reports, with its unit.
var endToEnd = map[string]string{
	"setup_s":             "s",
	"decided_eps":         "events/s",
	"heap_bytes_per_home": "bytes",
	"alarm_p50_ms":        "ms",
	"ack_p50_ms":          "ms",
}

var perLayer = map[string]string{
	"monitor.step_ns": "ns", "monitor.step_allocs": "count", "monitor.threshold_ms": "ms",
	"causaliot.observe_ns": "ns", "causaliot.observe_allocs": "count", "causaliot.hop_ns": "ns",
	"dig.cache_entries": "count", "dig.cache_refs": "count",
	"hub.event_ns": "ns", "hub.event_allocs": "count", "hub.hop_ns": "ns", "hub.submit_ns": "ns",
	"hub.register_us": "us", "hub.queue_depth_p99": "count", "hub.grouped_drains": "count",
	"hub.alarms_dropped": "count", "hub.bytes_per_home": "bytes",
	"fleet.route_ns": "ns", "fleet.event_ns": "ns", "fleet.hop_ns": "ns",
	"fleet.replayed_per_migration": "count", "fleet.gap_dropped": "count", "fleet.alarms_dropped": "count",
	"wire.send_ns": "ns", "wire.flush_ns": "ns", "wire.bytes_per_event": "bytes", "wire.event_ns": "ns",
	"wire.hop_ns": "ns", "wire.acks_per_event": "count", "wire.nacks": "count", "wire.duplicates": "count",
	"wire.retransmits": "count", "wire.alarms_dropped": "count", "wire.alarms_buffered": "count",
	"cluster.event_ns": "ns", "cluster.hop_ns": "ns", "cluster.envelope_bytes_per_migration": "bytes",
	"cluster.migrate_p50_ms": "ms", "cluster.migrate_p90_ms": "ms",
	"cluster.reconnects": "count", "cluster.retransmits": "count", "cluster.pending_p99": "count",
	"lifecycle.observe_ns": "ns", "lifecycle.fold_ns": "ns", "lifecycle.scan_ms": "ms",
	"lifecycle.refit_ms": "ms", "lifecycle.remine_ms": "ms",
	"lifecycle.scans": "count", "lifecycle.refits": "count", "lifecycle.remines": "count",
	"lifecycle.swaps": "count", "lifecycle.refresh_errors": "count",
	"preprocess.process_ms": "ms", "pc.mine_ms": "ms", "pc.ci_tests": "count", "stats.ci_test_us": "us",
	"event.self_us": "us", "trace.overhead_pct": "%",
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	p, err := lookup(*workload)
	if err == nil && (*seconds <= 0 || *trace < 0 || *trace > 1) {
		err = errors.New("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	p.Seed, p.Seconds, p.Trace = *seed, *seconds, *trace == 1
	rep, res, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	for _, line := range []any{rep, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

// run executes one measured run of p.
func run(p params) (*report, *result, error) {
	rep := &report{Workload: p.Workload, Seed: p.Seed, Seconds: p.Seconds, Trace: p.Trace,
		Box: probeBox(), Timings: map[string]timing{}, Extra: map[string]any{}}
	in, err := makeInputs(p)
	if err != nil {
		return nil, nil, fmt.Errorf("inputs: %w", err)
	}
	setup, err := setupFor(p.Workload)
	if err != nil {
		return nil, nil, err
	}
	var rec *recorder
	setups := p.Setups
	if p.Trace {
		rec, setups = newRecorder(p.SampleEvery), 1
	}
	var (
		srv     server
		tenants []*tenant
		heap    []float64
		train   []float64
	)
	for i := 0; i < setups; i++ {
		runtime.GC()
		s, ts, info, err := setup(p, in, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		rep.Setups = append(rep.Setups, info.seconds)
		heap = append(heap, info.heapPerHome)
		train = append(train, info.trainS...)
		if i < setups-1 {
			s.abort()
			continue
		}
		srv, tenants = s, ts
	}
	layer := map[string]float64{}
	cacheLayer(layer)
	d := time.Duration(p.Seconds * float64(time.Second))
	var ph *phase
	if p.Trace {
		untraced, err := srv.drive(d/2, nil)
		if err != nil {
			srv.abort()
			return nil, nil, err
		}
		if ph, err = srv.drive(d/2, rec); err != nil {
			srv.abort()
			return nil, nil, err
		}
		layer["trace.overhead_pct"] = (untraced.eps() - ph.eps()) / untraced.eps() * 100
		rep.Extra["untraced_decided_eps"] = untraced.eps()
		rep.Extra["traced_decided_eps"] = ph.eps()
	} else if ph, err = srv.drive(d, nil); err != nil {
		srv.abort()
		return nil, nil, err
	}
	if err := srv.close(&rep.Books, layer); err != nil {
		return nil, nil, err
	}
	rep.Books.total()

	span := ph.stop - ph.start
	rep.Timings["alarm_p50"] = windowed(ph.alarm, span, windows, 0.50)
	rep.Timings["alarm_p90"] = windowed(ph.alarm, span, windows, 0.90)
	rep.Timings["alarm_p99"] = windowed(ph.alarm, span, windows, 0.99)
	rep.Timings["ack_p50"] = windowed(ph.ack, span, windows, 0.50)
	rep.Timings["ack_p90"] = windowed(ph.ack, span, windows, 0.90)
	rep.Timings["ack_p99"] = windowed(ph.ack, span, windows, 0.99)
	if len(ph.late) > 0 {
		rep.Timings["gen_late_p50"] = windowed(ph.late, span, windows, 0.50)
		rep.Timings["gen_late_p99"] = windowed(ph.late, span, windows, 0.99)
	}
	if len(ph.migrate) > 0 {
		rep.Timings["migrate_p50"] = whole(ph.migrate, 0.50)
		rep.Timings["migrate_p90"] = whole(ph.migrate, 0.90)
	}
	rep.Timings["train_s"] = timing{Value: median(train), Samples: len(train), Windows: 1, OK: true}
	rep.Extra["events"] = ph.events
	rep.Extra["homes"] = len(tenants)
	rep.Extra["layer"] = layer

	res := &result{Correct: len(rep.Books.Problems) == 0, Attempted: rep.Books.Attempted, Failed: rep.Books.Failed,
		Metrics: map[string]metric{}}
	if !p.Trace {
		values := map[string]float64{
			"setup_s":             median(rep.Setups),
			"decided_eps":         ph.eps(),
			"heap_bytes_per_home": median(heap),
		}
		for _, name := range []string{"alarm_p50", "ack_p50"} {
			t := rep.Timings[name]
			if !t.OK {
				rep.Unsupported = append(rep.Unsupported, name)
				res.Correct = false
			}
			values[name+"_ms"] = t.Value / 1e6
		}
		for name, unit := range endToEnd {
			res.Metrics[name] = metric{values[name], unit}
		}
		return rep, res, nil
	}

	if err := ladder(p, in, tenants[0].sys, rec, layer); err != nil {
		return nil, nil, fmt.Errorf("ladder: %w", err)
	}
	spanLayers(rec.snapshot(), layer)
	if err := rec.write(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", p.Workload, p.Seed))); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	var missing []string
	for name, unit := range perLayer {
		v, ok := layer[name]
		if !ok && unit != "count" {
			missing = append(missing, name)
		}
		res.Metrics[name] = metric{v, unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, nil, fmt.Errorf("per-layer timings not measured: %v", missing)
	}
	return rep, res, nil
}

// whole is a percentile over all samples (no windows).
func whole(vals []float64, q float64) timing {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	v, ok := quantile(s, q)
	return timing{Value: v, Samples: len(s), Windows: 1, OK: ok}
}

// spanLayers derives the span-based per-layer metrics. Call timings come
// from the workload's own calls where it makes them, else from the
// ladder's rung for that layer.
func spanLayers(spans []span, layer map[string]float64) {
	pick := func(names ...string) []float64 {
		for _, n := range names {
			if d := durations(spans, n); len(d) > 0 {
				return d
			}
		}
		return nil
	}
	layer["hub.submit_ns"] = median(pick("submit", "ladder.submit"))
	layer["wire.send_ns"] = median(pick("send", "ladder.send"))
	layer["wire.flush_ns"] = median(pick("flush", "ladder.flush"))
	layer["hub.register_us"] = median(pick("register")) / 1e3
	mig := pick("migrate", "ladder.migrate")
	layer["cluster.migrate_p50_ms"] = whole(mig, 0.50).Value / 1e6
	layer["cluster.migrate_p90_ms"] = whole(mig, 0.90).Value / 1e6
	layer["event.self_us"] = median(selfTimes(spans, "event")) / 1e3
	// Layers the workload does not run fall back to the ladder's figure.
	for name, rung := range map[string]string{
		"wire.bytes_per_event":                 "ladder.wire_bytes_per_event",
		"cluster.envelope_bytes_per_migration": "ladder.envelope_bytes_per_migration",
		"fleet.replayed_per_migration":         "ladder.replayed_per_migration",
	} {
		if _, ok := layer[name]; !ok {
			layer[name] = layer[rung]
		}
	}
}
