package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	causaliot "github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/dig"
	"github.com/causaliot/causaliot/internal/lifecycle"
	"github.com/causaliot/causaliot/internal/monitor"
	"github.com/causaliot/causaliot/internal/timeseries"
	"github.com/causaliot/causaliot/internal/wire"
)

// ladderReps is how many times each rung replays the stream; rungs report
// the median.
const ladderReps = 3

// ladderMigrations is how many idle live migrations the cluster rung
// times.
const ladderMigrations = 20

// ladder replays the workload's first home stream, from one goroutine,
// through each serving rung in turn; every rung adds one layer to the one
// below, so the cost of each hop is the difference between adjacent rungs:
//
//	monitor   Detector.ProcessStep on pre-unified steps
//	causaliot Monitor.ObserveEvent on raw events
//	hub       Hub.Submit until processed
//	fleet     Fleet.Submit (2 local shards) until processed
//	wire      loopback session into that fleet, until acked and processed
//	cluster   the same session into a router over 2 workers
//
// It also times the model lifecycle's fold, scan, refit and re-mine, the
// training stages, route lookups and idle migrations, and the resident
// cost of a hub home.
func ladder(p params, in *inputs, sys *causaliot.System, rec *recorder, layer map[string]float64) error {
	st := in.streams[0]
	n := p.LadderEvents
	events := make([]causaliot.Event, n)
	for i := range events {
		events[i] = st.at(i)
	}
	im, err := in.home.trainStages(in.trainLog[in.modelOf[0]], rec)
	if err != nil {
		return err
	}
	spans := rec.snapshot()
	mine := median(durations(spans, "mine"))
	layer["preprocess.process_ms"] = median(durations(spans, "preprocess")) / 1e6
	layer["pc.mine_ms"] = mine / 1e6
	layer["monitor.threshold_ms"] = median(durations(spans, "threshold")) / 1e6
	layer["pc.ci_tests"] = float64(im.ciTests)
	layer["stats.ci_test_us"] = mine / float64(max(im.ciTests, 1)) / 1e3

	steps, err := unify(im, events)
	if err != nil {
		return err
	}
	comp, err := dig.Compile(im.graph)
	if err != nil {
		return err
	}
	step, allocs, err := rung(n, func() (func(int) error, func() error, error) {
		det, err := monitor.NewDetectorFromCompiled(comp, im.threshold, trainConfig.KMax, im.initial)
		if err != nil {
			return nil, nil, err
		}
		return func(i int) error { _, err := det.ProcessStep(steps[i]); return err }, nil, nil
	})
	if err != nil {
		return fmt.Errorf("monitor rung: %w", err)
	}
	layer["monitor.step_ns"], layer["monitor.step_allocs"] = step, allocs

	observe, allocs, err := rung(n, monitorRung(sys, events, nil))
	if err != nil {
		return fmt.Errorf("facade rung: %w", err)
	}
	layer["causaliot.observe_ns"], layer["causaliot.observe_allocs"] = observe, allocs
	layer["causaliot.hop_ns"] = observe - step

	adaptive, _, err := rung(n, monitorRung(sys, events, &causaliot.AdaptConfig{}))
	if err != nil {
		return fmt.Errorf("lifecycle rung: %w", err)
	}
	layer["lifecycle.observe_ns"] = adaptive
	layer["lifecycle.fold_ns"] = adaptive - observe
	if err := lifecycleTimings(comp, im, steps, sys, events, layer); err != nil {
		return err
	}

	hubNs, hubAllocs, err := hostRung(n, rec, sys, events, causaliot.NewHub(causaliot.HubConfig{}))
	if err != nil {
		return fmt.Errorf("hub rung: %w", err)
	}
	layer["hub.event_ns"], layer["hub.event_allocs"] = hubNs, hubAllocs
	layer["hub.hop_ns"] = hubNs - observe

	fleetNs, _, err := hostRung(n, rec, sys, events, causaliot.NewFleet(causaliot.FleetConfig{Shards: 2}))
	if err != nil {
		return fmt.Errorf("fleet rung: %w", err)
	}
	layer["fleet.event_ns"] = fleetNs
	layer["fleet.hop_ns"] = fleetNs - hubNs
	if err := routeTiming(sys, layer); err != nil {
		return err
	}

	wireNs, err := wireRung(n, rec, sys, events, false, layer)
	if err != nil {
		return fmt.Errorf("wire rung: %w", err)
	}
	layer["wire.event_ns"] = wireNs
	layer["wire.hop_ns"] = wireNs - fleetNs

	clusterNs, err := wireRung(n, rec, sys, events, true, layer)
	if err != nil {
		return fmt.Errorf("cluster rung: %w", err)
	}
	layer["cluster.event_ns"] = clusterNs
	layer["cluster.hop_ns"] = clusterNs - wireNs

	return bytesPerHome(sys, layer)
}

// rung times reps replays of n events through a fresh consumer from mk:
// the per-event step and a final wait (nil: none). It returns the median
// ns and heap allocations per event.
func rung(n int, mk func() (func(int) error, func() error, error)) (float64, float64, error) {
	var ns, allocs []float64
	for r := 0; r < ladderReps; r++ {
		step, wait, err := mk()
		if err != nil {
			return 0, 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := clock()
		for i := 0; i < n; i++ {
			if err := step(i); err != nil {
				return 0, 0, err
			}
		}
		if wait != nil {
			if err := wait(); err != nil {
				return 0, 0, err
			}
		}
		t1 := clock()
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(t1-t0)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs), nil
}

// monitorRung replays events through a fresh facade Monitor, adaptive
// when adapt is set.
func monitorRung(sys *causaliot.System, events []causaliot.Event, adapt *causaliot.AdaptConfig) func() (func(int) error, func() error, error) {
	return func() (func(int) error, func() error, error) {
		mon, err := sys.NewMonitor()
		if err != nil {
			return nil, nil, err
		}
		if adapt != nil {
			if err := mon.EnableAdaptive(*adapt); err != nil {
				return nil, nil, err
			}
		}
		step := func(i int) error {
			_, err := mon.ObserveEvent(events[i])
			if errors.Is(err, causaliot.ErrUnknownDevice) || errors.Is(err, causaliot.ErrValueOutOfRange) {
				return nil
			}
			return err
		}
		return step, func() error { mon.Close(); return nil }, nil
	}
}

// unify maps raw events to the detector's steps, as the facade does;
// events the preprocessor refuses are dropped.
func unify(im *internalModel, events []causaliot.Event) ([]timeseries.Step, error) {
	reg := im.pre.Registry()
	steps := make([]timeseries.Step, 0, len(events))
	for _, ev := range events {
		idx, ok := reg.Index(ev.Device)
		if !ok {
			return nil, fmt.Errorf("unknown device %q", ev.Device)
		}
		v, err := im.pre.UnifyValue(ev.Device, ev.Value)
		if err != nil {
			continue
		}
		steps = append(steps, timeseries.Step{Device: idx, Value: v, Time: ev.Time})
	}
	// The rung replays n steps; pad by cycling if any were refused.
	for i := 0; len(steps) < len(events); i++ {
		steps = append(steps, steps[i])
	}
	return steps, nil
}

// lifecycleTimings times one drift scan over the stream's evidence and a
// counts-only refit and a full re-mine over a refit window of it.
func lifecycleTimings(comp *dig.Compiled, im *internalModel, steps []timeseries.Step, sys *causaliot.System, events []causaliot.Event, layer map[string]float64) error {
	det, err := monitor.NewDetectorFromCompiled(comp, im.threshold, trainConfig.KMax, im.initial)
	if err != nil {
		return err
	}
	acc, err := lifecycle.NewAccumulator(comp)
	if err != nil {
		return err
	}
	for _, s := range steps {
		if res, err := det.ProcessStep(s); err != nil {
			return err
		} else if !res.Duplicate {
			acc.Fold(det.Window())
		}
	}
	scorer, err := lifecycle.NewScorer(lifecycle.DefaultConfig())
	if err != nil {
		return err
	}
	var scan, refit, remine []float64
	window := events[:min(len(events), 8192)]
	for r := 0; r < ladderReps; r++ {
		t0 := clock()
		if _, err := scorer.Scan(acc); err != nil {
			return err
		}
		t1 := clock()
		if _, err := sys.Refit(window); err != nil {
			return fmt.Errorf("refit: %w", err)
		}
		t2 := clock()
		if _, err := sys.Remine(window); err != nil {
			return fmt.Errorf("remine: %w", err)
		}
		t3 := clock()
		scan = append(scan, float64(t1-t0))
		refit = append(refit, float64(t2-t1))
		remine = append(remine, float64(t3-t2))
	}
	layer["lifecycle.scan_ms"] = median(scan) / 1e6
	layer["lifecycle.refit_ms"] = median(refit) / 1e6
	layer["lifecycle.remine_ms"] = median(remine) / 1e6
	return nil
}

// hostRung submits the stream to one home on a fresh host from one
// goroutine, rep after rep, each timed until every event is processed.
// One Submit in SampleEvery gets a span.
func hostRung(n int, rec *recorder, sys *causaliot.System, events []causaliot.Event, h causaliot.Host) (float64, float64, error) {
	defer h.Close()
	const name = "ladder"
	if err := h.Register(name, sys, causaliot.TenantOptions{OnAlarm: func(string, *causaliot.Alarm, float64) {}}); err != nil {
		return 0, 0, err
	}
	r := 0
	return rung(n, func() (func(int) error, func() error, error) {
		base := r * n
		r++
		step := func(i int) error {
			ev := events[i]
			ev.Seq += uint64(base)
			var sp int32
			if rec.sampled(ev.Seq) {
				sp = rec.begin("ladder.submit", name, ev.Seq, 0)
			}
			err := h.Submit(name, ev)
			rec.end(sp)
			return err
		}
		wait := func() error {
			_, err := settle(func() causaliot.TenantStats { return h.Stats().Total }, base+n, time.Minute)
			return err
		}
		return step, wait, nil
	})
}

// wireRung streams the events over one loopback session into a 2-shard
// fleet (local, or a router over 2 in-process workers), each rep timed
// until every event is acked and processed. Every ack frame is counted.
func wireRung(n int, rec *recorder, sys *causaliot.System, events []causaliot.Event, cluster bool, layer map[string]float64) (float64, error) {
	srv := &openServer{}
	if cluster {
		if err := srv.startCluster(); err != nil {
			srv.abort()
			return 0, err
		}
	} else {
		srv.fleet = causaliot.NewFleet(causaliot.FleetConfig{Shards: 2})
		srv.host = srv.fleet
	}
	defer srv.abort()
	const name = "ladder"
	if err := srv.host.Register(name, sys, causaliot.TenantOptions{}); err != nil {
		return 0, err
	}
	var err error
	if srv.ws, err = causaliot.NewWireServer(srv.host, causaliot.WireConfig{}); err != nil {
		return 0, err
	}
	if srv.ln, srv.wsDone, err = serveLoopback(srv.ws.Serve); err != nil {
		return 0, err
	}
	var acked, acks atomic.Int64
	var conn atomic.Pointer[wire.Client]
	c, err := wire.Dial(srv.ln.Addr().String(), wire.ClientConfig{
		Tenant:  name,
		Session: name,
		OnAck: func(seq uint64) {
			acks.Add(1)
			acked.Store(int64(seq))
		},
		OnSessionAlarm: func(idx uint64, _ wire.Alarm) {
			if c := conn.Load(); c != nil {
				c.AckAlarm(idx)
			}
		},
	})
	if err != nil {
		return 0, err
	}
	conn.Store(c)
	defer c.Close()
	r := 0
	ns, _, err := rung(n, func() (func(int) error, func() error, error) {
		base := r * n
		r++
		step := func(i int) error {
			ev := events[i]
			seq := ev.Seq + uint64(base)
			var sp int32
			if rec.sampled(seq) {
				sp = rec.begin("ladder.send", name, seq, 0)
			}
			err := c.Send(wire.Event{Seq: seq, Time: ev.Time, Device: ev.Device, Value: ev.Value})
			rec.end(sp)
			if err != nil || (i+1)%64 != 0 && i+1 != n {
				return err
			}
			if rec.sampled(seq) {
				sp = rec.begin("ladder.flush", name, seq, 0)
			}
			err = c.Flush()
			rec.end(sp)
			return err
		}
		wait := func() error {
			deadline := clock() + int64(time.Minute)
			for acked.Load() < int64(base+n) {
				if clock() > deadline {
					return fmt.Errorf("acked %d of %d", acked.Load(), base+n)
				}
				// A ping flushes the server's cumulative ack for a tail
				// shorter than its ack cadence.
				if err := c.Ping(); err != nil {
					return err
				}
				time.Sleep(100 * time.Microsecond)
			}
			_, err := settle(func() causaliot.TenantStats { return srv.host.Stats().Total }, base+n, time.Minute)
			return err
		}
		return step, wait, nil
	})
	if err != nil {
		return 0, err
	}
	events3 := float64(ladderReps * n)
	if cluster {
		return ns, migrations(srv.fleet, name, rec, layer)
	}
	layer["ladder.wire_bytes_per_event"] = float64(srv.ln.read.Load()) / events3
	layer["wire.acks_per_event"] = float64(acks.Load()) / events3
	return ns, nil
}

// migrations times idle live migrations of one home between the cluster
// rung's two workers, each under a "ladder.migrate" span.
func migrations(f *causaliot.Fleet, name string, rec *recorder, layer map[string]float64) error {
	shards := f.Shards()
	before := f.FleetStats()
	var out0 uint64
	for _, sh := range before.Shards {
		out0 += sh.Health.EnvelopeBytesOut
	}
	for k := 0; k < ladderMigrations; k++ {
		cur, err := f.ShardOf(name)
		if err != nil {
			return err
		}
		to := shards[0]
		if cur == to {
			to = shards[1]
		}
		t0 := clock()
		if err := f.Migrate(name, to); err != nil {
			return fmt.Errorf("migrate: %w", err)
		}
		rec.add("ladder.migrate", name, uint64(k), 0, t0, clock())
	}
	after := f.FleetStats()
	var out1 uint64
	for _, sh := range after.Shards {
		out1 += sh.Health.EnvelopeBytesOut
	}
	moved := float64(after.Migrations - before.Migrations)
	layer["ladder.envelope_bytes_per_migration"] = float64(out1-out0) / moved
	layer["ladder.replayed_per_migration"] = float64(after.Replayed-before.Replayed) / moved
	return nil
}

// routeTiming times the fleet's route lookup on a warm table.
func routeTiming(sys *causaliot.System, layer map[string]float64) error {
	f := causaliot.NewFleet(causaliot.FleetConfig{Shards: 2})
	defer f.Close()
	const homes, lookups = 64, 200_000
	names := make([]string, homes)
	for i := range names {
		names[i] = fmt.Sprintf("route-%d", i)
		if err := f.Register(names[i], sys, causaliot.TenantOptions{}); err != nil {
			return err
		}
	}
	var per []float64
	for r := 0; r < ladderReps; r++ {
		t0 := clock()
		for i := 0; i < lookups; i++ {
			if _, err := f.ShardOf(names[i%homes]); err != nil {
				return err
			}
		}
		per = append(per, float64(clock()-t0)/lookups)
	}
	layer["fleet.route_ns"] = median(per)
	return nil
}

// bytesPerHome is the settled heap cost of one more home on a bare hub.
func bytesPerHome(sys *causaliot.System, layer map[string]float64) error {
	const homes = 256
	h := causaliot.NewHub(causaliot.HubConfig{})
	defer h.Close()
	heap0 := heapNow()
	for i := 0; i < homes; i++ {
		if err := h.Register(fmt.Sprintf("resident-%d", i), sys, causaliot.TenantOptions{}); err != nil {
			return err
		}
	}
	layer["hub.bytes_per_home"] = float64(int64(heapNow())-int64(heap0)) / homes
	return nil
}
