package main

import (
	"fmt"
	"sync"
	"time"

	causaliot "github.com/causaliot/causaliot"
)

// generators is the number of load-generating goroutines (the box's nproc).
const generators = 2

// closedServer is an in-process host driven closed-loop: each generator
// owns half the homes and submits a run of RunLen events to each in turn,
// as fast as the host admits them (Block backpressure).
type closedServer struct {
	p       params
	host    causaliot.Host
	fleet   *causaliot.Fleet // hub-flood's host, for fleet counters
	tenants []*tenant
	alarmAt []int    // per tenant: delivered alarms already turned into samples
	smp     *sampler // the traced phase's
}

func setupClosed(p params, in *inputs, rec *recorder) (server, []*tenant, setupInfo, error) {
	t0 := clock()
	systems, trainS, err := in.trainAll(rec)
	if err != nil {
		return nil, nil, setupInfo{}, err
	}
	s := &closedServer{p: p, tenants: in.tenants(systems)}
	if p.Adapt {
		s.host = causaliot.NewHub(causaliot.HubConfig{})
	} else {
		s.fleet = causaliot.NewFleet(causaliot.FleetConfig{Shards: 2})
		s.host = s.fleet
	}
	heap0 := heapNow()
	for _, t := range s.tenants {
		opts := causaliot.TenantOptions{}
		if p.Adapt {
			opts.Adapt = &causaliot.AdaptConfig{}
		}
		sp := rec.begin("register", t.name, 0, 0)
		err := s.host.Register(t.name, t.sys, opts)
		if err == nil {
			t := t
			err = s.host.SetAlarmRoute(t.name, func(ta causaliot.TenantAlarm) { t.sink(ta.Seq) })
		}
		rec.end(sp)
		if err != nil {
			s.abort()
			return nil, nil, setupInfo{}, fmt.Errorf("register %s: %w", t.name, err)
		}
	}
	info := setupInfo{seconds: float64(clock()-t0) / 1e9, trainS: trainS}
	info.heapPerHome = float64(int64(heapNow())-int64(heap0)) / float64(len(s.tenants))
	s.alarmAt = make([]int, len(s.tenants))
	return s, s.tenants, info, nil
}

func (s *closedServer) abort() { s.host.Close() }

func (s *closedServer) drive(d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{}
	before := 0
	for _, t := range s.tenants {
		before += t.sent
	}
	if rec != nil {
		s.smp = startSampler(rec, s.host, nil)
	}
	ph.start = clock()
	end := ph.start + int64(d)
	var wg sync.WaitGroup
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.generate(g, end, rec)
		}(g)
	}
	wg.Wait()
	ph.stop = clock()
	total := 0
	for _, t := range s.tenants {
		total += t.sent
	}
	ph.events = total - before
	var err error
	ph.decided, err = settle(func() causaliot.TenantStats { return s.host.Stats().Total }, total, time.Minute)
	if rec != nil {
		s.smp.halt()
	}
	if err != nil {
		return nil, err
	}
	// Alarms are delivered on the stream thread before an event counts as
	// processed, so every alarm of the phase is in by now.
	for i, t := range s.tenants {
		got := t.delivered()
		for _, r := range got[s.alarmAt[i]:] {
			run := t.runs[(int(r.seq)-1)/s.p.RunLen]
			ph.alarm = append(ph.alarm, sample{run.start - ph.start, float64(r.at - run.start)})
			if rec.sampled(r.seq) {
				rec.add("alarm", t.name, r.seq, 0, run.start, r.at)
			}
		}
		s.alarmAt[i] = len(got)
		for _, run := range t.runs {
			if run.start >= ph.start {
				ph.ack = append(ph.ack, sample{run.start - ph.start, float64(run.end - run.start)})
			}
		}
	}
	return ph, nil
}

// generate is generator g's loop: runs of RunLen events to each owned home
// in turn until end. One clock read per run stamps its offer time.
func (s *closedServer) generate(g int, end int64, rec *recorder) {
	at := clock()
	for {
		for i := g; i < len(s.tenants); i += generators {
			if at >= end {
				return
			}
			t := s.tenants[i]
			start := at
			first := uint64(t.sent) + 1
			var root int32
			if rec.sampled(uint64(len(t.runs) + 1)) { // 1 in SampleEvery runs
				root = rec.add("event", t.name, first, 0, start, 0)
			}
			for k := 0; k < s.p.RunLen; k++ {
				ev := t.st.at(t.sent)
				var sp int32
				if root != 0 {
					sp = rec.begin("submit", t.name, ev.Seq, root)
				}
				if err := s.host.Submit(t.name, ev); err != nil {
					t.submitErrs++
				}
				rec.end(sp)
				t.sent++
			}
			at = clock()
			rec.endAt(root, at)
			t.runs = append(t.runs, interval{start, at})
		}
	}
}

func (s *closedServer) close(b *books, layer map[string]float64) error {
	var fst causaliot.FleetStats
	if s.fleet != nil {
		fst = s.fleet.FleetStats()
	}
	lc := s.settleRefreshes()
	hst := s.host.Stats()
	if err := s.host.Close(); err != nil {
		return fmt.Errorf("close host: %w", err)
	}
	byTenant := statsByTenant(hst)
	for _, t := range s.tenants {
		b.checkEvents(t.sent, byTenant[t.name], t.submitErrs)
	}
	layer["hub.grouped_drains"] = float64(hst.GroupedDrains)
	layer["hub.alarms_dropped"] = float64(hst.AlarmsDropped)
	addDepths(layer, s.smp)
	if s.fleet != nil {
		layer["fleet.gap_dropped"] = float64(fst.GapDropped)
		layer["fleet.alarms_dropped"] = float64(fst.AlarmsDropped)
	}
	if s.p.Adapt {
		lifecycleBooks(b, lc, layer)
		// Refreshes swap models asynchronously, so alarms vary run to run:
		// the gate is that every raised alarm was delivered.
		for _, t := range s.tenants {
			raised := int(byTenant[t.name].Alarms)
			got := len(t.delivered())
			b.Alarms += raised
			b.AlarmsMissing += max(raised-got, 0)
			if got > raised {
				b.problem("%s: %d alarms delivered, %d raised", t.name, got, raised)
			}
		}
		return nil
	}
	return b.checkReference(s.tenants, byTenant)
}

// settleRefreshes waits (up to 30s) until no background refresh is in
// flight, so the books count each one started as finished or failed;
// closing the hub under one would fail it. It returns the final
// lifecycle counters.
func (s *closedServer) settleRefreshes() map[string]causaliot.LifecycleStats {
	deadline := clock() + int64(30*time.Second)
	for {
		lc := s.host.LifecycleStats()
		busy := false
		for _, st := range lc {
			busy = busy || st.RefreshInFlight
		}
		if !busy || clock() > deadline {
			return lc
		}
		time.Sleep(time.Millisecond)
	}
}

// lifecycleBooks gates the adaptive run: refreshes attempted and failed,
// and that both refits and re-mines ran and swapped models in.
func lifecycleBooks(b *books, lc map[string]causaliot.LifecycleStats, layer map[string]float64) {
	var tot causaliot.LifecycleStats
	for _, st := range lc {
		tot.Scans += st.Scans
		tot.Refits += st.Refits
		tot.Remines += st.Remines
		tot.Swaps += st.Swaps
		tot.RefreshErrors += st.RefreshErrors
	}
	b.Refreshes += int(tot.Refits + tot.Remines + tot.RefreshErrors)
	b.RefreshErrs += int(tot.RefreshErrors)
	if tot.RefreshErrors != 0 {
		b.problem("lifecycle: %d refresh errors", tot.RefreshErrors)
	}
	if tot.Swaps == 0 || tot.Remines == 0 {
		b.problem("lifecycle: %d swaps, %d re-mines; want both > 0", tot.Swaps, tot.Remines)
	}
	layer["lifecycle.scans"] = float64(tot.Scans)
	layer["lifecycle.refits"] = float64(tot.Refits)
	layer["lifecycle.remines"] = float64(tot.Remines)
	layer["lifecycle.swaps"] = float64(tot.Swaps)
	layer["lifecycle.refresh_errors"] = float64(tot.RefreshErrors)
}
