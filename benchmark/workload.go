package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	causaliot "github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/dig"
)

// params sizes one run. The defaults are the benchmark's workloads; tests
// shrink them.
type params struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool

	Homes      int // homes served
	Models     int // distinct trained models, dealt round-robin to homes
	Offsets    int // distinct stream offsets per model
	TrainDays  int // simulated days each model trains on
	StreamDays int // simulated days of the runtime log homes replay
	Setups     int // set-ups per run; setup_s is their median
	// Closed loop: events per Submit run to one home.
	RunLen int
	// Open loop: events per second per producer, and the live migration
	// cadence (0: none).
	Rate         int
	MigrateEvery time.Duration
	// Adapt enables the model lifecycle. One home in DriftHomeEvery
	// scrambles its devices' roles from the start (structural drift, so it
	// is re-mined); the others invert driftDevices in the last two thirds
	// of each pass through their stream (so refits recur).
	Adapt          bool
	DriftHomeEvery int
	// FixedBase replays the same base log on every run, the seed moving
	// only where each home starts in it: how often drift scans trigger
	// refits depends on how far a simulated log's statistics sit from the
	// model's training log, and a per-seed log makes that, and with it the
	// refit load, vary by a factor of two between runs.
	FixedBase bool
	// LadderEvents is each ladder rung's stream length.
	LadderEvents int
	// SampleEvery is the traced run's 1-in-N per-event span sampling.
	SampleEvery uint64
}

// workloads are the benchmark's traffic mixes.
var workloads = map[string]params{
	"hub-flood": {
		Homes: 512, Models: 4, Offsets: 16, TrainDays: 2, StreamDays: 7, Setups: 5, RunLen: 64,
	},
	"wire-open": {
		Homes: 2, Models: 1, Offsets: 2, TrainDays: 2, StreamDays: 7, Setups: 5, Rate: 100_000,
	},
	"cluster-migrate": {
		Homes: 2, Models: 1, Offsets: 2, TrainDays: 2, StreamDays: 7, Setups: 5, Rate: 50_000,
		MigrateEvery: 50 * time.Millisecond,
	},
	"adapt-drift": {
		Homes: 64, Models: 1, Offsets: 16, TrainDays: 14, StreamDays: 7, Setups: 3, RunLen: 64,
		Adapt: true, DriftHomeEvery: 16, FixedBase: true,
	},
}

// driftDevices are the binary devices an adapt-drift home inverts.
var driftDevices = []string{"S_player", "S_curtain", "C_entrance"}

func lookup(name string) (params, error) {
	p, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return p, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	p.Workload = name
	p.LadderEvents = 100_000
	p.SampleEvery = 256
	return p, nil
}

// tenant is one served home and everything observed about it.
type tenant struct {
	name  string
	model int
	sys   *causaliot.System
	st    *stream
	// sent counts events handed to the system; written only by the
	// tenant's generator, read once generators have stopped.
	sent int
	// runs are the closed loop's Submit runs: start and the moment the
	// run's last event was admitted.
	runs []interval
	// submitErrs counts refused Submit calls.
	submitErrs int

	mu     sync.Mutex
	alarms []recv
}

type interval struct{ start, end int64 }

// recv is one delivered alarm: the completing event's Seq and when the
// benchmark received it.
type recv struct {
	seq uint64
	at  int64
}

// sink records a delivered alarm.
func (t *tenant) sink(seq uint64) {
	at := clock()
	t.mu.Lock()
	t.alarms = append(t.alarms, recv{seq, at})
	t.mu.Unlock()
}

func (t *tenant) delivered() []recv {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]recv(nil), t.alarms...)
}

func (t *tenant) deliveredSeqs() []uint64 {
	rs := t.delivered()
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.seq
	}
	return out
}

// modelSeed fixes the training logs: a workload serves the same models on
// every run, as a deployment would, so set-up and training cost do not
// vary with the traffic seed; --seed varies the runtime streams.
const modelSeed = 7

// inputs are the generated inputs of a run: training logs and streams.
// Only these reach the system under test.
type inputs struct {
	home     *home
	trainLog [][]causaliot.Event
	streams  []*stream // per home
	modelOf  []int     // per home
}

func makeInputs(p params) (*inputs, error) {
	h, err := newHome()
	if err != nil {
		return nil, err
	}
	in := &inputs{home: h, trainLog: make([][]causaliot.Event, p.Models)}
	bases := make([][]causaliot.Event, p.Models)
	for m := 0; m < p.Models; m++ {
		if in.trainLog[m], err = h.simulate(modelSeed+int64(m), p.TrainDays); err != nil {
			return nil, err
		}
		streamSeed := p.Seed*1000 + 500 + int64(m)
		if p.FixedBase {
			streamSeed = modelSeed + 500 + int64(m)
		}
		if bases[m], err = h.simulate(streamSeed, p.StreamDays); err != nil {
			return nil, err
		}
	}
	for i := 0; i < p.Homes; i++ {
		m := i % p.Models
		base := bases[m]
		off := offset(p, i, len(base))
		st, err := newStream(base, off)
		if err != nil {
			return nil, err
		}
		if p.Adapt {
			if p.DriftHomeEvery > 0 && i%p.DriftHomeEvery == 0 {
				st.scramble = h.rotations(3)
			} else {
				st.invert = map[string]bool{}
				for _, d := range driftDevices {
					st.invert[d] = true
				}
			}
		}
		in.streams = append(in.streams, st)
		in.modelOf = append(in.modelOf, m)
	}
	return in, nil
}

// offset is where home i starts in a base log of n events. Homes of a
// model spread over p.Offsets evenly spaced starts. Normally the seed
// shifts them all by a phase; with a fixed base log it instead deals the
// starts to homes in a seeded order, so every run replays the same set of
// starts.
func offset(p params, i, n int) int {
	class := i / p.Models
	if p.FixedBase {
		class = rand.New(rand.NewSource(p.Seed)).Perm(p.Homes)[i]
		return class % p.Offsets * n / p.Offsets
	}
	phase := int(uint64(p.Seed) * 0x9E3779B97F4A7C15 >> 40)
	return (class%p.Offsets*n/p.Offsets + phase) % n
}

// rotations returns k renamings; the r-th maps every device to the one r+1
// places on among the devices of its type. Cycling through them event by
// event scrambles which device reports what, breaking most interactions
// the model learned: the first drift scan finds over half the devices
// drifted, so the home is re-mined.
func (h *home) rotations(k int) []map[string]string {
	byType := make(map[causaliot.DeviceType][]string)
	for _, d := range h.devices {
		byType[d.Type] = append(byType[d.Type], d.Name)
	}
	out := make([]map[string]string, k)
	for r := range out {
		out[r] = make(map[string]string)
		for _, names := range byType {
			for i, n := range names {
				out[r][n] = names[(i+r+1)%len(names)]
			}
		}
	}
	return out
}

// trainAll trains every model, returning each and the time of each Train.
func (in *inputs) trainAll(rec *recorder) ([]*causaliot.System, []float64, error) {
	systems := make([]*causaliot.System, len(in.trainLog))
	times := make([]float64, len(in.trainLog))
	for m, log := range in.trainLog {
		t0 := clock()
		sys, err := in.home.train(log, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("train model %d: %w", m, err)
		}
		times[m] = float64(clock()-t0) / 1e9
		systems[m] = sys
	}
	return systems, times, nil
}

func (in *inputs) tenants(systems []*causaliot.System) []*tenant {
	out := make([]*tenant, len(in.streams))
	for i, st := range in.streams {
		out[i] = &tenant{name: fmt.Sprintf("home-%d", i), model: in.modelOf[i], sys: systems[in.modelOf[i]], st: st}
	}
	return out
}

// heapNow is the live heap after a full collection.
func heapNow() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// server is one set-up instance of a workload's system under test.
type server interface {
	// drive offers load for d and waits until every offered event is
	// decided; rec, when set, records the phase's spans.
	drive(d time.Duration, rec *recorder) (*phase, error)
	// close tears the system down and balances the books: events, alarms
	// (against the reference where detection is deterministic),
	// migrations and refreshes. It fills per-layer counters into layer.
	close(b *books, layer map[string]float64) error
	// abort tears down a set-up that will not be measured.
	abort()
}

// setupInfo is what one set-up measured about itself.
type setupInfo struct {
	seconds     float64
	heapPerHome float64
	trainS      []float64
}

// phase is one measured interval of load.
type phase struct {
	start, stop, decided int64 // offer start, last offer, all decided
	events               int
	alarm, ack, late     []sample // latencies in ns, at = offer − start
	migrate              []float64
}

// eps is the phase's decided throughput.
func (ph *phase) eps() float64 {
	return float64(ph.events) / (float64(ph.decided-ph.start) / 1e9)
}

// settle polls stats until decided reaches want, returning the clock
// reading of the poll that saw it.
func settle(stats func() causaliot.TenantStats, want int, timeout time.Duration) (int64, error) {
	deadline := clock() + int64(timeout)
	for {
		st := stats()
		now := clock()
		if int(st.Processed+st.Dropped+st.Rejected+st.Shed) >= want {
			return now, nil
		}
		if now > deadline {
			return now, fmt.Errorf("%d of %d events decided after %v", st.Processed+st.Dropped+st.Rejected+st.Shed, want, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// statsByTenant indexes a host snapshot.
func statsByTenant(st causaliot.HubStats) map[string]causaliot.TenantStats {
	out := make(map[string]causaliot.TenantStats, len(st.Tenants))
	for _, ts := range st.Tenants {
		out[ts.Tenant] = ts
	}
	return out
}

// setupFunc builds one instance of a workload's system from its inputs.
type setupFunc func(p params, in *inputs, rec *recorder) (server, []*tenant, setupInfo, error)

func setupFor(name string) (setupFunc, error) {
	switch name {
	case "hub-flood", "adapt-drift":
		return setupClosed, nil
	case "wire-open", "cluster-migrate":
		return setupOpen, nil
	}
	return nil, fmt.Errorf("no set-up for workload %q", name)
}

// cacheLayer samples the model cache's occupancy.
func cacheLayer(layer map[string]float64) {
	cs := dig.CacheStats()
	layer["dig.cache_entries"] = float64(cs.Entries)
	layer["dig.cache_refs"] = float64(cs.Refs)
}
