package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	causaliot "github.com/causaliot/causaliot"
	"github.com/causaliot/causaliot/internal/wire"
)

// minWake is the shortest sleep between generator wake-ups. Each wake-up
// costs a flush and a server read, a syscall pair or more; waking for every
// 10µs-spaced event spends most of two CPUs on them and makes latency swing
// with any other load on the box. Events due meanwhile wait for the next
// wake-up, and that wait counts in their latency (the report's
// gen_late_p50 shows it: the Go runtime's timers land such short sleeps
// about 1ms apart on an otherwise idle process).
const minWake = int64(200 * time.Microsecond)

// ackEvery subsamples the per-event ack and lateness timings (every
// event's is known; one in ackEvery is kept).
const ackEvery = 4

// openServer serves homes over loopback TCP to wire.OpenSession producers
// sending on a fixed schedule: a single Hub (wire-open) or a router over
// two in-process cluster workers (cluster-migrate).
type openServer struct {
	p       params
	host    causaliot.Host
	fleet   *causaliot.Fleet // cluster router; nil for wire-open
	workers []*causaliot.ClusterWorker
	wdone   []chan error
	ws      *causaliot.WireServer
	ln      *countingListener
	wsDone  chan error
	prods   []*producer
	tenants []*tenant

	envelopeBase uint64 // envelope bytes sent by registration
	migrations   int
	migrateErrs  int
	smp          *sampler // the traced phase's
}

// producer is one session connection feeding one home.
type producer struct {
	t     *tenant
	sess  *wire.SessionClient
	nacks atomic.Int64

	// Per phase: the schedule, the Seq before its first event, generator
	// wake-ups and observed ack watermarks.
	sched   schedule
	seq0    int
	wakes   []wakeObs
	acks    []ackObs
	acked   uint64
	alarmAt int
	sendErr error
	roots   []eventSpan // sampled events' open spans
}

type eventSpan struct {
	id  int32
	seq uint64
}

type wakeObs struct {
	at   int64 // after the wake-up's Flush
	upto int   // events sent so far
}

type ackObs struct {
	at int64
	wm uint64
}

func setupOpen(p params, in *inputs, rec *recorder) (server, []*tenant, setupInfo, error) {
	t0 := clock()
	systems, trainS, err := in.trainAll(rec)
	if err != nil {
		return nil, nil, setupInfo{}, err
	}
	s := &openServer{p: p, tenants: in.tenants(systems)}
	if p.MigrateEvery > 0 {
		if err := s.startCluster(); err != nil {
			s.abort()
			return nil, nil, setupInfo{}, err
		}
	} else {
		s.host = causaliot.NewHub(causaliot.HubConfig{})
	}
	heap0 := heapNow()
	for _, t := range s.tenants {
		sp := rec.begin("register", t.name, 0, 0)
		err := s.host.Register(t.name, t.sys, causaliot.TenantOptions{})
		rec.end(sp)
		if err != nil {
			s.abort()
			return nil, nil, setupInfo{}, fmt.Errorf("register %s: %w", t.name, err)
		}
	}
	heap1 := heapNow()
	if s.fleet != nil {
		for _, sh := range s.fleet.FleetStats().Shards {
			s.envelopeBase += sh.Health.EnvelopeBytesOut
		}
	}
	if s.ws, err = causaliot.NewWireServer(s.host, causaliot.WireConfig{}); err != nil {
		s.abort()
		return nil, nil, setupInfo{}, err
	}
	if s.ln, s.wsDone, err = serveLoopback(s.ws.Serve); err != nil {
		s.abort()
		return nil, nil, setupInfo{}, err
	}
	for i, t := range s.tenants {
		pr := &producer{t: t}
		sess, err := wire.OpenSession(wire.SessionConfig{
			Addr:    s.ln.Addr().String(),
			Session: fmt.Sprintf("bench-%d", i),
			Client: wire.ClientConfig{
				Tenant:  t.name,
				OnNack:  func(wire.Nack) { pr.nacks.Add(1) },
				OnAlarm: func(a wire.Alarm) { t.sink(a.Seq) },
			},
		})
		if err != nil {
			s.abort()
			return nil, nil, setupInfo{}, fmt.Errorf("open session %d: %w", i, err)
		}
		pr.sess = sess
		s.prods = append(s.prods, pr)
	}
	info := setupInfo{
		seconds:     float64(clock()-t0) / 1e9,
		heapPerHome: float64(int64(heap1)-int64(heap0)) / float64(len(s.tenants)),
		trainS:      trainS,
	}
	return s, s.tenants, info, nil
}

// startCluster starts two in-process workers on loopback and a router
// over them.
func (s *openServer) startCluster() error {
	quiet := func(string, ...any) {}
	var remotes []causaliot.RemoteShardConfig
	for i := 0; i < 2; i++ {
		w, err := causaliot.NewClusterWorker(causaliot.ClusterWorkerConfig{Logf: quiet})
		if err != nil {
			return err
		}
		ln, done, err := serveLoopback(w.Serve)
		if err != nil {
			w.Close()
			return err
		}
		s.workers = append(s.workers, w)
		s.wdone = append(s.wdone, done)
		remotes = append(remotes, causaliot.RemoteShardConfig{Addr: ln.Addr().String(), Logf: quiet})
	}
	f, err := causaliot.NewCluster(causaliot.ClusterConfig{Workers: remotes})
	if err != nil {
		return err
	}
	s.fleet, s.host = f, f
	return nil
}

// abort tears everything down in dependency order; safe on a partial
// set-up.
func (s *openServer) abort() {
	for _, pr := range s.prods {
		pr.sess.Close()
	}
	if s.ws != nil {
		s.ws.Close()
		if s.wsDone != nil {
			<-s.wsDone
		}
	}
	if s.host != nil {
		s.host.Close()
	}
	for i, w := range s.workers {
		w.Close()
		<-s.wdone[i]
	}
}

func (s *openServer) drive(d time.Duration, rec *recorder) (*phase, error) {
	var smp *sampler
	if rec != nil {
		smp = startSampler(rec, s.host, s.fleet)
		s.smp = smp
	}
	ph := &phase{start: clock() + int64(time.Millisecond)}
	end := ph.start + int64(d)
	for i, pr := range s.prods {
		// Producers run the same rate, interleaved by half a period.
		pr.sched = newSchedule(ph.start+int64(i)*int64(1e9)/int64(s.p.Rate)/int64(len(s.prods)), s.p.Rate)
		pr.seq0 = pr.t.sent
		pr.wakes, pr.acks = pr.wakes[:0], pr.acks[:0]
	}
	var wg sync.WaitGroup
	for _, pr := range s.prods {
		wg.Add(1)
		go func(pr *producer) {
			defer wg.Done()
			pr.generate(end, rec)
		}(pr)
	}
	stopMigrating := s.migrate(end, ph, rec)
	wg.Wait()
	stopMigrating()
	ph.stop = clock()
	total := 0
	for _, pr := range s.prods {
		ph.events += pr.t.sent - pr.seq0
		total += pr.t.sent
		if pr.sendErr != nil {
			smp.halt()
			return nil, fmt.Errorf("%s: send: %w", pr.t.name, pr.sendErr)
		}
	}
	decided, err := settle(func() causaliot.TenantStats {
		for _, pr := range s.prods {
			pr.observeAck()
		}
		return s.host.Stats().Total
	}, total, time.Minute)
	ph.decided = decided
	if err == nil {
		err = s.awaitAcksAndAlarms()
	}
	smp.halt()
	if err != nil {
		return nil, err
	}
	for _, pr := range s.prods {
		pr.samples(ph, rec)
	}
	return ph, nil
}

// generate is the open-loop generator: every wake-up sends each event
// that has come due, then flushes, then sleeps until the next is due (but
// at least minWake).
func (pr *producer) generate(end int64, rec *recorder) {
	i := 0
	for {
		now := clock()
		if now >= end {
			return
		}
		var root int32
		for n := pr.sched.dueBy(now); i < n; i++ {
			ev := pr.t.st.at(pr.t.sent)
			var sp int32
			if rec.sampled(ev.Seq) {
				root = rec.add("event", pr.t.name, ev.Seq, 0, pr.sched.due(i), 0)
				pr.roots = append(pr.roots, eventSpan{root, ev.Seq})
				sp = rec.begin("send", pr.t.name, ev.Seq, root)
			}
			err := pr.sess.Send(wire.Event{Seq: ev.Seq, Time: ev.Time, Device: ev.Device, Value: ev.Value})
			for errors.Is(err, wire.ErrSendWindowFull) {
				time.Sleep(20 * time.Microsecond)
				err = pr.sess.Send(wire.Event{Seq: ev.Seq, Time: ev.Time, Device: ev.Device, Value: ev.Value})
			}
			rec.end(sp)
			if err != nil {
				pr.sendErr = err
				return
			}
			pr.t.sent++
		}
		var sp int32
		if root != 0 {
			sp = rec.begin("flush", pr.t.name, 0, root)
		}
		err := pr.sess.Flush()
		rec.end(sp)
		if err != nil {
			pr.sendErr = err
			return
		}
		pr.wakes = append(pr.wakes, wakeObs{clock(), pr.t.sent})
		pr.observeAck()
		time.Sleep(time.Duration(max(pr.sched.due(i)-clock(), minWake)))
	}
}

// observeAck records the session's ack watermark when it moved.
func (pr *producer) observeAck() {
	if wm := pr.sess.Stats().Acked; wm > pr.acked {
		pr.acked = wm
		pr.acks = append(pr.acks, ackObs{clock(), wm})
	}
}

// awaitAcksAndAlarms waits until every session's window is acknowledged
// and every raised alarm has reached its producer (or 5s pass: the
// shortfall is then counted as missing alarms).
func (s *openServer) awaitAcksAndAlarms() error {
	deadline := clock() + int64(5*time.Second)
	for clock() < deadline {
		done := true
		for _, pr := range s.prods {
			pr.observeAck()
			if pr.acked < uint64(pr.t.sent) {
				// A ping flushes the server's cumulative ack for a tail
				// shorter than its ack cadence.
				pr.sess.Ping()
				done = false
			}
		}
		st := statsByTenant(s.host.Stats())
		for _, t := range s.tenants {
			t.mu.Lock()
			got := len(t.alarms)
			t.mu.Unlock()
			if got < int(st[t.name].Alarms) {
				done = false
			}
		}
		if done {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	for _, pr := range s.prods {
		if pr.acked < uint64(pr.t.sent) {
			return fmt.Errorf("%s: acked %d of %d events", pr.t.name, pr.acked, pr.t.sent)
		}
	}
	return nil
}

// samples turns the phase's observations into latency samples, all timed
// from each event's due time.
func (pr *producer) samples(ph *phase, rec *recorder) {
	dueOf := func(seq uint64) int64 { return pr.sched.due(int(seq) - pr.seq0 - 1) }
	for _, r := range pr.t.delivered()[pr.alarmAt:] {
		due := dueOf(r.seq)
		ph.alarm = append(ph.alarm, sample{due - ph.start, float64(r.at - due)})
		if rec.sampled(r.seq) {
			rec.add("alarm", pr.t.name, r.seq, 0, due, r.at)
		}
		pr.alarmAt++
	}
	// First ack covering each event; generator lateness from the wake-up
	// that sent it (measured after its Flush, so time blocked in Send
	// counts).
	a, w := 0, 0
	for seq := pr.seq0 + 1; seq <= pr.t.sent; seq++ {
		for pr.acks[a].wm < uint64(seq) {
			a++
		}
		for pr.wakes[w].upto < seq {
			w++
		}
		due := dueOf(uint64(seq))
		if seq%ackEvery == 0 {
			ph.ack = append(ph.ack, sample{due - ph.start, float64(pr.acks[a].at - due)})
			ph.late = append(ph.late, sample{due - ph.start, float64(pr.wakes[w].at - due)})
		}
	}
	// A sampled event's span ends at the first ack covering it.
	a = 0
	for _, root := range pr.roots {
		for pr.acks[a].wm < root.seq {
			a++
		}
		rec.endAt(root.id, pr.acks[a].at)
	}
	pr.roots = pr.roots[:0]
}

// migrate runs one live Migrate every MigrateEvery until end, alternating
// homes between the two workers, each call timed.
func (s *openServer) migrate(end int64, ph *phase, rec *recorder) func() {
	if s.p.MigrateEvery <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(s.p.MigrateEvery)
		defer tick.Stop()
		shards := s.fleet.Shards()
		for k := 0; ; k++ {
			<-tick.C
			if clock() >= end {
				return
			}
			name := s.tenants[k%len(s.tenants)].name
			cur, err := s.fleet.ShardOf(name)
			to := shards[0]
			if cur == to {
				to = shards[1]
			}
			s.migrations++
			t0 := clock()
			if err == nil {
				err = s.fleet.Migrate(name, to)
			}
			t1 := clock()
			if err != nil {
				s.migrateErrs++
				continue
			}
			ph.migrate = append(ph.migrate, float64(t1-t0))
			rec.add("migrate", name, uint64(k), 0, t0, t1)
		}
	}()
	return func() { <-done }
}

func (s *openServer) close(b *books, layer map[string]float64) error {
	hst := s.host.Stats()
	wst := s.ws.Stats()
	var fst causaliot.FleetStats
	if s.fleet != nil {
		fst = s.fleet.FleetStats()
	}
	var errs []error
	for _, pr := range s.prods {
		errs = append(errs, pr.sess.Close())
	}
	errs = append(errs, s.ws.Close(), <-s.wsDone, s.host.Close())
	for i, w := range s.workers {
		errs = append(errs, w.Close(), <-s.wdone[i])
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("tear down: %w", err)
	}
	byTenant := statsByTenant(hst)
	events := 0
	for _, pr := range s.prods {
		b.checkEvents(pr.t.sent, byTenant[pr.t.name], int(pr.nacks.Load()))
		events += pr.t.sent
	}
	b.Migrations += s.migrations
	b.MigrationErrs += s.migrateErrs

	layer["hub.grouped_drains"] = float64(hst.GroupedDrains)
	layer["hub.alarms_dropped"] = float64(hst.AlarmsDropped)
	layer["wire.bytes_per_event"] = float64(s.ln.read.Load()) / float64(max(events, 1))
	layer["wire.nacks"] = float64(wst.Nacks)
	layer["wire.duplicates"] = float64(wst.Duplicates)
	layer["wire.retransmits"] = float64(wst.Retransmits)
	layer["wire.alarms_dropped"] = float64(wst.AlarmsDropped)
	layer["wire.alarms_buffered"] = float64(wst.AlarmsBuffered)
	if s.fleet != nil {
		var out, reconnects, retx uint64
		for _, sh := range fst.Shards {
			out += sh.Health.EnvelopeBytesOut
			reconnects += sh.Health.Reconnects
			retx += sh.Health.Retransmits
		}
		layer["fleet.gap_dropped"] = float64(fst.GapDropped)
		layer["fleet.alarms_dropped"] = float64(fst.AlarmsDropped)
		layer["cluster.reconnects"] = float64(reconnects)
		layer["cluster.retransmits"] = float64(retx)
		if fst.Migrations > 0 {
			layer["fleet.replayed_per_migration"] = float64(fst.Replayed) / float64(fst.Migrations)
			layer["cluster.envelope_bytes_per_migration"] = float64(out-s.envelopeBase) / float64(fst.Migrations)
		}
	}
	addDepths(layer, s.smp)
	return b.checkReference(s.tenants, byTenant)
}
