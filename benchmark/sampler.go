package main

import (
	"net"
	"sort"
	"sync/atomic"
	"time"

	causaliot "github.com/causaliot/causaliot"
)

// sampler polls host state every 25ms during a traced phase: per-home
// queue depths, remote shards' unacknowledged events, and refresh spans
// (a refresh seen in flight until its swap counter moves).
type sampler struct {
	rec   *recorder
	host  causaliot.Host
	fleet *causaliot.Fleet // remote links to sample; nil for none
	stop  chan struct{}
	done  chan struct{}

	depths, pending []float64
	swaps           map[string]uint64
	inFlight        map[string]int64
}

func startSampler(rec *recorder, host causaliot.Host, fleet *causaliot.Fleet) *sampler {
	s := &sampler{
		rec: rec, host: host, fleet: fleet,
		stop: make(chan struct{}), done: make(chan struct{}),
		swaps: make(map[string]uint64), inFlight: make(map[string]int64),
	}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		for _, ts := range s.host.Stats().Tenants {
			s.depths = append(s.depths, float64(ts.QueueDepth))
		}
		if s.fleet != nil {
			for _, sh := range s.fleet.FleetStats().Shards {
				s.pending = append(s.pending, float64(sh.Health.PendingEvents))
			}
		}
		now := clock()
		for name, st := range s.host.LifecycleStats() {
			if st.RefreshInFlight {
				if _, ok := s.inFlight[name]; !ok {
					s.inFlight[name] = now
				}
			}
			if st.Swaps > s.swaps[name] {
				start, ok := s.inFlight[name]
				if !ok {
					start = now
				}
				s.rec.add("refresh", name, st.Swaps, 0, start, now)
				delete(s.inFlight, name)
				s.swaps[name] = st.Swaps
			}
		}
	}
}

// halt stops the sampler and waits for it; nil-safe.
func (s *sampler) halt() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// countingListener counts the bytes the server side reads off its
// connections: the wire cost of the traffic.
type countingListener struct {
	net.Listener
	read atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.read}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// serveLoopback starts serve on a fresh loopback listener and returns the
// listener and a channel that yields serve's result.
func serveLoopback(serve func(net.Listener) error) (*countingListener, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cl := &countingListener{Listener: ln}
	done := make(chan error, 1)
	go func() { done <- serve(cl) }()
	return cl, done, nil
}

// addDepths reports the sampled queue depths and remote pending windows.
func addDepths(layer map[string]float64, s *sampler) {
	if s == nil {
		return
	}
	for name, vals := range map[string][]float64{"hub.queue_depth_p99": s.depths, "cluster.pending_p99": s.pending} {
		sort.Float64s(vals)
		v, _ := quantile(vals, 0.99)
		layer[name] = v
	}
}
