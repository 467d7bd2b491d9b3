package wire

import (
	"net"
	"testing"
	"time"
)

// TestSessionClientRebasesAlarmIndexOnServerRestart: a restarted server
// numbers the session's alarms from 1 again. The client must lower its
// receipt index to the server's on resume, or its next resume confirms —
// and so prunes — alarms it never received.
func TestSessionClientRebasesAlarmIndexOnServerRestart(t *testing.T) {
	b := newFakeBackend("", "home-0")
	serve := func(addr string) (*Server, string, func()) {
		s, err := NewServer(ServerConfig{Backend: b, Classify: b.classify, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Serve(ln) }()
		return s, ln.Addr().String(), func() {
			s.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		}
	}
	s1, addr, stop1 := serve("127.0.0.1:0")
	alarms := make(chan Alarm, 16)
	sc, err := OpenSession(SessionConfig{
		Addr:        addr,
		Session:     "prod",
		Client:      ClientConfig{Tenant: "home-0", OnAlarm: func(a Alarm) { alarms <- a }},
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MaxAttempts: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	recv := func(seq uint64) {
		t.Helper()
		select {
		case a := <-alarms:
			if a.Seq != seq {
				t.Fatalf("alarm seq %d, want %d", a.Seq, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("alarm seq %d never arrived", seq)
		}
	}
	raise := func(seq uint64) {
		t.Helper()
		if !b.push("home-0", Alarm{Seq: seq}) {
			t.Fatalf("no alarm route for seq %d", seq)
		}
	}

	// First server life: five alarms take the client's receipt index to 5.
	waitFor(t, "session attach", func() bool { return s1.Stats().Resumes == 1 })
	for seq := uint64(1); seq <= 5; seq++ {
		raise(seq)
		recv(seq)
	}

	// Restart on the same address: the new server has no session state and
	// numbers the session's alarms from 1.
	stop1()
	s2, _, stop2 := serve(addr)
	defer stop2()
	waitFor(t, "resume on the restarted server", func() bool {
		return s2.Stats().Resumes == 1 && sc.Stats().Reconnects == 1
	})
	raise(6)
	recv(6)
	raise(7)
	recv(7)

	// Drop the connection; the alarm raised while the session is orphaned
	// is banked as index 3 and must be replayed on the next resume.
	s2.mu.Lock()
	for c := range s2.conns {
		c.nc.Close()
	}
	s2.mu.Unlock()
	waitFor(t, "orphaned session", func() bool {
		st := s2.Stats()
		return st.ActiveConns == 0 && st.Sessions == 1
	})
	raise(8)
	recv(8)
}
