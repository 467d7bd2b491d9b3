package wire

import (
	"fmt"
	"sync"
	"time"

	"github.com/causaliot/causaliot/internal/stream"
)

// SessionState is a SessionClient's connection health, reported through
// OnStateChange.
type SessionState = stream.State

const (
	// StateConnected: a live connection is attached to the session.
	StateConnected = stream.Connected
	// StateDegraded: the connection died; reconnect attempts are running
	// and Send banks events in the window meanwhile.
	StateDegraded = stream.Degraded
	// StateGaveUp: MaxAttempts consecutive reconnects failed; the client
	// is terminally down and every later Send returns ErrSessionGaveUp.
	StateGaveUp = stream.GaveUp
)

// SessionConfig tunes a fault-tolerant session client.
type SessionConfig struct {
	// Addr is the server address; Session the durable session name
	// (scoped to the tenant). Both required.
	Addr    string
	Session string
	// Client carries the per-connection settings (token, tenant, frame
	// limit, Nack/alarm callbacks). Its Session/AlarmIdx/OnAck/
	// OnSessionAlarm fields are owned by the SessionClient and must be
	// left zero; OnAlarm receives session alarms with the index stripped.
	Client ClientConfig
	// Window caps the ring of sent-but-unacknowledged events held for
	// retransmit. A full window surfaces as ErrSendWindowFull — typed
	// backpressure, never silent shedding. Defaults to 1024.
	Window int
	// MaxAttempts is the number of consecutive failed reconnect attempts
	// before the client gives up (StateGaveUp, sticky ErrSessionGaveUp).
	// <= 0 defaults to 8.
	MaxAttempts int
	// BackoffMin and BackoffMax bound the capped exponential backoff
	// between reconnect attempts (first retry waits ~BackoffMin, each
	// later one doubles, capped at BackoffMax, plus up to 50% jitter).
	// Defaults: 50ms and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// JitterSeed makes the backoff jitter deterministic for tests; 0
	// derives a fixed default (jitter exists to de-synchronize fleets,
	// determinism within one client is harmless).
	JitterSeed int64
	// OnStateChange observes connected/degraded/gave-up transitions.
	// Called from the reconnect goroutine (and once from Open for the
	// initial connect); must not call back into the SessionClient's
	// Send/Close.
	OnStateChange func(SessionState)
}

func (c SessionConfig) withDefaults() SessionConfig {
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// SessionStats snapshots a SessionClient's fault-tolerance counters.
type SessionStats struct {
	// Reconnects counts successful resumes after a connection death;
	// Attempts every dial tried (including failures).
	Reconnects uint64
	Attempts   uint64
	// Retransmits counts events re-sent from the window on resume.
	Retransmits uint64
	// Acked is the server's cumulative decided watermark; Window the
	// events currently banked unacknowledged.
	Acked  uint64
	Window int
	// Recoveries holds one duration per successful reconnect: connection
	// death to resumed-and-retransmitted.
	Recoveries []time.Duration
	// State is the current session state.
	State SessionState
}

// SessionClient is a fault-tolerant wire producer: it wraps Client with a
// durable server-side session, capped-exponential-backoff reconnects, and
// a bounded retransmit window, so a dropped TCP connection is a recoverable
// event instead of silent data loss.
//
// Events must carry strictly increasing Seq (ErrSeqOrder otherwise) — the
// cumulative-ack protocol depends on it. Send accepts an event into the
// window and returns nil even while degraded (delivery happens on resume);
// a full window returns ErrSendWindowFull and the caller owns the retry.
//
// Send/Flush/Close/Stats are safe for concurrent use.
type SessionClient struct {
	cfg SessionConfig

	mu       sync.Mutex
	conn     *Client
	state    SessionState
	window   *stream.Window[Event] // sent-but-unacked, ascending Seq
	alarmIdx uint64                // session-alarm receipt index
	closed   bool
	gaveUp   bool

	reconnects  uint64
	attempts    uint64
	retransmits uint64
	recoveries  []time.Duration

	backoff *stream.Backoff
	wg      sync.WaitGroup
	closeC  chan struct{}
}

// OpenSession dials the first connection and attaches the session. The
// initial dial is synchronous: an unreachable server fails here rather
// than silently banking events.
func OpenSession(cfg SessionConfig) (*SessionClient, error) {
	cfg = cfg.withDefaults()
	if cfg.Session == "" {
		return nil, fmt.Errorf("%w: empty session name", ErrBadFrame)
	}
	s := &SessionClient{
		cfg:     cfg,
		window:  stream.NewWindow(cfg.Window, func(ev Event) uint64 { return ev.Seq }),
		backoff: stream.NewBackoff(cfg.BackoffMin, cfg.BackoffMax, cfg.JitterSeed),
		closeC:  make(chan struct{}),
	}
	conn, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.conn = conn
	var wm uint64
	wm, s.alarmIdx = conn.ResumeState()
	s.window.Ack(wm) // a reopened session's next Seq must exceed wm
	s.state = StateConnected
	s.mu.Unlock()
	s.notify(StateConnected)
	s.watch(conn)
	return s, nil
}

func (s *SessionClient) notify(st SessionState) {
	if s.cfg.OnStateChange != nil {
		s.cfg.OnStateChange(st)
	}
}

// dial opens one connection resuming the session at the current alarm
// watermark.
func (s *SessionClient) dial() (*Client, error) {
	s.mu.Lock()
	aidx := s.alarmIdx
	s.attempts++
	s.mu.Unlock()
	cc := s.cfg.Client
	cc.Session = s.cfg.Session
	cc.AlarmIdx = aidx
	cc.OnAck = s.onAck
	cc.OnSessionAlarm = s.onSessionAlarm
	cc.OnAlarm = nil // session connections receive FrameSessionAlarm only
	return Dial(s.cfg.Addr, cc)
}

// onAck prunes the window up to the server's cumulative decided seq.
func (s *SessionClient) onAck(seq uint64) {
	s.mu.Lock()
	s.window.Ack(seq)
	s.mu.Unlock()
}

// onSessionAlarm records the receipt index, confirms it to the server (so
// the replay ring stays small), and hands the alarm to the caller.
func (s *SessionClient) onSessionAlarm(idx uint64, a Alarm) {
	s.mu.Lock()
	if idx > s.alarmIdx {
		s.alarmIdx = idx
	}
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		conn.AckAlarm(idx)
	}
	if s.cfg.Client.OnAlarm != nil {
		s.cfg.Client.OnAlarm(a)
	}
}

// watch arms a goroutine that turns this connection's death into a
// reconnect loop.
func (s *SessionClient) watch(conn *Client) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-conn.Done():
		case <-s.closeC:
			return
		}
		s.mu.Lock()
		if s.closed || s.conn != conn {
			s.mu.Unlock()
			return
		}
		s.conn = nil
		s.state = StateDegraded
		s.mu.Unlock()
		died := time.Now()
		s.notify(StateDegraded)
		s.reconnect(died)
	}()
}

// reconnect runs capped exponential backoff with jitter until a resume
// succeeds, the client closes, or MaxAttempts consecutive dials fail.
func (s *SessionClient) reconnect(died time.Time) {
	gaveUp := s.backoff.Retry(s.closeC, s.cfg.MaxAttempts, func() bool {
		conn, err := s.dial()
		if err != nil {
			return false
		}
		// resume either installs the connection (its watcher owns the
		// next failure) or lost a race with Close; both end the retries.
		s.resume(conn, died)
		return true
	})
	if gaveUp {
		s.mu.Lock()
		s.gaveUp = true
		s.state = StateGaveUp
		s.mu.Unlock()
		s.notify(StateGaveUp)
	}
}

// resume installs a fresh connection: prune the window to the server's
// watermark, retransmit the rest of the tail in order, and only then allow
// new Sends to interleave (the mutex covers the whole splice, so the
// server sees tail-then-new in sequence order).
func (s *SessionClient) resume(conn *Client, died time.Time) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	wm, aidx := conn.ResumeState()
	// A server behind our receipt index restarted and numbers alarms
	// afresh: rebase, or the next resume would confirm (and so prune)
	// alarms this client never received.
	s.alarmIdx = min(s.alarmIdx, aidx)
	for _, ev := range s.window.Resume(wm) {
		s.retransmits++
		if err := conn.SendRetx(ev); err != nil {
			break // conn died mid-replay; its watcher will retry the rest
		}
	}
	conn.Flush()
	s.conn = conn
	s.state = StateConnected
	s.reconnects++
	s.recoveries = append(s.recoveries, time.Since(died))
	s.mu.Unlock()
	s.notify(StateConnected)
	s.watch(conn)
}

// Send accepts one event into the session window and, when a connection is
// live, streams it. Events must carry strictly increasing Seq. While
// degraded the event is banked and delivered on resume; a full window
// returns ErrSendWindowFull; after give-up, ErrSessionGaveUp.
func (s *SessionClient) Send(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClientClosed
	}
	if s.gaveUp {
		return ErrSessionGaveUp
	}
	if last := s.window.Last(); ev.Seq <= last {
		return fmt.Errorf("%w: seq %d after %d", ErrSeqOrder, ev.Seq, last)
	}
	if s.window.Full() {
		return ErrSendWindowFull
	}
	s.window.Push(ev)
	if s.conn != nil {
		// A write error here is not a loss: the event is in the window
		// and the watcher's resume will retransmit it.
		for _, e := range s.window.Unsent() {
			s.conn.Send(e)
		}
	}
	return nil
}

// Flush pushes buffered frames on the live connection, if any.
func (s *SessionClient) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClientClosed
	}
	if s.gaveUp {
		return ErrSessionGaveUp
	}
	if s.conn != nil {
		s.conn.Flush()
	}
	return nil
}

// Ping sends a keepalive on the live connection (refreshing the server's
// idle deadline); a no-op while degraded.
func (s *SessionClient) Ping() error {
	s.mu.Lock()
	conn := s.conn
	s.mu.Unlock()
	if conn != nil {
		return conn.Ping()
	}
	return nil
}

// Err reports the sticky terminal state: ErrSessionGaveUp after reconnects
// were exhausted, ErrClientClosed after Close, nil otherwise.
func (s *SessionClient) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gaveUp {
		return ErrSessionGaveUp
	}
	if s.closed {
		return ErrClientClosed
	}
	return nil
}

// Stats snapshots the client's fault-tolerance counters.
func (s *SessionClient) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := make([]time.Duration, len(s.recoveries))
	copy(rec, s.recoveries)
	return SessionStats{
		Reconnects:  s.reconnects,
		Attempts:    s.attempts,
		Retransmits: s.retransmits,
		Acked:       s.window.Acked(),
		Window:      s.window.Len(),
		Recoveries:  rec,
		State:       s.state,
	}
}

// Pending reports how many events sit in the window unacknowledged.
func (s *SessionClient) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.Len()
}

// Close tears the session client down: stops the reconnect machinery,
// closes the live connection (a clean Bye retires the server-side session),
// and waits for the watcher goroutines. Idempotent.
func (s *SessionClient) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conn := s.conn
	s.conn = nil
	close(s.closeC)
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	s.wg.Wait()
	return nil
}
