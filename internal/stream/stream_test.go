package stream

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// frameOf encodes an alarm index as an 8-byte frame; indexOf reads it back.
func frameOf(idx uint64) ([]byte, error) { return binary.BigEndian.AppendUint64(nil, idx), nil }

func indexOf(f []byte) uint64 { return binary.BigEndian.Uint64(f) }

// fakeLink is a Sender recording what it is sent. TrySend refuses once
// room frames are queued; Send always queues. onSend, when set, runs once,
// inside the next Send.
type fakeLink struct {
	got    [][]byte
	room   int
	onSend func()
}

func (l *fakeLink) Send(f []byte) {
	if h := l.onSend; h != nil {
		l.onSend = nil
		h()
	}
	l.got = append(l.got, f)
}

func (l *fakeLink) TrySend(f []byte) bool {
	if len(l.got) >= l.room {
		return false
	}
	l.got = append(l.got, f)
	return true
}

func (l *fakeLink) indices() []uint64 {
	out := make([]uint64, len(l.got))
	for i, f := range l.got {
		out[i] = indexOf(f)
	}
	return out
}

// wantRun fails unless got is exactly from, from+1, ..., to.
func wantRun(t *testing.T, got []uint64, from, to uint64) {
	t.Helper()
	if uint64(len(got)) != to-from+1 {
		t.Fatalf("indices %v, want %d..%d", got, from, to)
	}
	for i, idx := range got {
		if idx != from+uint64(i) {
			t.Fatalf("indices %v, want %d..%d", got, from, to)
		}
	}
}

// TestStreamAttachReplayPrecedesLivePush raises an alarm from inside the
// first replay Send: it must reach the new link after the replayed tail,
// never ahead of it, or a receiver that dedups by index (the cluster
// proxy) would drop the tail as duplicates.
func TestStreamAttachReplayPrecedesLivePush(t *testing.T) {
	var n Counters
	b := NewBank(16, &n)
	for i := 0; i < 3; i++ {
		b.Push(frameOf)
	}
	l := &fakeLink{room: 16}
	l.onSend = func() { b.Push(frameOf) }
	b.Attach(l, 0, nil)
	b.Push(frameOf)
	wantRun(t, l.indices(), 1, 5)
	if !b.Holds(l) {
		t.Fatal("attached link not live")
	}
	if got := [4]uint64{n.Pushed.Load(), n.Banked.Load(), n.Replayed.Load(), n.Dropped.Load()}; got != [4]uint64{1, 4, 4, 0} {
		t.Errorf("pushed/banked/replayed/dropped = %v, want [1 4 4 0]", got)
	}
}

// syncLink is a Sender safe for the pushing and the attaching goroutine at
// once; it never refuses a frame.
type syncLink struct {
	mu  sync.Mutex
	got []uint64
}

func (l *syncLink) Send(f []byte) { l.TrySend(f) }

func (l *syncLink) TrySend(f []byte) bool {
	l.mu.Lock()
	l.got = append(l.got, indexOf(f))
	l.mu.Unlock()
	return true
}

// TestStreamConcurrentPushAttach races a pushing goroutine against repeated
// attaches: every link must see strictly ascending indices, and a final
// attach replays every alarm exactly once.
func TestStreamConcurrentPushAttach(t *testing.T) {
	var n Counters
	const total = 2000
	b := NewBank(total, &n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			b.Push(frameOf)
		}
	}()
	var links []*syncLink
	for i := 0; i < 50; i++ {
		l := &syncLink{}
		links = append(links, l)
		b.Attach(l, 0, nil)
	}
	<-done
	final := &syncLink{}
	b.Attach(final, 0, nil)
	for i, l := range links {
		for j := 1; j < len(l.got); j++ {
			if l.got[j] <= l.got[j-1] {
				t.Fatalf("link %d got alarm %d after %d", i, l.got[j], l.got[j-1])
			}
		}
	}
	wantRun(t, final.got, 1, total)
}

// TestStreamAttachHeadThenConfirmedTail: the head frame leads, carrying the
// current index, and only alarms above the confirmed receipt replay.
func TestStreamAttachHeadThenConfirmedTail(t *testing.T) {
	var n Counters
	b := NewBank(16, &n)
	for i := 0; i < 4; i++ {
		b.Push(frameOf)
	}
	l := &fakeLink{room: 16}
	b.Attach(l, 2, func(idx uint64) []byte {
		f, _ := frameOf(100 + idx)
		return f
	})
	got := l.indices()
	if len(got) != 3 || got[0] != 104 {
		t.Fatalf("frames %v, want head 104 then 3, 4", got)
	}
	wantRun(t, got[1:], 3, 4)
}

// TestStreamFullQueueKeepsOrder: an alarm a full queue refused goes out
// ahead of the next one once the queue has room again.
func TestStreamFullQueueKeepsOrder(t *testing.T) {
	var n Counters
	b := NewBank(16, &n)
	l := &fakeLink{room: 0}
	b.Attach(l, 0, nil)
	if full := b.Push(frameOf); full != l {
		t.Fatalf("full queue not reported: %v", full)
	}
	l.room = 16
	b.Push(frameOf)
	wantRun(t, l.indices(), 1, 2)
	if got := [3]uint64{n.Pushed.Load(), n.Banked.Load(), n.Replayed.Load()}; got != [3]uint64{1, 1, 1} {
		t.Errorf("pushed/banked/replayed = %v, want [1 1 1]", got)
	}
}

// TestStreamOverflowCountsEviction: overflow evicts the oldest unconfirmed
// alarm and counts it; receipts free room without loss.
func TestStreamOverflowCountsEviction(t *testing.T) {
	var n Counters
	b := NewBank(2, &n)
	for i := 0; i < 3; i++ {
		b.Push(frameOf)
	}
	if n.Dropped.Load() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped.Load())
	}
	b.Confirm(2)
	b.Push(frameOf)
	l := &fakeLink{room: 16}
	b.Attach(l, 0, nil)
	wantRun(t, l.indices(), 3, 4)
	if n.Dropped.Load() != 1 {
		t.Errorf("dropped = %d after a confirmed prune, want 1", n.Dropped.Load())
	}
}

// TestStreamDetach: a detached link gets nothing more; a stale Detach of a
// link no longer attached is a no-op.
func TestStreamDetach(t *testing.T) {
	var n Counters
	b := NewBank(4, &n)
	l1, l2 := &fakeLink{room: 4}, &fakeLink{room: 4}
	b.Attach(l1, 0, nil)
	b.Attach(l2, 0, nil)
	if b.Detach(l1) {
		t.Fatal("detached a link that was not live")
	}
	if !b.Detach(l2) {
		t.Fatal("live link not detached")
	}
	b.Push(frameOf)
	if len(l1.got)+len(l2.got) != 0 || n.Banked.Load() != 1 {
		t.Fatalf("orphaned push sent %d/%d frames, banked %d", len(l1.got), len(l2.got), n.Banked.Load())
	}
}

func TestStreamWindowAckUnsentResume(t *testing.T) {
	w := NewWindow(3, func(s uint64) uint64 { return s })
	for s := uint64(1); s <= 3; s++ {
		w.Push(s)
	}
	if !w.Full() {
		t.Fatal("window of 3 not full")
	}
	if got := w.Unsent(); len(got) != 3 {
		t.Fatalf("unsent = %v", got)
	}
	if !w.Ack(2) || w.Ack(1) || w.Len() != 1 || w.Acked() != 2 {
		t.Fatalf("after ack 2: len %d acked %d", w.Len(), w.Acked())
	}
	w.Push(4)
	if got := w.Unsent(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("unsent after push = %v, want [4]", got)
	}
	if got := w.Resume(1); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("resume tail = %v, want [3 4]", got)
	}
	if got := w.Unsent(); len(got) != 0 {
		t.Fatalf("unsent after resume = %v, want none", got)
	}
	// A watermark beyond anything pushed (a reopened session) moves Last.
	w.Ack(10)
	if w.Len() != 0 || w.Last() != 10 {
		t.Fatalf("after ack 10: len %d last %d", w.Len(), w.Last())
	}
}

func TestStreamWatermarkDecide(t *testing.T) {
	m := NewWatermark(2)
	refused := errors.New("refused")
	calls := 0
	submit := func(err error) func() error {
		return func() error { calls++; return err }
	}
	if v := m.Decide(1, submit(nil)); v.Dup || v.AckDue {
		t.Fatalf("first decide = %+v", v)
	}
	if v := m.Decide(2, submit(refused)); v.Err != refused || !v.AckDue || v.Ack != 2 {
		t.Fatalf("refused decide = %+v, want the error and ack 2", v)
	}
	if v := m.Decide(2, submit(nil)); !v.Dup || v.AckDue {
		t.Fatalf("duplicate decide = %+v", v)
	}
	// The duplicate counted toward the cadence.
	if v := m.Decide(1, submit(nil)); !v.Dup || !v.AckDue || v.Ack != 2 {
		t.Fatalf("second duplicate = %+v, want an ack of 2", v)
	}
	if calls != 2 {
		t.Fatalf("submit ran %d times, want 2", calls)
	}
	if m.AckNow() != 2 {
		t.Fatal("watermark not 2")
	}
}

func TestStreamBackoffCappedAndDeterministic(t *testing.T) {
	a := NewBackoff(10*time.Millisecond, 40*time.Millisecond, 7)
	b := NewBackoff(10*time.Millisecond, 40*time.Millisecond, 7)
	for attempt, base := range []time.Duration{10, 20, 40, 40, 40} {
		base *= time.Millisecond
		d := a.wait(attempt)
		if d < base || d > base+base/2 {
			t.Fatalf("attempt %d waited %v, want %v..%v", attempt, d, base, base+base/2)
		}
		if d2 := b.wait(attempt); d2 != d {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, d, d2)
		}
	}
	stop := make(chan struct{})
	tries := 0
	if !NewBackoff(time.Microsecond, time.Microsecond, 1).Retry(stop, 3, func() bool { tries++; return false }) || tries != 3 {
		t.Fatalf("retry gave up after %d tries, want 3", tries)
	}
	close(stop)
	if NewBackoff(time.Hour, time.Hour, 1).Retry(stop, 3, func() bool { return false }) {
		t.Fatal("retry on a closed stop reported giving up")
	}
}

func TestStreamStateString(t *testing.T) {
	for st, want := range map[State]string{Connected: "connected", Degraded: "degraded", GaveUp: "gave-up", State(9): "state(9)"} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(st), st.String(), want)
		}
	}
}
