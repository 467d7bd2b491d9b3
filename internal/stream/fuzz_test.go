package stream

import (
	"errors"
	"testing"
)

// harness wires a sender's Window to a receiver's Watermark and Bank over
// a scripted link, so a fuzz input byte by byte decides which side moves
// next. Event frames travel in order on the link; acks and receipts ride
// back at once; dropping the link loses everything in flight on it.
type harness struct {
	t *testing.T

	win  *Window[uint64]
	wm   *Watermark
	n    Counters
	bank *Bank
	link *fuzzLink

	decided  uint64          // highest sequence the receiver submitted
	recvIdx  uint64          // sender's alarm receipt index
	received map[uint64]bool // alarm indices the sender took delivery of
	skipped  uint64          // indices jumped over on receipt
}

// fuzzLink is one connection: event frames in flight to the receiver and
// alarm frames in flight to the sender. TrySend refuses past room queued
// alarm frames; hook, when set, runs inside the next Send.
type fuzzLink struct {
	up     bool
	events []uint64
	alarms [][]byte
	room   int
	last   uint64 // highest alarm index queued on this link
	hook   func()
	t      *testing.T
}

func (l *fuzzLink) Send(f []byte) {
	if h := l.hook; h != nil {
		l.hook = nil
		h()
	}
	l.queue(f)
}

func (l *fuzzLink) TrySend(f []byte) bool {
	if len(l.alarms) >= l.room {
		return false
	}
	l.queue(f)
	return true
}

// queue appends an alarm frame, checking the bank's per-link promise:
// indices on one connection strictly ascend (index 0 is the head frame).
func (l *fuzzLink) queue(f []byte) {
	if idx := indexOf(f); idx != 0 {
		if idx <= l.last {
			l.t.Fatalf("alarm %d queued after %d on one link", idx, l.last)
		}
		l.last = idx
	}
	if l.up {
		l.alarms = append(l.alarms, f)
	}
}

var errRefused = errors.New("refused")

func newHarness(t *testing.T) *harness {
	h := &harness{
		t:        t,
		win:      NewWindow(8, func(s uint64) uint64 { return s }),
		wm:       NewWatermark(3),
		link:     &fuzzLink{t: t},
		received: make(map[uint64]bool),
	}
	h.bank = NewBank(4, &h.n)
	return h
}

func (h *harness) submit(seq uint64) func() error {
	return func() error {
		if seq != h.decided+1 {
			h.t.Fatalf("submitted seq %d after %d: not exactly once in order", seq, h.decided)
		}
		h.decided = seq
		if seq%5 == 0 {
			return errRefused // a refusal is a decision too
		}
		return nil
	}
}

func (h *harness) step(op byte) {
	arg := op >> 3
	l := h.link
	switch op & 7 {
	case 0: // the sender submits one more event
		if h.win.Full() {
			return
		}
		h.win.Push(h.win.Last() + 1)
		if l.up {
			l.events = append(l.events, h.win.Unsent()...)
		}
	case 1: // one event frame lands
		if !l.up || len(l.events) == 0 {
			return
		}
		seq := l.events[0]
		l.events = l.events[1:]
		v := h.wm.Decide(seq, h.submit(seq))
		if v.Dup && seq > h.decided {
			h.t.Fatalf("seq %d above watermark %d reported duplicate", seq, h.decided)
		}
		if v.AckDue {
			h.win.Ack(v.Ack)
		}
	case 2: // keepalive: the receiver acknowledges outside the cadence
		if l.up {
			h.win.Ack(h.wm.AckNow())
		}
	case 3: // the link dies
		if !l.up {
			return
		}
		l.up = false
		l.events, l.alarms = nil, nil
		h.bank.Detach(l)
	case 4: // a new link attaches and resumes both directions
		if l.up {
			return
		}
		h.resume(1+int(arg&3), arg&4 != 0)
	case 5: // a zombie delivery replays an already decided event
		if l.up && h.decided > 0 {
			l.events = append([]uint64{1 + uint64(arg)%h.decided}, l.events...)
		}
	case 6: // the receiver raises an alarm
		h.bank.Push(frameOf)
	case 7: // one alarm frame reaches the sender, which confirms receipt
		if !l.up || len(l.alarms) == 0 {
			return
		}
		f := l.alarms[0]
		l.alarms = l.alarms[1:]
		h.receive(indexOf(f))
	}
}

// resume attaches a fresh link: the head frame carries the watermark the
// sender prunes to before it retransmits; pushAmid raises an alarm while
// the replay is being sent.
func (h *harness) resume(room int, pushAmid bool) {
	l := &fuzzLink{up: true, room: room, t: h.t}
	h.link = l
	if pushAmid {
		l.hook = func() { h.bank.Push(frameOf) }
	}
	wm := h.wm.AckNow()
	h.bank.Attach(l, h.recvIdx, func(uint64) []byte { return make([]byte, 8) })
	l.events = append(l.events, h.win.Resume(wm)...)
}

func (h *harness) receive(idx uint64) {
	switch {
	case idx == 0: // head frame
	case idx <= h.recvIdx:
		if !h.received[idx] {
			h.t.Fatalf("alarm %d arrived after %d and was dropped as a duplicate: lost uncounted", idx, h.recvIdx)
		}
	default:
		h.skipped += idx - h.recvIdx - 1
		if h.skipped > h.n.Dropped.Load() {
			h.t.Fatalf("receipt jumped to alarm %d: %d skipped, only %d counted dropped", idx, h.skipped, h.n.Dropped.Load())
		}
		h.recvIdx = idx
		h.received[idx] = true
		h.bank.Confirm(idx)
	}
}

// settle resumes on a roomy link and drains both directions to quiescence.
func (h *harness) settle() {
	if h.link.up {
		h.step(3)
	}
	h.resume(1<<20, false)
	for len(h.link.events) > 0 {
		h.step(1)
	}
	h.step(2)
	for len(h.link.alarms) > 0 {
		h.step(7)
	}
}

// FuzzStream drives a sender window, a receiver watermark and an alarm
// bank through byte-coded operation sequences — send, deliver, ack, drop
// link, resume, duplicate, alarm, receipt — and checks that every event is
// submitted exactly once in order and that every alarm reaches the sender
// in order or is counted dropped.
func FuzzStream(f *testing.F) {
	f.Add([]byte{0, 0, 1, 6, 7, 3, 6, 6, 0, 4, 1, 1, 7, 7, 7})
	f.Add([]byte{6, 6, 6, 6, 6, 6, 4 | 4<<3, 7, 7, 7, 3, 6, 6, 12, 7})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 5, 5, 1, 1, 3, 4, 1, 1, 1, 1, 2})
	f.Add([]byte{4, 6, 6, 6, 7, 6, 7, 7, 7, 3, 6, 4 | 7<<3, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newHarness(t)
		for _, op := range ops {
			h.step(op)
		}
		h.settle()
		if h.decided != h.win.Last() || h.win.Len() != 0 {
			t.Fatalf("sent %d events, %d decided, %d still in the window", h.win.Last(), h.decided, h.win.Len())
		}
		raised := h.bank.Index()
		if got := uint64(len(h.received)) + h.skipped; got != raised {
			t.Fatalf("raised %d alarms, received %d + skipped %d", raised, len(h.received), h.skipped)
		}
		if h.skipped > h.n.Dropped.Load() {
			t.Fatalf("%d alarms skipped, %d counted dropped", h.skipped, h.n.Dropped.Load())
		}
		if got := h.n.Pushed.Load() + h.n.Banked.Load(); got != raised {
			t.Fatalf("pushed %d + banked %d != raised %d", h.n.Pushed.Load(), h.n.Banked.Load(), raised)
		}
	})
}
