package stream

import "sync"

// Window is a sender's bounded run of sent-but-unacknowledged items in
// strictly increasing sequence order, read off each item by seq. A
// cumulative ack prunes it from the front; a sent mark splits the items
// already written to the current connection from the tail still to write.
// It is not safe for concurrent use: the sender's lock guards it.
type Window[T any] struct {
	seq   func(T) uint64
	cap   int
	items []T
	acked uint64 // cumulative watermark: everything at or below is decided
	last  uint64 // highest sequence pushed or acknowledged
	sent  uint64 // highest sequence written to the current connection
}

// NewWindow returns an empty window holding at most capacity items.
func NewWindow[T any](capacity int, seq func(T) uint64) *Window[T] {
	return &Window[T]{seq: seq, cap: capacity}
}

// Len reports how many items wait unacknowledged.
func (w *Window[T]) Len() int { return len(w.items) }

// Full reports whether the window is at capacity.
func (w *Window[T]) Full() bool { return len(w.items) >= w.cap }

// Last reports the highest sequence pushed or acknowledged; the next
// item's sequence must exceed it.
func (w *Window[T]) Last() uint64 { return w.last }

// Acked reports the receiver's cumulative watermark.
func (w *Window[T]) Acked() uint64 { return w.acked }

// Push appends v. The caller has checked that its sequence exceeds Last
// and that the window is not Full.
func (w *Window[T]) Push(v T) {
	w.items = append(w.items, v)
	w.last = w.seq(v)
}

// Ack prunes every item at or below the cumulative watermark wm and
// reports whether the watermark advanced. A watermark above Last (the
// receiver decided items an earlier sender pushed) moves Last up to it, so
// a new item is never taken for a decided one.
func (w *Window[T]) Ack(wm uint64) bool {
	if wm <= w.acked {
		return false
	}
	w.acked = wm
	w.last = max(w.last, wm)
	keep := 0
	for ; keep < len(w.items) && w.seq(w.items[keep]) <= wm; keep++ {
	}
	if keep > 0 {
		w.items = append(w.items[:0], w.items[keep:]...)
	}
	return true
}

// Unsent returns the items above the sent mark, in order, and moves the
// mark past them. The slice aliases the window: use it before the next
// Push or Ack.
func (w *Window[T]) Unsent() []T {
	at := len(w.items)
	for at > 0 && w.seq(w.items[at-1]) > w.sent {
		at--
	}
	w.sent = w.last
	return w.items[at:]
}

// Resume prunes to the watermark a new connection reported and returns
// every item left, in order, to retransmit on it; they count as sent.
func (w *Window[T]) Resume(wm uint64) []T {
	w.Ack(wm)
	w.sent = w.acked
	return w.Unsent()
}

// Watermark is a receiver's decided-sequence watermark: every sequence at
// or below it was submitted exactly once, and one cumulative ack is due per
// every frames received. Safe for concurrent use.
type Watermark struct {
	every int

	mu       sync.Mutex
	wm       uint64
	sinceAck int
}

// NewWatermark returns a watermark at zero that asks for an ack every
// ackEvery frames.
func NewWatermark(ackEvery int) *Watermark { return &Watermark{every: ackEvery} }

// Verdict is the outcome of one Decide.
type Verdict struct {
	// Dup reports a sequence already decided: submit did not run.
	Dup bool
	// Err is submit's error. A refusal is still a decision: the watermark
	// advanced past it.
	Err error
	// Ack, when AckDue, is the cumulative watermark to acknowledge.
	Ack    uint64
	AckDue bool
}

// Decide runs submit for seq unless seq is at or below the watermark, and
// then advances the watermark to seq. The lock is held across submit, so a
// zombie connection racing its replacement serializes here, keeping
// admission exactly-once and in sequence order. Duplicates count toward
// the ack cadence too: the cumulative ack covers them, and a sender whose
// replay is all duplicates still hears back.
func (m *Watermark) Decide(seq uint64, submit func() error) Verdict {
	var v Verdict
	m.mu.Lock()
	if seq <= m.wm {
		v.Dup = true
	} else {
		v.Err = submit()
		m.wm = seq
	}
	m.sinceAck++
	if m.sinceAck >= m.every {
		m.sinceAck = 0
		v.Ack, v.AckDue = m.wm, true
	}
	m.mu.Unlock()
	return v
}

// AckNow restarts the ack cadence and returns the watermark, for a reply
// that acknowledges cumulatively outside the cadence (a resume or control
// reply, a keepalive).
func (m *Watermark) AckNow() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sinceAck = 0
	return m.wm
}
