package stream

import (
	"sync"
	"sync/atomic"
)

// Sender is the connection a Bank pushes alarm frames to.
type Sender interface {
	// Send queues a frame, blocking while the queue is full but never
	// past the connection's end.
	Send(frame []byte)
	// TrySend queues a frame without blocking and reports whether it fit.
	TrySend(frame []byte) bool
}

// Counters tallies one receiver's alarm deliveries across all its banks.
// Every alarm a bank accepts is counted once in Pushed or Banked.
type Counters struct {
	// Pushed counts alarms sent live when raised; Banked those held for a
	// later send because no sender was attached or its queue was full.
	Pushed, Banked atomic.Uint64
	// Replayed counts banked frames sent later: the replay to an attaching
	// sender, or a full queue's backlog once it drains.
	Replayed atomic.Uint64
	// Dropped counts real loss: an unconfirmed alarm evicted by overflow,
	// or one that failed to encode.
	Dropped atomic.Uint64
}

// Bank is a receiver's indexed alarm bank. Each alarm gets the next index
// and stays banked, pre-encoded, until the sender confirms receipt; the
// live sender, when one is attached, sees the indices in ascending order.
// Overflow evicts the oldest unconfirmed alarm and counts it dropped. Safe
// for concurrent use.
type Bank struct {
	cap int
	n   *Counters

	mu   sync.Mutex
	to   Sender   // live sender; nil while orphaned or attaching
	gen  uint64   // bumped by every Attach and Detach; a superseded Attach does not publish
	idx  uint64   // last assigned alarm index
	sent uint64   // highest index handed to the live sender
	ring [][]byte // pre-encoded frames of consecutive indices ending at idx
}

// NewBank returns an empty, orphaned bank holding at most capacity
// unconfirmed alarms and tallying into n.
func NewBank(capacity int, n *Counters) *Bank {
	return &Bank{cap: capacity, n: n}
}

// Index reports the last assigned alarm index.
func (b *Bank) Index() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.idx
}

// Push assigns the next alarm index, banks the frame encode builds for it,
// and sends it to the live sender behind any backlog a full queue left. It
// takes only the bank's lock and never blocks; encode runs under that lock
// (so indices bank in order) and must not call back into the bank. Push
// returns the live sender when its queue was full, nil otherwise.
func (b *Bank) Push(encode func(idx uint64) ([]byte, error)) (full Sender) {
	b.mu.Lock()
	defer b.mu.Unlock()
	frame, err := encode(b.idx + 1)
	if err != nil {
		b.n.Dropped.Add(1)
		return nil
	}
	b.idx++
	if len(b.ring) >= b.cap {
		// Every entry is unconfirmed (receipts pruned the rest), so an
		// eviction is a real, counted loss — never silent.
		b.ring = append(b.ring[:0], b.ring[1:]...)
		b.n.Dropped.Add(1)
	}
	b.ring = append(b.ring, frame)
	if b.to == nil {
		b.n.Banked.Add(1)
		return nil
	}
	backlog := b.tailLocked(b.sent)
	first := b.idx + 1 - uint64(len(backlog))
	for i, f := range backlog {
		if !b.to.TrySend(f) {
			b.n.Banked.Add(1)
			return b.to
		}
		b.sent = first + uint64(i)
		if i < len(backlog)-1 {
			b.n.Replayed.Add(1)
		}
	}
	b.n.Pushed.Add(1)
	return nil
}

// Confirm prunes every alarm at or below the sender's cumulative receipt.
func (b *Bank) Confirm(idx uint64) {
	b.mu.Lock()
	b.ring = append(b.ring[:0], b.tailLocked(idx)...)
	b.mu.Unlock()
}

// tailLocked returns the banked frames above index after, oldest first.
func (b *Bank) tailLocked(after uint64) [][]byte {
	if after >= b.idx {
		return nil
	}
	return b.ring[len(b.ring)-int(min(uint64(len(b.ring)), b.idx-after)):]
}

// Attach makes to the live sender. It prunes what the sender confirmed,
// sends head's frame (built for the current index) when head is non-nil,
// and replays every unconfirmed alarm in order. Pushes meanwhile only
// bank; to goes live only after it has been sent everything they banked,
// so no live alarm overtakes the replay. Attach blocks on to's queue: call
// it from the connection's reader, never from a push. A later Attach or
// Detach supersedes one still replaying, which then returns without
// publishing.
func (b *Bank) Attach(to Sender, confirmed uint64, head func(idx uint64) []byte) {
	b.mu.Lock()
	b.ring = append(b.ring[:0], b.tailLocked(confirmed)...)
	b.gen++
	gen := b.gen
	b.to = nil
	sent := b.idx
	replay := append([][]byte(nil), b.ring...)
	b.mu.Unlock()
	if head != nil {
		if f := head(sent); f != nil {
			to.Send(f)
		}
	}
	for {
		for _, f := range replay {
			b.n.Replayed.Add(1)
			to.Send(f)
		}
		b.mu.Lock()
		if b.gen != gen {
			b.mu.Unlock()
			return
		}
		if b.idx == sent {
			b.to, b.sent = to, sent
			b.mu.Unlock()
			return
		}
		replay = append(replay[:0], b.tailLocked(sent)...)
		sent = b.idx
		b.mu.Unlock()
	}
}

// Detach orphans the bank if from is the live sender and reports whether
// it was; pushes then only bank until the next Attach.
func (b *Bank) Detach(from Sender) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.to == nil || b.to != from {
		return false
	}
	b.to = nil
	b.gen++
	return true
}

// Holds reports whether s is the live sender.
func (b *Bank) Holds(s Sender) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.to != nil && b.to == s
}
