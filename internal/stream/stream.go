// Package stream holds the exactly-once stream state machines shared by
// the wire server's producer sessions and the cluster's shard links. A
// stream joins a sender and a receiver over a connection that may die and
// be replaced. The sender keeps a Window of unacknowledged items, resumed
// for retransmission after each reconnect, and paces reconnects with a
// Backoff. The receiver decides each sequence number exactly once at its
// Watermark, and keeps each alarm it pushes back in an indexed Bank until
// the sender confirms receipt. The package never encodes: callers hand it
// their values and pre-encoded frames, and frames leave through whatever
// Sender the caller attaches.
//
// Two rules hold on every stream. The watermark's lock is held across the
// caller's submit, so a zombie connection racing its replacement
// serializes there, while an alarm push takes only the bank's lock and
// never blocks. And a connection attaching to a bank receives the replayed
// tail before any live alarm: pushes only bank while Attach replays, and
// the connection goes live only once it has been sent everything banked
// meanwhile.
package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// State is a reconnecting sender's connection health.
type State int

const (
	// Connected: a live connection is attached.
	Connected State = iota
	// Degraded: the connection died; reconnects are running and the
	// sender banks new items in its window meanwhile.
	Degraded
	// GaveUp: the reconnect attempts ran out; the sender is terminally
	// down.
	GaveUp
)

func (s State) String() string {
	switch s {
	case Connected:
		return "connected"
	case Degraded:
		return "degraded"
	case GaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Backoff paces reconnect attempts: attempt n waits min doubled n times,
// capped at max, plus up to 50% jitter. Jitter exists to de-synchronize a
// fleet; drawing it from a seeded source keeps one sender's schedule
// replayable in tests. Safe for concurrent use.
type Backoff struct {
	min, max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns a backoff between min and max with jitter drawn from
// seed.
func NewBackoff(min, max time.Duration, seed int64) *Backoff {
	return &Backoff{min: min, max: max, rng: rand.New(rand.NewSource(seed))}
}

// wait returns the delay before reconnect attempt n (counting from 0).
func (b *Backoff) wait(attempt int) time.Duration {
	d := b.min
	for i := 0; i < attempt && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	b.mu.Lock()
	j := time.Duration(b.rng.Int63n(int64(d)/2 + 1))
	b.mu.Unlock()
	return d + j
}

// Retry waits out the backoff before each call to try, until try reports
// that retrying is over, stop closes, or maxAttempts consecutive calls
// have not ended it. It reports whether the attempts ran out.
func (b *Backoff) Retry(stop <-chan struct{}, maxAttempts int, try func() (done bool)) (gaveUp bool) {
	for attempt := 0; ; attempt++ {
		select {
		case <-time.After(b.wait(attempt)):
		case <-stop:
			return false
		}
		if try() {
			return false
		}
		if attempt+1 >= maxAttempts {
			return true
		}
	}
}
