package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Conn is the outbound half of a served connection: a frame queue drained
// by a writer goroutine that batches socket writes and arms a deadline
// before each one, so a peer that stops reading is evicted instead of
// wedging the writer. The caller keeps the read side and calls Finish
// when the connection is done. The wire server and the cluster's shard
// links both send through it.
type Conn struct {
	nc       net.Conn
	out      chan outFrame
	done     chan struct{}
	closeOne sync.Once
}

// outFrame is one queued outbound frame; wrote (when non-nil) is closed
// after the frame reaches the socket (or the write path fails), letting a
// final error frame be flushed before the connection is torn down.
type outFrame struct {
	b     []byte
	wrote chan struct{}
}

// NewConn starts the writer for nc with an outbound queue of buffer
// frames. onStall, when non-nil, runs once if a write outlives
// writeTimeout (<= 0 disables the deadline).
func NewConn(nc net.Conn, buffer int, writeTimeout time.Duration, onStall func()) *Conn {
	c := &Conn{nc: nc, out: make(chan outFrame, buffer), done: make(chan struct{})}
	go c.writeLoop(writeTimeout, onStall)
	return c
}

// Finish stops the writer and closes the connection. Idempotent.
func (c *Conn) Finish() {
	c.closeOne.Do(func() { close(c.done) })
	c.nc.Close()
}

// Send queues one encoded frame, blocking while the queue is full (the
// caller applying transport backpressure) but never past the connection's
// end.
func (c *Conn) Send(frame []byte) {
	select {
	case c.out <- outFrame{b: frame}:
	case <-c.done:
	}
}

// TrySend queues one encoded frame without blocking and reports whether it
// was accepted. Alarm pushes use it: they run on a tenant's stream thread,
// which must never stall behind a slow peer.
func (c *Conn) TrySend(frame []byte) bool {
	select {
	case c.out <- outFrame{b: frame}:
		return true
	default:
		return false
	}
}

// SendWait queues one frame and waits, at most timeout, for it to reach the
// socket: the final error frame before a teardown.
func (c *Conn) SendWait(frame []byte, timeout time.Duration) {
	wrote := make(chan struct{})
	select {
	case c.out <- outFrame{b: frame, wrote: wrote}:
	case <-c.done:
		return
	}
	select {
	case <-wrote:
	case <-c.done:
	case <-time.After(timeout):
	}
}

func (c *Conn) writeLoop(writeTimeout time.Duration, onStall func()) {
	bw := newFlushWriter(deadlineWriter{nc: c.nc, timeout: writeTimeout})
	failed := false
	for {
		select {
		case f := <-c.out:
			if !failed {
				if err := bw.write(f.b, len(c.out) == 0); err != nil {
					failed = true
					if IsTimeout(err) && onStall != nil {
						onStall()
					}
					c.nc.Close() // wake the reader; it finishes the conn
				}
			}
			// After a failure, keep draining so senders never park on a
			// dead conn; acknowledge regardless so SendWait cannot hang.
			if f.wrote != nil {
				close(f.wrote)
			}
		case <-c.done:
			return
		}
	}
}

// IsTimeout reports whether err is a network deadline expiry.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// deadlineWriter arms a write deadline before every socket write so a peer
// that stopped reading cannot wedge the writer goroutine forever.
type deadlineWriter struct {
	nc      net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	if w.timeout > 0 {
		w.nc.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	return w.nc.Write(p)
}

// flushWriter batches frame writes, flushing when the outbound queue goes
// idle so a burst costs one syscall, not one per frame.
type flushWriter struct {
	w   io.Writer
	buf []byte
}

func newFlushWriter(w io.Writer) *flushWriter {
	return &flushWriter{w: w, buf: make([]byte, 0, 32<<10)}
}

func (f *flushWriter) write(frame []byte, flush bool) error {
	f.buf = append(f.buf, frame...)
	if !flush && len(f.buf) < 32<<10 {
		return nil
	}
	_, err := f.w.Write(f.buf)
	f.buf = f.buf[:0]
	return err
}
