package wire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"nonstopsql/internal/obs"
)

// maxPending is the one constant of the frame flush: a sender that finds
// this many bytes already waiting behind a flush in flight waits for that
// flush instead of appending, so a peer that stops reading blocks its
// senders here the way a socket write under a mutex would. It is also
// the largest buffer the writer keeps between flushes.
const maxPending = 256 << 10

// A Writer is the frame writer of one connection incarnation: the
// socket's force point (DESIGN.md §17.1). Senders on any number of
// goroutines encode their frames straight into a shared pending buffer;
// a sender that finds no flush in flight leads one — it yields the
// processor once, which lets every sender that is already runnable
// append behind it, then takes the buffer and writes it with the mutex
// released, and repeats until nothing is pending. A sender that finds a
// flush in flight returns as soon as its frame is appended: the leader
// does not return before that frame is on the socket. There is no writer
// goroutine and no timer; how many frames share a write is decided by
// how many were ready when the leader looked.
//
// A failed write is sticky: the leader and every later sender get the
// error, and the owner tears the connection down. Frames are counted
// out (obs.Wire.FrameOut) when they are appended, before the peer can
// possibly hold them.
type Writer struct {
	nc    net.Conn
	stats *obs.Wire

	mu       sync.Mutex
	flushed  *sync.Cond  // a write finished, or the flush in flight ended
	pending  []byte      // encoded frames no write has taken yet
	flushing bool        // a leader is out with, or about to take, the buffer
	err      error       // the write that broke the connection
	joinable atomic.Bool // flushing && len(pending) < maxPending, for Joinable

	spare []byte // the leader's: the buffer the last write took
}

// NewWriter returns the frame writer for nc, counting into stats.
func NewWriter(nc net.Conn, stats *obs.Wire) *Writer {
	w := &Writer{nc: nc, stats: stats}
	w.flushed = sync.NewCond(&w.mu)
	return w
}

// Request sends a request frame.
func (w *Writer) Request(corr uint64, server string, payload []byte) error {
	return w.send(func(b []byte) []byte { return AppendRequest(b, corr, server, payload) })
}

// Reply sends a reply frame.
func (w *Writer) Reply(corr uint64, payload []byte) error {
	return w.send(func(b []byte) []byte { return AppendReply(b, corr, payload) })
}

// ReplyErr sends an error-reply frame.
func (w *Writer) ReplyErr(corr uint64, code byte, text string) error {
	return w.send(func(b []byte) []byte { return AppendReplyErr(b, corr, code, text) })
}

// send appends one frame to the pending buffer and, unless a flush is in
// flight, leads one. Behind a flush in flight it first waits until the
// pending buffer is under the cap.
func (w *Writer) send(appendFrame func([]byte) []byte) error {
	w.mu.Lock()
	for w.err == nil && w.flushing && len(w.pending) >= maxPending {
		w.flushed.Wait()
	}
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	before := len(w.pending)
	w.pending = appendFrame(w.pending)
	w.stats.FrameOut(len(w.pending) - before)
	w.joinable.Store(len(w.pending) < maxPending) // a flush is in flight, or this sender leads one
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	w.mu.Unlock()
	runtime.Gosched() // the whole coalescing window, as in wal.Trail
	w.mu.Lock()
	for len(w.pending) > 0 && w.err == nil {
		data := w.pending
		w.pending = w.spare[:0]
		w.joinable.Store(true)
		w.mu.Unlock()
		w.stats.SocketWrite()
		_, err := w.nc.Write(data)
		w.mu.Lock()
		if cap(data) > maxPending {
			data = nil // one huge frame does not pin its buffer to the connection
		}
		w.spare, w.err = data, err
		// Wakes senders held at the cap and, after the last write, Flush:
		// the mutex is not released between here and flushing = false.
		w.flushed.Broadcast()
	}
	w.flushing = false
	w.joinable.Store(false)
	err := w.err
	w.mu.Unlock()
	return err
}

// Joinable reports, without the mutex, whether a frame sent now would
// join a flush already forming and find room under the cap: it would
// share a write it does not lead, and not wait. A connection pool picks
// by it; it may be stale by the time the frame is sent, which costs
// only the write the frame would have shared.
func (w *Writer) Joinable() bool { return w.joinable.Load() }

// Flush returns once every frame accepted before the call is on the
// socket (or the connection has failed): outside a flush nothing is
// pending, so it only has to wait out the one in flight.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.flushing {
		w.flushed.Wait()
	}
	return w.err
}
