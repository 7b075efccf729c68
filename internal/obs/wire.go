package obs

import "sync/atomic"

// A Wire counts transport-level activity on one TCP endpoint of the
// serving path — a wire server's listen socket or a client pool's
// connection set. Where msg.Stats counts the logical conversations
// (requests, replies, payload bytes), Wire counts what actually crossed
// the socket: frames with their length/correlation-ID framing overhead
// included. All counters are atomic; Record methods are safe from any
// number of goroutines. The zero value is ready to use.
type Wire struct {
	conns       atomic.Uint64 // connections opened (accepts or dials)
	disconnects atomic.Uint64 // connections that ended, cleanly or not
	redials     atomic.Uint64 // client reconnects after a broken connection
	framesIn    atomic.Uint64
	framesOut   atomic.Uint64
	writes      atomic.Uint64 // socket writes; the flush puts many frames in one
	reads       atomic.Uint64 // socket reads behind the buffered frame reader
	bytesIn     atomic.Uint64 // wire bytes received, framing included
	bytesOut    atomic.Uint64 // wire bytes sent, framing included
	errors      atomic.Uint64 // I/O or frame-decode failures
	timeouts    atomic.Uint64 // requests abandoned at their reply deadline
	rejected    atomic.Uint64 // requests refused by a draining server
}

// ConnOpened counts one accepted or dialed connection.
func (w *Wire) ConnOpened() { w.conns.Add(1) }

// ConnClosed counts one ended connection.
func (w *Wire) ConnClosed() { w.disconnects.Add(1) }

// Redial counts one client reconnect after a broken connection.
func (w *Wire) Redial() { w.redials.Add(1) }

// FrameIn counts one received frame of n wire bytes (framing included).
func (w *Wire) FrameIn(n int) {
	w.framesIn.Add(1)
	w.bytesIn.Add(uint64(n))
}

// FrameOut counts one sent frame of n wire bytes (framing included).
func (w *Wire) FrameOut(n int) {
	w.framesOut.Add(1)
	w.bytesOut.Add(uint64(n))
}

// SocketWrite counts one write call on the socket. FramesOut over Writes
// is the batching the frame flush achieves (wire.Writer).
func (w *Wire) SocketWrite() { w.writes.Add(1) }

// SocketRead counts one read call on the socket (a buffer refill).
func (w *Wire) SocketRead() { w.reads.Add(1) }

// Error counts one I/O or frame-decode failure.
func (w *Wire) Error() { w.errors.Add(1) }

// Timeout counts one request abandoned at its reply deadline.
func (w *Wire) Timeout() { w.timeouts.Add(1) }

// Rejected counts one request refused by a draining server.
func (w *Wire) Rejected() { w.rejected.Add(1) }

// Snapshot copies the counters into a plain value.
func (w *Wire) Snapshot() WireStats {
	return WireStats{
		Conns:       w.conns.Load(),
		Disconnects: w.disconnects.Load(),
		Redials:     w.redials.Load(),
		FramesIn:    w.framesIn.Load(),
		FramesOut:   w.framesOut.Load(),
		Writes:      w.writes.Load(),
		Reads:       w.reads.Load(),
		BytesIn:     w.bytesIn.Load(),
		BytesOut:    w.bytesOut.Load(),
		Errors:      w.errors.Load(),
		Timeouts:    w.timeouts.Load(),
		Rejected:    w.rejected.Load(),
	}
}

// WireStats is a point-in-time copy of a Wire's counters.
type WireStats struct {
	Conns       uint64
	Disconnects uint64
	Redials     uint64
	FramesIn    uint64
	FramesOut   uint64
	Writes      uint64 // socket write calls
	Reads       uint64 // socket read calls
	BytesIn     uint64
	BytesOut    uint64
	Errors      uint64
	Timeouts    uint64
	Rejected    uint64
}

// Frames returns the total frame count, both directions.
func (s WireStats) Frames() uint64 { return s.FramesIn + s.FramesOut }

// FramesPerWrite returns how many frames one socket write carried on
// average (0 before the first write).
func (s WireStats) FramesPerWrite() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.FramesOut) / float64(s.Writes)
}
