// Package wire is the TCP transport for the message system: the same
// Send(server, payload) request/reply contract as the in-process
// interconnect, carried as length-prefixed binary frames over real
// sockets. The in-process msg.Network stays the deterministic test
// double; this package is what makes the system servable — a wire
// Server accepts connections and dispatches each request frame into a
// cluster's network, and nsqlclient's pool speaks the same frames from
// another process.
//
// Frame layout (all integers big-endian):
//
//	uint32  length of the remainder (kind + correlation ID + body)
//	byte    kind (request, reply, error reply)
//	uint64  correlation ID, chosen by the requester, echoed by the reply
//	body:
//	  request:     uvarint server-name length, server name, payload
//	  reply:       payload
//	  error reply: byte code, error text
//
// Correlation IDs make the protocol fully pipelined: a connection can
// carry any number of outstanding requests, and replies return in
// completion order, not issue order. Deadlines are the requester's
// business — a client that gives up abandons the correlation ID and
// drops the late reply on arrival — and the server's: it answers a
// request still unanswered at Options.ReplyTimeout with CodeTimeout.
// Both surface as msg.ErrReplyTimeout.
//
// Both ends of a connection send through a Writer and receive through a
// Reader. The Writer is the socket's force point (DESIGN.md §17.1): frames
// that are ready together leave in one write — the sender that finds no
// flush in flight leads one, the rest append behind it and return — with
// no writer goroutine, timer or tuning knob; obs.Wire counts frames and
// socket calls, so frames per write is visible on a live server.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"nonstopsql/internal/obs"
	"nonstopsql/internal/poison"
)

// Frame kinds.
const (
	KindRequest  = 1 // client → server: dispatch payload to a named process
	KindReply    = 2 // server → client: the reply payload
	KindReplyErr = 3 // server → client: transport-level error, coded
)

// Error-reply codes: why the server could not produce a real reply.
const (
	CodeError    = 1 // generic dispatch failure (handler panic, bad frame)
	CodeTimeout  = 2 // the server-side dispatch hit its reply deadline
	CodeDraining = 3 // the server is draining and refuses new work
	CodeNoServer = 4 // no such process registered / process down
)

// MaxFrame is the default cap on one frame's length field: a defense
// against a corrupt or hostile peer allocating unbounded buffers. Large
// bulk-load rows fit comfortably; nothing legitimate approaches it.
const MaxFrame = 16 << 20

// A Frame is one decoded wire message.
type Frame struct {
	Kind   byte
	Corr   uint64
	Server string // request frames only
	Code   byte   // error replies only
	Body   []byte // request/reply payload, or error text

	buf *[]byte // the pooled read buffer Body lies in (nil: not pooled)
}

// Release hands the frame's read buffer back for the next frame and
// drops Body; the header fields stay. Whoever the reader handed the
// frame to calls it once Body is no longer read — the dispatcher once
// the handler has returned, the requester once the reply is copied out —
// and no copy of Body may be read after it. A frame never released is
// simply collected.
func (f *Frame) Release() {
	if f.buf != nil {
		poison.Fill((*f.buf)[:cap(*f.buf)])
		framePool.Put(f.buf)
	}
	f.Body, f.buf = nil, nil
}

// framePool holds read buffers of up to readChunk bytes, shared by every
// connection: a buffer is drawn by a connection's reader and released by
// whichever goroutine consumed the frame, so it goes back to the pool of
// the processor that goroutine ran on, without a lock of the
// connection's. A frame larger than readChunk reads into a buffer of its
// own, as before.
var framePool sync.Pool

// frameBuf returns a pooled buffer of length n <= readChunk.
func frameBuf(n int) *[]byte {
	if bp, _ := framePool.Get().(*[]byte); bp != nil && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n, max(n, 512)) // room for the next frames, which differ in size
	return &b
}

// AppendRequest serializes a request frame onto b.
func AppendRequest(b []byte, corr uint64, server string, payload []byte) []byte {
	n := 1 + 8 + uvarintLen(uint64(len(server))) + len(server) + len(payload)
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	b = append(b, KindRequest)
	b = binary.BigEndian.AppendUint64(b, corr)
	b = binary.AppendUvarint(b, uint64(len(server)))
	b = append(b, server...)
	return append(b, payload...)
}

// AppendReply serializes a reply frame onto b.
func AppendReply(b []byte, corr uint64, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(1+8+len(payload)))
	b = append(b, KindReply)
	b = binary.BigEndian.AppendUint64(b, corr)
	return append(b, payload...)
}

// AppendReplyErr serializes an error-reply frame onto b.
func AppendReplyErr(b []byte, corr uint64, code byte, text string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(1+8+1+len(text)))
	b = append(b, KindReplyErr)
	b = binary.BigEndian.AppendUint64(b, corr)
	b = append(b, code)
	return append(b, text...)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readChunk is the buffered reader's size and the most a frame read
// allocates on the word of a length prefix alone.
const readChunk = 64 << 10

// A Reader is the frame reader of one connection: a buffered reader over
// the socket that counts its refills (obs.Wire.SocketRead) and the frames
// it decodes (FrameIn), and hands out one string for a server name that
// repeats from frame to frame instead of allocating it per request.
type Reader struct {
	br    *bufio.Reader
	stats *obs.Wire
	frameReader
}

// NewReader returns the frame reader for nc, counting into stats. It
// refuses a frame longer than MaxFrame.
func NewReader(nc net.Conn, stats *obs.Wire) *Reader {
	return &Reader{br: bufio.NewReaderSize(countedReader{nc, stats}, readChunk), stats: stats}
}

type countedReader struct {
	r     io.Reader
	stats *obs.Wire
}

func (c countedReader) Read(p []byte) (int, error) {
	c.stats.SocketRead()
	return c.r.Read(p)
}

// Next reads, decodes and counts one frame.
func (r *Reader) Next() (Frame, error) {
	f, n, err := r.read(r.br, MaxFrame)
	if err == nil {
		r.stats.FrameIn(n)
	}
	return f, err
}

// frameReader is what decoding keeps from one frame to the next: the
// length prefix's four bytes (a local would be allocated per frame, since
// it is read through an interface) and the last request's server name,
// reused when the next frame names the same process.
type frameReader struct {
	hdr    [4]byte
	server string
}

// read reads and decodes one frame, returning the total wire bytes
// consumed (length prefix included). Frames above maxFrame are rejected
// before any body allocation. The caller owns the frame and may Release
// it once Body is read. A frame of up to readChunk bytes reads into a pooled
// buffer (Frame.Release). A length prefix is a claim, not bytes: a longer
// frame's buffer starts at readChunk and doubles only as the bytes before
// it have actually arrived, so a peer that announces MaxFrame and stalls
// costs one chunk.
func (fr *frameReader) read(r io.Reader, maxFrame int) (Frame, int, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if maxFrame <= 0 {
		maxFrame = MaxFrame
	}
	if n < 1+8 || n > maxFrame {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d out of range", n)
	}
	var bp *[]byte
	var buf []byte
	if n <= readChunk {
		bp = frameBuf(n)
		buf = *bp
	} else {
		buf = make([]byte, readChunk)
	}
	for got := 0; ; {
		if _, err := io.ReadFull(r, buf[got:]); err != nil {
			(&Frame{buf: bp}).Release()
			return Frame{}, 0, fmt.Errorf("wire: truncated frame: %w", err)
		}
		if got = len(buf); got == n {
			break
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, buf)
		buf = grown
	}
	f := Frame{Kind: buf[0], Corr: binary.BigEndian.Uint64(buf[1:9]), buf: bp}
	body := buf[9:]
	switch f.Kind {
	case KindRequest:
		l, sz := binary.Uvarint(body)
		if sz <= 0 || uint64(len(body)-sz) < l {
			f.Release()
			return Frame{}, 0, fmt.Errorf("wire: bad server name in request frame")
		}
		if name := body[sz : sz+int(l)]; string(name) != fr.server {
			fr.server = string(name)
		}
		f.Server = fr.server
		f.Body = body[sz+int(l):]
	case KindReply:
		f.Body = body
	case KindReplyErr:
		if len(body) < 1 {
			f.Release()
			return Frame{}, 0, fmt.Errorf("wire: truncated error reply")
		}
		f.Code = body[0]
		f.Body = body[1:]
	default:
		f.Release()
		return Frame{}, 0, fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	return f, 4 + n, nil
}
