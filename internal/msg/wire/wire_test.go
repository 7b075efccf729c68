package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(AppendRequest(nil, 7, "$SQL", []byte("select")))
	buf.Write(AppendReply(nil, 7, []byte("rows")))
	buf.Write(AppendReplyErr(nil, 9, CodeTimeout, "too slow"))

	wireLen := buf.Len()
	r := bufio.NewReader(&buf)

	f, n1, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if f.Kind != KindRequest || f.Corr != 7 || f.Server != "$SQL" || string(f.Body) != "select" {
		t.Fatalf("request frame mismatch: %+v", f)
	}

	f, n2, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("reply: %v", err)
	}
	if f.Kind != KindReply || f.Corr != 7 || string(f.Body) != "rows" {
		t.Fatalf("reply frame mismatch: %+v", f)
	}

	f, n3, err := ReadFrame(r, 0)
	if err != nil {
		t.Fatalf("error reply: %v", err)
	}
	if f.Kind != KindReplyErr || f.Corr != 9 || f.Code != CodeTimeout || string(f.Body) != "too slow" {
		t.Fatalf("error reply frame mismatch: %+v", f)
	}

	if n1+n2+n3 != wireLen {
		t.Fatalf("consumed %d bytes, encoded %d", n1+n2+n3, wireLen)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// Oversize length field: rejected before any body allocation.
	huge := AppendReply(nil, 1, make([]byte, 1024))
	if _, _, err := ReadFrame(bytes.NewReader(huge), 64); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// Unknown kind.
	bad := AppendReply(nil, 1, nil)
	bad[4] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad), 0); err == nil {
		t.Fatal("unknown frame kind accepted")
	}
	// Truncated stream.
	trunc := AppendReply(nil, 1, []byte("payload"))
	if _, _, err := ReadFrame(bytes.NewReader(trunc[:len(trunc)-3]), 0); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// echoNet builds a network with an uppercasing echo server on node 0.
func echoNet(t *testing.T) *msg.Network {
	t.Helper()
	n := msg.NewNetwork()
	_, err := n.StartServer("echo", msg.ProcessorID{Node: 0, CPU: 0}, 4, func(req []byte) []byte {
		return bytes.ToUpper(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// rawConn dials the server and returns the conn plus a frame reader.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

func TestServerDispatch(t *testing.T) {
	n := echoNet(t)
	s, err := Listen("127.0.0.1:0", n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nc, br := rawConn(t, s.Addr())
	if _, err := nc.Write(AppendRequest(nil, 42, "echo", []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindReply || f.Corr != 42 || string(f.Body) != "HELLO" {
		t.Fatalf("bad reply: %+v", f)
	}

	// The ingress client lives outside every node, so the dispatched
	// conversation must classify as DistNetwork and feed the network
	// latency bucket with a real sample.
	st := n.Stats()
	if st.Requests != 1 || st.Replies != 1 || st.Network != 1 {
		t.Fatalf("network stats: %+v", st)
	}
	if got := n.LatencyAll().Count(); got != 1 {
		t.Fatalf("latency samples = %d, want the one DistNetwork conversation's", got)
	}
	ws := s.Stats()
	if ws.FramesIn != 1 || ws.FramesOut != 1 || ws.Conns != 1 {
		t.Fatalf("wire stats: %+v", ws)
	}
}

// TestFrameOutCountedBeforeReplyVisible reads the wire stats the instant
// each reply arrives: the reply's FrameOut must already be in them, or
// FramesIn != FramesOut flickers for any client fast enough to look.
func TestFrameOutCountedBeforeReplyVisible(t *testing.T) {
	s, err := Listen("127.0.0.1:0", echoNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nc, br := rawConn(t, s.Addr())
	for i := uint64(1); i <= 500; i++ {
		if _, err := nc.Write(AppendRequest(nil, i, "echo", []byte("x"))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrame(br, 0); err != nil {
			t.Fatal(err)
		}
		if ws := s.Stats(); ws.FramesIn != i || ws.FramesOut != i {
			t.Fatalf("reply %d in hand, stats say %d frames in, %d out", i, ws.FramesIn, ws.FramesOut)
		}
	}
}

func TestServerPipelinesOneConnection(t *testing.T) {
	n := msg.NewNetwork()
	release := make(chan struct{})
	_, err := n.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, 2, func(req []byte) []byte {
		if string(req) == "slow" {
			<-release
		}
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nc, br := rawConn(t, s.Addr())
	// Issue the slow request first, the fast one second, on one
	// connection: pipelining means the fast reply overtakes.
	b := AppendRequest(nil, 1, "gated", []byte("slow"))
	b = AppendRequest(b, 2, "gated", []byte("fast"))
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Corr != 2 || string(f.Body) != "fast" {
		t.Fatalf("first reply should be the fast request: %+v", f)
	}
	close(release)
	f, _, err = ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Corr != 1 || string(f.Body) != "slow" {
		t.Fatalf("second reply should be the slow request: %+v", f)
	}
}

func TestServerErrorMapping(t *testing.T) {
	n := msg.NewNetwork()
	_, err := n.StartServer("panicky", msg.ProcessorID{Node: 0, CPU: 0}, 1, func(req []byte) []byte {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	stall := make(chan struct{})
	_, err = n.StartServer("stuck", msg.ProcessorID{Node: 0, CPU: 0}, 1, func(req []byte) []byte {
		<-stall
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", n, Options{ReplyTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nc, br := rawConn(t, s.Addr())
	ask := func(corr uint64, server string) Frame {
		t.Helper()
		if _, err := nc.Write(AppendRequest(nil, corr, server, nil)); err != nil {
			t.Fatal(err)
		}
		f, _, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Corr != corr {
			t.Fatalf("correlation mismatch: got %d want %d", f.Corr, corr)
		}
		return f
	}

	if f := ask(1, "nowhere"); f.Kind != KindReplyErr || f.Code != CodeNoServer {
		t.Fatalf("unknown server: %+v", f)
	}
	if f := ask(2, "panicky"); f.Kind != KindReplyErr || f.Code != CodeError {
		t.Fatalf("panicking handler: %+v", f)
	}
	if f := ask(3, "stuck"); f.Kind != KindReplyErr || f.Code != CodeTimeout {
		t.Fatalf("timed-out handler: %+v", f)
	}
	// Even through error paths the in-process accounting reconciles —
	// the abandoned request's reply is charged when its handler finally
	// returns, so release it and wait for the books to balance.
	close(stall)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := n.Stats()
		if st.Requests == st.Replies {
			if st.Requests != 2 { // panicky + stuck; the unknown server charged nothing
				t.Fatalf("requests = %d, want 2", st.Requests)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests %d != replies %d after release", st.Requests, st.Replies)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerDrain(t *testing.T) {
	n := msg.NewNetwork()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	// Only the first request is held; a probe frame that beats the drain
	// flag is answered at once by the second worker instead of queueing
	// behind it (and hanging the probe loop below).
	var held atomic.Bool
	_, err := n.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, 2, func(req []byte) []byte {
		if held.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-release
		}
		return []byte("done")
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", n, Options{})
	if err != nil {
		t.Fatal(err)
	}

	nc, br := rawConn(t, s.Addr())
	if _, err := nc.Write(AppendRequest(nil, 1, "gated", nil)); err != nil {
		t.Fatal(err)
	}
	<-entered // the request is dispatched and running

	var wg sync.WaitGroup
	wg.Add(1)
	drained := make(chan error, 1)
	go func() {
		defer wg.Done()
		drained <- s.Drain(0)
	}()

	// Wait until draining refuses a new frame on the existing
	// connection with CodeDraining. (The drain flag is set before Drain
	// blocks, but give the goroutine a moment to run.)
	var refused Frame
	for i := 0; ; i++ {
		if _, err := nc.Write(AppendRequest(nil, uint64(100+i), "gated", nil)); err != nil {
			t.Fatal(err)
		}
		f, _, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == KindReplyErr && f.Code == CodeDraining {
			refused = f
			break
		}
		if i > 100 {
			t.Fatal("draining server kept accepting frames")
		}
		time.Sleep(time.Millisecond)
	}
	if refused.Corr < 100 {
		t.Fatalf("refused the wrong request: %+v", refused)
	}
	// New connections are refused outright while draining.
	probe, err := net.Dial("tcp", s.Addr())
	if err == nil {
		probe.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, rerr := probe.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("draining server accepted a new connection")
		}
		probe.Close()
	}

	// The in-flight request still gets its real reply before Drain
	// returns.
	close(release)
	for {
		f, _, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatalf("connection closed before in-flight reply: %v", err)
		}
		if f.Kind == KindReply {
			if f.Corr != 1 || string(f.Body) != "done" {
				t.Fatalf("bad in-flight reply: %+v", f)
			}
			break
		}
		if f.Code != CodeDraining {
			t.Fatalf("unexpected frame while draining: %+v", f)
		}
	}
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if ws := s.Stats(); ws.Rejected == 0 {
		t.Fatalf("no rejected requests counted: %+v", ws)
	}
}

// TestServerDrainWindow pins the ordering inside Drain: the refusal
// flag is set (under the server mutex) before the listener closes, so
// from the instant a drain is observable from outside — new dials fail
// — a frame arriving on a connection that is still open is guaranteed a
// CodeDraining reply. It can never be dispatched into the network, and
// it can never hang; a frame that landed in a flag-after-close window
// would do one or the other, and this test converts either into a
// failure (first-frame assertion, read deadline).
func TestServerDrainWindow(t *testing.T) {
	n := msg.NewNetwork()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, err := n.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, 1, func(req []byte) []byte {
		entered <- struct{}{}
		<-release
		return []byte("done")
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", n, Options{})
	if err != nil {
		t.Fatal(err)
	}

	nc, br := rawConn(t, s.Addr())
	if _, err := nc.Write(AppendRequest(nil, 1, "gated", nil)); err != nil {
		t.Fatal(err)
	}
	<-entered // the in-flight request now holds Drain(0) open

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(0) }()

	// Wait for the drain to become externally observable: the listener
	// is down. Because the flag precedes the close, refusal is
	// guaranteed from here on.
	deadline := time.Now().Add(5 * time.Second)
	for {
		probe, err := net.Dial("tcp", s.Addr())
		if err != nil {
			break
		}
		probe.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, rerr := probe.Read(make([]byte, 1))
		probe.Close()
		var ne net.Error
		if rerr != nil && !(errors.As(rerr, &ne) && ne.Timeout()) {
			break // accepted then immediately closed (EOF): the flag is set
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never closed the listener")
		}
		time.Sleep(time.Millisecond)
	}

	// The very next frame on the open connection must be refused — not
	// dispatched, not left hanging while Drain waits on the in-flight
	// request.
	if _, err := nc.Write(AppendRequest(nil, 2, "gated", nil)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	f, _, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatalf("frame in the drain window hung or died: %v", err)
	}
	if f.Kind != KindReplyErr || f.Code != CodeDraining || f.Corr != 2 {
		t.Fatalf("frame in the drain window got %+v, want CodeDraining for corr 2", f)
	}

	// The in-flight request still completes and Drain succeeds.
	close(release)
	f, _, err = ReadFrame(br, 0)
	if err != nil || f.Kind != KindReply || f.Corr != 1 || string(f.Body) != "done" {
		t.Fatalf("in-flight reply after drain window: %+v, %v", f, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestServerCloseStopsServing(t *testing.T) {
	n := echoNet(t)
	s, err := Listen("127.0.0.1:0", n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, br := rawConn(t, s.Addr())
	if _, err := nc.Write(AppendRequest(nil, 1, "echo", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(br, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The existing connection is torn down…
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := ReadFrame(br, 0); err == nil {
		t.Fatal("read succeeded on closed server")
	}
	// …and nothing new connects.
	if probe, err := net.Dial("tcp", s.Addr()); err == nil {
		probe.SetReadDeadline(time.Now().Add(time.Second))
		one := make([]byte, 1)
		if _, rerr := probe.Read(one); rerr == nil {
			t.Fatal("closed server accepted a connection")
		}
		probe.Close()
	}
}

func TestServerRefusesBadFrames(t *testing.T) {
	n := echoNet(t)
	s, err := Listen("127.0.0.1:0", n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// A reply frame where a request belongs gets a coded error back.
	nc, br := rawConn(t, s.Addr())
	if _, err := nc.Write(AppendReply(nil, 5, []byte("nonsense"))); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindReplyErr || f.Code != CodeError || !strings.Contains(string(f.Body), "expected request") {
		t.Fatalf("bad-kind reply: %+v", f)
	}

	// A length prefix over MaxFrame poisons the stream: the connection is
	// dropped before any body is read.
	nc2, br2 := rawConn(t, s.Addr())
	if _, err := nc2.Write(binary.BigEndian.AppendUint32(nil, MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := ReadFrame(br2, 0); err == nil {
		t.Fatal("oversize frame did not drop the connection")
	}
	if ws := s.Stats(); ws.Errors == 0 {
		t.Fatalf("no wire errors counted: %+v", ws)
	}
}

// allocatedBy returns the heap bytes f allocated (on any goroutine).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocatesWhatArrives: a length prefix is a claim. A peer
// that announces a MaxFrame body and then hangs up, or stalls, has cost
// one read chunk — not the 16 MiB it named — and a genuinely large frame
// still arrives intact however the bytes dribble in.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	const slack = 8 << 10
	claim := binary.BigEndian.AppendUint32(nil, MaxFrame)
	claim = append(claim, KindReply, 0, 0, 0, 0, 0, 0, 0, 7, 'x')

	got := allocatedBy(func() {
		if _, _, err := ReadFrame(bytes.NewReader(claim), 0); err == nil {
			t.Error("a frame cut off after 10 of 16Mi bytes decoded")
		}
	})
	if got > readChunk+slack {
		t.Errorf("a MaxFrame length prefix and a hang-up allocated %d bytes, want at most %d", got, readChunk+slack)
	}

	pr, pw := io.Pipe()
	done := make(chan error, 1)
	got = allocatedBy(func() {
		go func() {
			_, _, err := ReadFrame(pr, 0)
			done <- err
		}()
		// The pipe hands bytes over synchronously: when this returns the
		// reader has consumed them and sits in its next Read, the body
		// buffer long since allocated.
		if _, err := pw.Write(claim); err != nil {
			t.Error(err)
		}
	})
	if got > readChunk+slack {
		t.Errorf("a MaxFrame length prefix and a stall allocated %d bytes, want at most %d", got, readChunk+slack)
	}
	pw.Close()
	if err := <-done; err == nil {
		t.Error("a frame cut off by a closed pipe decoded")
	}

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	enc := AppendRequest(nil, 99, "$SQL", payload)
	for name, r := range map[string]io.Reader{
		"at once":     bytes.NewReader(enc),
		"buffered":    bufio.NewReaderSize(bytes.NewReader(enc), readChunk),
		"in dribbles": iotest.HalfReader(iotest.HalfReader(bytes.NewReader(enc))),
	} {
		f, n, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("1 MiB frame %s: %v", name, err)
		}
		if n != len(enc) || f.Kind != KindRequest || f.Corr != 99 || f.Server != "$SQL" || !bytes.Equal(f.Body, payload) {
			t.Fatalf("1 MiB frame %s came back changed: %d of %d bytes, corr %d, server %q", name, n, len(enc), f.Corr, f.Server)
		}
	}
}

// FuzzReadFrame throws hostile bytes at the front door: no panic, no
// allocation beyond what the bytes supplied justify, and whatever decodes
// re-encodes to a frame that decodes the same (to the same bytes, unless
// the input spelt the server name's length with a padded varint).
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendRequest(nil, 7, "$SQL", []byte("select")))
	f.Add(AppendReply(nil, 7, []byte("rows")))
	f.Add(AppendReplyErr(nil, 9, CodeTimeout, "too slow"))
	f.Add(AppendReply(nil, 1, nil))
	f.Add(AppendRequest(AppendReply(nil, 1, make([]byte, 300)), 2, "", nil))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))
	f.Add([]byte{0, 0, 0, 12, KindRequest, 0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0x00, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		var n int
		var err error
		got := allocatedBy(func() { fr, n, err = ReadFrame(bytes.NewReader(data), 0) })
		if limit := uint64(2*len(data) + 2*readChunk); got > limit {
			t.Fatalf("%d input bytes allocated %d, want at most %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var enc []byte
		switch fr.Kind {
		case KindRequest:
			enc = AppendRequest(nil, fr.Corr, fr.Server, fr.Body)
		case KindReply:
			enc = AppendReply(nil, fr.Corr, fr.Body)
		case KindReplyErr:
			enc = AppendReplyErr(nil, fr.Corr, fr.Code, string(fr.Body))
		default:
			t.Fatalf("decoded a frame of unknown kind %d", fr.Kind)
		}
		if len(enc) == n && !bytes.Equal(enc, data[:n]) {
			t.Fatalf("frame re-encoded to different bytes:\n in: %x\nout: %x", data[:n], enc)
		}
		again, m, err := ReadFrame(bytes.NewReader(enc), 0)
		if err != nil || m != len(enc) || m > n {
			t.Fatalf("re-encoded frame: %d of %d bytes (input %d), err %v", m, len(enc), n, err)
		}
		if again.Kind != fr.Kind || again.Corr != fr.Corr || again.Server != fr.Server || again.Code != fr.Code || !bytes.Equal(again.Body, fr.Body) {
			t.Fatalf("re-encoded frame decoded differently: %+v, first %+v", again, fr)
		}
	})
}

// TestReaderReusesServerName: a connection's requests name the same
// process over and over; the Reader hands out one string for it.
func TestReaderReusesServerName(t *testing.T) {
	cl, srv := net.Pipe()
	defer cl.Close()
	defer srv.Close()
	go func() {
		b := AppendRequest(nil, 1, "$SQL", []byte("a"))
		b = AppendRequest(b, 2, "$SQL", []byte("b"))
		b = AppendRequest(b, 3, "$DATA1", nil)
		b = AppendRequest(b, 4, "$SQL", nil)
		_, _ = cl.Write(b)
	}()
	var stats obs.Wire
	fr := NewReader(srv, &stats)
	var names []string
	for i := 0; i < 4; i++ {
		f, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, f.Server)
	}
	if strings.Join(names, " ") != "$SQL $SQL $DATA1 $SQL" {
		t.Fatalf("server names %q", names)
	}
	if unsafe.StringData(names[0]) != unsafe.StringData(names[1]) {
		t.Error("the second request's server name is a fresh copy of the first's")
	}
	if st := stats.Snapshot(); st.FramesIn != 4 || st.Reads == 0 || st.Reads > 4 {
		t.Fatalf("%d frames in %d socket reads", st.FramesIn, st.Reads)
	}
}

// TestServerDrainDeliversEveryAcceptedReply: eight pipelined requests are
// inside their handlers when the drain starts. Their replies leave through
// one connection's flush — most of them as followers, whose senders return
// before the bytes are written — and every one must be on the socket
// before the drain closes it.
func TestServerDrainDeliversEveryAcceptedReply(t *testing.T) {
	const pipelined = 8
	for round := 0; round < 20; round++ {
		n := msg.NewNetwork()
		entered := make(chan struct{}, pipelined)
		release := make(chan struct{})
		_, err := n.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, pipelined, func(req []byte) []byte {
			entered <- struct{}{}
			<-release
			return req
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Listen("127.0.0.1:0", n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nc, br := rawConn(t, s.Addr())
		var b []byte
		for i := uint64(1); i <= pipelined; i++ {
			b = AppendRequest(b, i, "gated", []byte{byte(i)})
		}
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pipelined; i++ {
			<-entered
		}
		drained := make(chan error, 1)
		go func() { drained <- s.Drain(0) }()
		close(release)

		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		seen := make(map[uint64]bool)
		for len(seen) < pipelined {
			f, _, err := ReadFrame(br, 0)
			if err != nil {
				t.Fatalf("round %d: connection ended after %d of %d accepted replies: %v", round, len(seen), pipelined, err)
			}
			if f.Kind != KindReply || len(f.Body) != 1 || uint64(f.Body[0]) != f.Corr || seen[f.Corr] {
				t.Fatalf("round %d: unexpected frame %+v", round, f)
			}
			seen[f.Corr] = true
		}
		if err := <-drained; err != nil {
			t.Fatalf("drain: %v", err)
		}
		if _, _, err := ReadFrame(br, 0); err == nil {
			t.Fatal("drained server left the connection open")
		}
		if ws := s.Stats(); ws.FramesOut != pipelined || ws.Writes == 0 || ws.Writes > pipelined {
			t.Fatalf("round %d: %d replies in %d socket writes", round, ws.FramesOut, ws.Writes)
		}
	}
}

// TestServerDeadlineAnswersOnce: a request's deadline and its reply race
// to answer it, and exactly one of them does. A handler that returns
// just after the deadline leaves its CodeTimeout the only frame for its
// correlation ID, the connection serves the next request normally, and
// the books balance once the handler is done.
func TestServerDeadlineAnswersOnce(t *testing.T) {
	const timeout = 20 * time.Millisecond
	n := msg.NewNetwork()
	release := make(chan struct{})
	_, err := n.StartServer("late", msg.ProcessorID{Node: 0, CPU: 0}, 1, func(req []byte) []byte {
		<-release
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = n.StartServer("close", msg.ProcessorID{Node: 0, CPU: 0}, 4, func(req []byte) []byte {
		time.Sleep(timeout)
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listen("127.0.0.1:0", n, Options{ReplyTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	nc, br := rawConn(t, s.Addr())
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	balanced := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for st := n.Stats(); st.Requests != st.Replies; st = n.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("requests %d != replies %d", st.Requests, st.Replies)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if _, err := nc.Write(AppendRequest(nil, 1, "late", []byte("a"))); err != nil {
		t.Fatal(err)
	}
	f, _, err := ReadFrame(br, 0)
	if err != nil || f.Corr != 1 || f.Kind != KindReplyErr || f.Code != CodeTimeout {
		t.Fatalf("first frame %+v, %v: want CodeTimeout for corr 1", f, err)
	}
	close(release) // the handler returns just after its deadline
	balanced()
	if _, err := nc.Write(AppendRequest(nil, 2, "late", []byte("b"))); err != nil {
		t.Fatal(err)
	}
	if f, _, err = ReadFrame(br, 0); err != nil || f.Corr != 2 || f.Kind != KindReply || string(f.Body) != "b" {
		t.Fatalf("next frame %+v, %v: want the reply to corr 2", f, err)
	}

	// Handlers that take as long as the deadline: each request still
	// gets exactly one frame, whichever side won.
	const racing = 40
	var b []byte
	for i := uint64(100); i < 100+racing; i++ {
		b = AppendRequest(b, i, "close", []byte("c"))
	}
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for len(seen) < racing {
		f, _, err := ReadFrame(br, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Corr < 100 || f.Corr >= 100+racing || seen[f.Corr] {
			t.Fatalf("frame %+v: a second answer, or for a request not asked", f)
		}
		if f.Kind != KindReply && f.Code != CodeTimeout {
			t.Fatalf("frame %+v: want a reply or CodeTimeout", f)
		}
		seen[f.Corr] = true
	}
	balanced()
	nc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if f, _, err := ReadFrame(br, 0); err == nil {
		t.Fatalf("a frame after every request was answered: %+v", f)
	}
	if ws := s.Stats(); ws.FramesOut != 2+racing || ws.Timeouts == 0 {
		t.Fatalf("wire stats %+v: want %d frames out, timeouts counted", ws, 2+racing)
	}
}

// dispatchers counts the wire servers' dispatcher goroutines, and those
// of them parked waiting for a frame.
func dispatchers() (all, parked int) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "wire.(*Server).dispatch(") {
			continue
		}
		all++
		if strings.Contains(g, "[select") && !strings.Contains(g, "msg.(*Client).Send(") {
			parked++
		}
	}
	return all, parked
}

// TestDispatchersDoNotLeak: a server keeps as many dispatchers as
// requests were ever in flight at once — not one per request — and
// they are gone, with every goroutine the server started, after Close
// or Drain.
func TestDispatchersDoNotLeak(t *testing.T) {
	for _, stop := range []string{"Close", "Drain"} {
		t.Run(stop, func(t *testing.T) {
			const depth = 16
			// settled waits until every dispatcher is parked and checks
			// how many there are.
			settled := func(want int) {
				t.Helper()
				deadline := time.Now().Add(5 * time.Second)
				for {
					all, parked := dispatchers()
					if all == parked && all == want {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d dispatchers, %d parked; want %d, all parked", all, parked, want)
					}
					time.Sleep(time.Millisecond)
				}
			}
			settled(0) // earlier tests' servers winding down
			before := runtime.NumGoroutine()
			n := msg.NewNetwork()
			entered := make(chan struct{}, depth)
			var gate atomic.Pointer[chan struct{}]
			_, err := n.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, depth, func(req []byte) []byte {
				if g := gate.Load(); g != nil {
					entered <- struct{}{}
					<-*g
				}
				return req
			})
			if err != nil {
				t.Fatal(err)
			}
			s, err := Listen("127.0.0.1:0", n, Options{ReplyTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			nc, br := rawConn(t, s.Addr())
			nc.SetReadDeadline(time.Now().Add(10 * time.Second))
			read := func(count int) {
				t.Helper()
				for i := 0; i < count; i++ {
					if f, _, err := ReadFrame(br, 0); err != nil || f.Kind != KindReply {
						t.Fatalf("reply %+v, %v", f, err)
					}
				}
			}

			corr := uint64(0)
			for round := 0; round < 3; round++ {
				// depth requests in flight at once, pipelined on one
				// connection and held in their handlers.
				g := make(chan struct{})
				gate.Store(&g)
				var b []byte
				for i := 0; i < depth; i++ {
					corr++
					b = AppendRequest(b, corr, "gated", []byte("x"))
				}
				if _, err := nc.Write(b); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < depth; i++ {
					<-entered
				}
				if all, _ := dispatchers(); all != depth {
					t.Fatalf("round %d: %d dispatchers for %d requests in flight", round, all, depth)
				}
				gate.Store(nil)
				close(g)
				read(depth)
				settled(depth)
				// One at a time: a parked dispatcher takes each.
				for i := 0; i < 50; i++ {
					corr++
					if _, err := nc.Write(AppendRequest(nil, corr, "gated", []byte("y"))); err != nil {
						t.Fatal(err)
					}
					read(1)
				}
				settled(depth)
			}

			if stop == "Close" {
				s.Close()
			} else if err := s.Drain(0); err != nil {
				t.Fatal(err)
			}
			settled(0)
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after %s, %d before Listen", runtime.NumGoroutine(), stop, before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// BenchmarkServerDispatch is one request frame through a warm wire
// server to an echo process and back, one at a time on one connection.
// With and without a reply deadline it starts no goroutine per request
// (dispatchers stays at one or two), and the deadline costs no
// allocation: each dispatcher re-arms its own timer.
func BenchmarkServerDispatch(b *testing.B) {
	for _, timeout := range []time.Duration{0, 30 * time.Second} {
		b.Run("ReplyTimeout="+timeout.String(), func(b *testing.B) {
			for all, _ := dispatchers(); all > 0; all, _ = dispatchers() {
				time.Sleep(time.Millisecond) // the last run's server winding down
			}
			n := msg.NewNetwork()
			if _, err := n.StartServer("echo", msg.ProcessorID{Node: 0, CPU: 0}, 4, func(req []byte) []byte { return req }); err != nil {
				b.Fatal(err)
			}
			s, err := Listen("127.0.0.1:0", n, Options{ReplyTimeout: timeout})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			nc, err := net.Dial("tcp", s.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			frame := AppendRequest(nil, 1, "echo", []byte("payload"))
			roundTrip := func() {
				if _, err := nc.Write(frame); err != nil {
					b.Fatal(err)
				}
				if _, _, err := ReadFrame(br, 0); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				roundTrip()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
			b.StopTimer()
			all, _ := dispatchers()
			b.ReportMetric(float64(all), "dispatchers")
		})
	}
}
