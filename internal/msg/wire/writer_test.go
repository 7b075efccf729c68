package wire

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"nonstopsql/internal/obs"
)

// gatedConn is a socket whose Write can be held, in the manner of the
// audit volume in internal/wal/force_test.go: each Write announces itself
// on entered, then waits for a token on gate (close the gate to let every
// later Write through). Only Write is implemented; a Writer calls nothing
// else.
type gatedConn struct {
	net.Conn
	entered chan struct{}
	gate    chan struct{}

	mu     sync.Mutex
	writes [][]byte // what each Write was handed, copied
	fail   error    // returned by every Write once set
}

func newGatedConn() *gatedConn {
	return &gatedConn{entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	c.entered <- struct{}{}
	<-c.gate
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return 0, c.fail
	}
	return len(b), nil
}

func (c *gatedConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func (c *gatedConn) failWith(err error) {
	c.mu.Lock()
	c.fail = err
	c.mu.Unlock()
}

// within fails the test if f has not returned after a generous bound: the
// failure mode of every test here is a send that never comes back.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestFollowersShareOneWrite is the mechanism in one picture: N frames
// appended while a write is at the socket leave in exactly one more, in
// append order, and the stream is the one N+1 single writes would have
// produced.
func TestFollowersShareOneWrite(t *testing.T) {
	const n = 16
	nc := newGatedConn()
	var stats obs.Wire
	w := NewWriter(nc, &stats)

	lead := make(chan error, 1)
	go func() { lead <- w.Request(1, "$SQL", []byte("first")) }()
	<-nc.entered // the leader is at the socket with its own frame

	want := AppendRequest(nil, 1, "$SQL", []byte("first"))
	var batch []byte
	within(t, "followers behind a blocked write", func() {
		for i := uint64(2); i < 2+n; i += 2 {
			if err := w.Reply(i, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
			if err := w.ReplyErr(i+1, CodeTimeout, "late"); err != nil {
				t.Error(err)
			}
			batch = AppendReply(batch, i, []byte{byte(i)})
			batch = AppendReplyErr(batch, i+1, CodeTimeout, "late")
		}
	})
	if st := stats.Snapshot(); st.FramesOut != n+1 || st.Writes != 1 || st.BytesOut != uint64(len(want)+len(batch)) {
		t.Fatalf("with the first write still blocked: %d frames, %d bytes counted out in %d writes; want %d, %d, 1",
			st.FramesOut, st.BytesOut, st.Writes, n+1, len(want)+len(batch))
	}

	nc.gate <- struct{}{} // the first write lands: one frame
	<-nc.entered          // the leader is back with everything appended meanwhile
	nc.gate <- struct{}{}
	select {
	case err := <-lead:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the leader did not return")
	}

	got := nc.written()
	if len(got) != 2 || !bytes.Equal(got[0], want) || !bytes.Equal(got[1], batch) {
		t.Fatalf("%d writes of %d and %d bytes; want the leader's frame (%d), then the %d followers' in append order (%d)",
			len(got), len(got[0]), len(got[len(got)-1]), len(want), n, len(batch))
	}
	if st := stats.Snapshot(); st.Writes != 2 || st.FramesPerWrite() != float64(n+1)/2 {
		t.Fatalf("%d writes, %.1f frames per write; want 2, %.1f", st.Writes, st.FramesPerWrite(), float64(n+1)/2)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestLoneSenderWritesAtOnce: with nobody to coalesce with, a frame goes
// out in its own write without waiting for anyone — there is no timer to
// wait for.
func TestLoneSenderWritesAtOnce(t *testing.T) {
	nc := newGatedConn()
	close(nc.gate)
	var stats obs.Wire
	w := NewWriter(nc, &stats)
	for i := uint64(1); i <= 3; i++ {
		within(t, "a lone sender", func() {
			if err := w.Reply(i, []byte("rows")); err != nil {
				t.Error(err)
			}
		})
		got := nc.written()
		if len(got) != int(i) || !bytes.Equal(got[i-1], AppendReply(nil, i, []byte("rows"))) {
			t.Fatalf("after send %d: %d writes, last %q", i, len(got), got[len(got)-1])
		}
	}
	if st := stats.Snapshot(); st.Writes != 3 || st.FramesOut != 3 {
		t.Fatalf("%d frames in %d writes, want 3 in 3", st.FramesOut, st.Writes)
	}
}

// TestFailedWriteIsSticky: the write that breaks the connection is
// reported to the leader that made it and to every sender after it, and
// nothing more reaches the socket.
func TestFailedWriteIsSticky(t *testing.T) {
	nc := newGatedConn()
	var stats obs.Wire
	w := NewWriter(nc, &stats)
	broken := errors.New("broken pipe")

	lead := make(chan error, 1)
	go func() { lead <- w.Reply(1, []byte("a")) }()
	<-nc.entered
	if err := w.Reply(2, []byte("b")); err != nil {
		t.Fatalf("a follower behind a write not yet failed: %v", err)
	}
	nc.failWith(broken)
	close(nc.gate)
	if err := <-lead; !errors.Is(err, broken) {
		t.Fatalf("leader got %v, want the write error", err)
	}
	if err := w.Reply(3, []byte("c")); !errors.Is(err, broken) {
		t.Fatalf("a sender after the failure got %v, want the write error", err)
	}
	if err := w.Flush(); !errors.Is(err, broken) {
		t.Fatalf("Flush got %v, want the write error", err)
	}
	if got := nc.written(); len(got) != 1 {
		t.Fatalf("%d writes reached a connection that failed on its first", len(got))
	}
}

// TestFollowersBlockAtTheCap: a peer that stops reading must block its
// senders, not grow a buffer. Behind a write in flight the pending buffer
// takes frames up to maxPending; the next sender waits for that write
// and resumes when it lands. Joinable says which of these a sender would
// meet: true only behind a flush in flight with room under the cap.
func TestFollowersBlockAtTheCap(t *testing.T) {
	nc := newGatedConn()
	var stats obs.Wire
	w := NewWriter(nc, &stats)
	payload := make([]byte, maxPending/4)
	joinable := func(when string, want bool) {
		t.Helper()
		if w.Joinable() != want {
			t.Fatalf("Joinable() = %v %s", !want, when)
		}
	}
	joinable("with no flush in flight", false)

	lead := make(chan error, 1)
	go func() { lead <- w.Reply(1, nil) }()
	<-nc.entered
	joinable("behind a write in flight, nothing pending", true)
	corr := uint64(2)
	within(t, "followers under the cap", func() {
		for ; corr < 6; corr++ { // four quarter-cap frames: over the cap with their headers
			if err := w.Reply(corr, payload); err != nil {
				t.Error(err)
			}
		}
	})
	over := make(chan error, 1)
	go func() { over <- w.Reply(corr, []byte("over")) }()
	select {
	case err := <-over:
		t.Fatalf("a follower returned (%v) with %d bytes pending behind a blocked write", err, 4*len(payload))
	case <-time.After(50 * time.Millisecond):
	}
	if st := stats.Snapshot(); st.FramesOut != 5 {
		t.Fatalf("%d frames counted out; the blocked sender's is not accepted yet, want 5", st.FramesOut)
	}
	joinable("with the cap reached", false)

	close(nc.gate)
	for _, ch := range []chan error{lead, over} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a sender did not resume after the write landed")
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	joinable("after the flush ended", false)
	var stream []byte
	for _, b := range nc.written() {
		stream = append(stream, b...)
	}
	want := AppendReply(nil, 1, nil)
	for i := uint64(2); i < corr; i++ {
		want = AppendReply(want, i, payload)
	}
	want = AppendReply(want, corr, []byte("over"))
	if !bytes.Equal(stream, want) {
		t.Fatalf("stream of %d bytes differs from the %d bytes of the frames in send order", len(stream), len(want))
	}
}
