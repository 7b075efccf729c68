package nsqlclient

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/msg/wire"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
)

// heldConn is a socket whose Write can be held at the door and made to
// fail: the gated device of internal/wal/force_test.go, for the wire.
type heldConn struct {
	net.Conn
	entered chan struct{} // one token per Write that reached the socket
	gate    chan struct{} // Write waits here; close it to let every Write through
	broken  atomic.Bool   // Writes fail (and the socket closes) once set
}

func (c *heldConn) Write(b []byte) (int, error) {
	c.entered <- struct{}{}
	<-c.gate
	if c.broken.Load() {
		c.Conn.Close()
		return 0, errors.New("write: broken pipe")
	}
	return c.Conn.Write(b)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFailedWriteFailsItsBatchAndRedials: a write that fails takes with
// it the leader's request and every request whose frame was waiting
// behind it — each gets the lost-connection error, none hangs — and the
// next Send dials a new incarnation whose writer starts empty: the frames
// that never left are not sent to the successor socket.
func TestFailedWriteFailsItsBatchAndRedials(t *testing.T) {
	s, netw := startEcho(t, 4)
	held := &heldConn{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	dials := 0
	p, err := newPool(s.Addr(), Options{Conns: 1}, func() (net.Conn, error) {
		nc, err := net.Dial("tcp", s.Addr())
		if dials++; dials == 1 && err == nil {
			held.Conn = nc
			return held, nil
		}
		return nc, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const senders = 3
	errs := make(chan error, senders)
	send := func(i int) {
		_, err := p.Send("echo", []byte(fmt.Sprintf("doomed-%d", i)))
		errs <- err
	}
	go send(0)
	<-held.entered // the leader is at the socket with its own frame
	for i := 1; i < senders; i++ {
		go send(i)
	}
	waitFor(t, "the followers' frames to be accepted", func() bool { return p.Stats().FramesOut == senders })
	if st := p.Stats(); st.Writes != 1 {
		t.Fatalf("%d socket writes with the first still held", st.Writes)
	}

	held.broken.Store(true)
	close(held.gate)
	for i := 0; i < senders; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "connection to") || !strings.Contains(err.Error(), "lost") {
				t.Fatalf("a request in or behind the failed write got %v, want the connection-lost error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a request behind the failed write hung")
		}
	}
	if got := netw.Stats().Requests; got != 0 {
		t.Fatalf("%d requests reached the server through a write that failed", got)
	}

	got, err := p.Send("echo", []byte("fresh"))
	if err != nil || string(got) != "FRESH" {
		t.Fatalf("send after the failure: %q, %v", got, err)
	}
	if st := p.Stats(); dials != 2 || st.Redials != 1 || st.Conns != st.Disconnects+1 {
		t.Fatalf("%d dials, wire stats %+v; want one redial and balanced connection books", dials, st)
	}
	if got := netw.Stats().Requests; got != 1 {
		t.Fatalf("the server saw %d requests on the new connection, want only the fresh one", got)
	}
}

// TestPoolJoinsTheFlushForming: requests sent while connection 0 has a
// write out join its flush — one further write carries all of them — and
// connection 1 is never dialed; every reply still reaches its own caller.
func TestPoolJoinsTheFlushForming(t *testing.T) {
	s, _ := startEcho(t, 8)
	held := &heldConn{entered: make(chan struct{}, 8), gate: make(chan struct{})}
	var dials atomic.Int32
	p, err := newPool(s.Addr(), Options{Conns: 2}, func() (net.Conn, error) {
		nc, err := net.Dial("tcp", s.Addr())
		if dials.Add(1) == 1 && err == nil {
			held.Conn = nc
			return held, nil
		}
		return nc, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const senders = 6
	errs := make(chan error, senders)
	send := func(i int) {
		payload := fmt.Sprintf("join-%d", i)
		got, err := p.Send("echo", []byte(payload))
		if err == nil && string(got) != strings.ToUpper(payload) {
			err = fmt.Errorf("request %q got reply %q", payload, got)
		}
		errs <- err
	}
	go send(0)
	<-held.entered // connection 0's leader is at the socket
	for i := 1; i < senders; i++ {
		go send(i)
	}
	waitFor(t, "the joiners' frames to be accepted", func() bool { return p.Stats().FramesOut == senders })
	close(held.gate)
	for i := 0; i < senders; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Writes != 2 || st.Conns != 1 || dials.Load() != 1 {
		t.Fatalf("%d dials, wire stats %+v: want one connection and two writes for %d requests", dials.Load(), st, senders)
	}
}

// countedConn counts the writes that reach its socket.
type countedConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestPoolFallsBackToTheNextConnection: with no flush forming — a lone
// caller's frame is on the socket before Send waits — each request takes
// the next connection in turn, so sequential sends still dial and use
// every connection.
func TestPoolFallsBackToTheNextConnection(t *testing.T) {
	s, _ := startEcho(t, 2)
	var mu sync.Mutex
	var conns []*countedConn
	p, err := newPool(s.Addr(), Options{Conns: 2}, func() (net.Conn, error) {
		nc, err := net.Dial("tcp", s.Addr())
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		conns = append(conns, &countedConn{Conn: nc})
		return conns[len(conns)-1], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 4; i++ {
		if got, err := p.Send("echo", []byte("seq")); err != nil || string(got) != "SEQ" {
			t.Fatalf("send %d: %q, %v", i, got, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 2 || conns[0].writes.Load() != 2 || conns[1].writes.Load() != 2 {
		t.Fatalf("%d connections dialed; want 2, each with 2 of the 4 writes", len(conns))
	}
}

// pipeServer answers EXECUTE requests on the far end of an in-memory
// pipe with one fixed row: the serving path's wire edge — frame reader,
// request decode, reply encode, frame writer — with no SQL behind it.
func pipeServer(nc net.Conn) {
	var stats obs.Wire
	fr, fw := wire.NewReader(nc, &stats), wire.NewWriter(nc, &stats)
	reply := &nsqlwire.Reply{Columns: []string{"bal", "pad"}, Rows: []record.Row{{record.Int(100), record.String("xxxxxxxxxxxxxxxx")}}}
	var q nsqlwire.Request
	var out []byte
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		err = nsqlwire.DecodeRequestInto(&q, f.Body)
		f.Release()
		if err != nil || q.Op != nsqlwire.OpExecute || len(q.Params) != 1 {
			_ = fw.ReplyErr(f.Corr, wire.CodeError, "pipeServer: not a one-parameter EXECUTE")
			continue
		}
		out = nsqlwire.AppendReply(out[:0], reply)
		if fw.Reply(f.Corr, out) != nil {
			return
		}
	}
}

// executeAllocsCeiling is what one prepared EXECUTE round trip allocates
// at the wire edge, both ends counted: only what the caller keeps — the
// Result, Columns and the one string its two names are cut from, Rows,
// the row's values and its string. The request is encoded into a pooled
// buffer and the reply copied into it, both frames are read into pooled
// buffers, the server decodes into a Request it reuses and encodes into a
// buffer it reuses, and the reply channel comes from a pool. (It was 14
// with a request payload, a reply frame, a decoded Reply and a name
// string per column at the client and a request frame, Request,
// parameter row and reply payload at the server; through wire.Listen and
// a message network over TCP the round trip was 21 objects with a reply
// channel per send, and 41 with a frame buffer, a length-prefix array and
// a timer per send, encoders that grew from nil, a record.Encode
// temporary per row and a copy of the rows.)
const executeAllocsCeiling = 6

func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	p, err := newPool("pipe", Options{Conns: 1, ReplyTimeout: time.Minute}, func() (net.Conn, error) {
		cl, srv := net.Pipe()
		go pipeServer(srv)
		return cl, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	execute := func() {
		res, err := Execute(p, 3, record.Int(4242))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 100 {
			t.Fatalf("EXECUTE over the pipe: %+v, %v", res, err)
		}
	}
	execute()
	if got := testing.AllocsPerRun(500, execute); got > executeAllocsCeiling {
		t.Errorf("one EXECUTE round trip allocates %.1f objects at the wire edge, ceiling %d", got, executeAllocsCeiling)
	} else {
		t.Logf("one EXECUTE round trip: %.1f allocations at the wire edge, ceiling %d", got, executeAllocsCeiling)
	}
}

// BenchmarkPoolSendPipelined is the benchmark's serving shape with
// nothing behind the socket: 8 closed-loop senders over 2 connections to
// an echo process. writes/op counts socket writes at both ends: 2 (one
// per frame) before frames shared a flush; at one CPU, 0.7–0.85 while
// senders were dealt to the two connections in turn and 0.33–0.35 since
// a sender joins the flush already forming.
func BenchmarkPoolSendPipelined(b *testing.B) {
	for _, procs := range []int{1, 0} {
		name := "procs=default"
		if procs > 0 {
			name = fmt.Sprintf("procs=%d", procs)
		}
		b.Run(name, func(b *testing.B) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			netw := msg.NewNetwork()
			if _, err := netw.StartServer("$ECHO", msg.ProcessorID{Node: 0, CPU: 0}, 8, func(req []byte) []byte { return req }); err != nil {
				b.Fatal(err)
			}
			s, err := wire.Listen("127.0.0.1:0", netw, wire.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			p, err := Dial(s.Addr(), Options{Conns: 2, ReplyTimeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			payload := make([]byte, 48)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := p.Send("$ECHO", payload); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(p.Stats().Writes+s.Stats().Writes)/float64(b.N), "writes/op")
		})
	}
}
