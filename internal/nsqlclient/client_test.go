package nsqlclient

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/msg/wire"
)

// startEcho brings up a network with an uppercasing echo server and a
// wire server in front of it, returning the wire server.
func startEcho(t *testing.T, workers int) (*wire.Server, *msg.Network) {
	t.Helper()
	n := msg.NewNetwork()
	_, err := n.StartServer("echo", msg.ProcessorID{Node: 0, CPU: 0}, workers, func(req []byte) []byte {
		return bytes.ToUpper(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := wire.Listen("127.0.0.1:0", n, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, n
}

func TestPoolSend(t *testing.T) {
	s, _ := startEcho(t, 4)
	p, err := Dial(s.Addr(), Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	got, err := p.Send("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "HELLO" {
		t.Fatalf("got %q", got)
	}
	if st := p.Stats(); st.FramesIn != 1 || st.FramesOut != 1 || st.Conns != 1 {
		t.Fatalf("pool wire stats: %+v", st)
	}
}

func TestPoolUnknownServer(t *testing.T) {
	s, _ := startEcho(t, 1)
	p, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Send("nowhere", nil); !errors.Is(err, msg.ErrNoServer) {
		t.Fatalf("want ErrNoServer, got %v", err)
	}
}

func TestPoolPipelinesConcurrentSenders(t *testing.T) {
	s, n := startEcho(t, 8)
	p, err := Dial(s.Addr(), Options{Conns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const (
		senders   = 8
		perSender = 100
	)
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				got, err := p.Send("echo", []byte(payload))
				if err != nil {
					errs <- err
					return
				}
				if string(got) != strings.ToUpper(payload) {
					errs <- fmt.Errorf("reply %q for request %q: correlation broken", got, payload)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Requests != senders*perSender || st.Requests != st.Replies {
		t.Fatalf("network stats: %+v", st)
	}
	ps := p.Stats()
	if ps.FramesIn != senders*perSender || ps.FramesOut != senders*perSender {
		t.Fatalf("pool frames: %+v", ps)
	}
	if ps.Conns != 3 || ps.Redials != 0 {
		t.Fatalf("pool conns: %+v", ps)
	}
}

func TestPoolDeadlineWrapsReplyTimeout(t *testing.T) {
	netw := msg.NewNetwork()
	stall := make(chan struct{})
	_, err := netw.StartServer("stuck", msg.ProcessorID{Node: 0, CPU: 0}, 1, func(req []byte) []byte {
		<-stall
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := wire.Listen("127.0.0.1:0", netw, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	p, err := Dial(s.Addr(), Options{Conns: 1, ReplyTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.Send("stuck", []byte("x")); !errors.Is(err, msg.ErrReplyTimeout) {
		t.Fatalf("want ErrReplyTimeout, got %v", err)
	}
	if st := p.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts not counted: %+v", st)
	}

	// The late reply must be dropped, not delivered to a later request:
	// release the handler, then run a fresh request on the same
	// connection and check it gets its own answer.
	p.timeout.Store(int64(5 * time.Second))
	close(stall)
	got, err := p.Send("stuck", []byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh" {
		t.Fatalf("late reply leaked into a new request: got %q", got)
	}
}

// TestPoolSweepsDeadlines: one sweep per connection, armed for the
// earliest deadline pending, stands in for a timer per request. A request
// whose reply never comes fails once, at or after its deadline, while the
// requests beside it on the same connection complete; its late reply is
// dropped. Deadlines set apart (the pool's deadline changed between sends) fail in their own
// order: the shorter first, the longer not cut short — and a sweep that
// already fired never cuts a later wait short.
func TestPoolSweepsDeadlines(t *testing.T) {
	netw := msg.NewNetwork()
	release, never := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(never) })
	for name, gate := range map[string]chan struct{}{"echo": nil, "late": release, "never": never} {
		gate := gate
		if _, err := netw.StartServer(name, msg.ProcessorID{Node: 0, CPU: 0}, 8, func(req []byte) []byte {
			if gate != nil {
				<-gate
			}
			return bytes.ToUpper(req)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := wire.Listen("127.0.0.1:0", netw, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const deadline = 100 * time.Millisecond
	p, err := Dial(s.Addr(), Options{Conns: 1, ReplyTimeout: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	send := func(server, payload string) (string, error) {
		got, err := p.Send(server, []byte(payload))
		return string(got), err
	}
	timedOut := func(what string, err error, waited, want time.Duration) {
		t.Helper()
		if !errors.Is(err, msg.ErrReplyTimeout) || !strings.Contains(err.Error(), fmt.Sprintf("after %v", want)) {
			t.Fatalf("%s: want the reply-timeout error after %v, got %v", what, want, err)
		}
		if waited < want {
			t.Fatalf("%s failed after %v, before its %v deadline", what, waited, want)
		}
	}

	start := time.Now()
	lateErr := make(chan error, 1)
	go func() {
		_, err := send("late", "late")
		lateErr <- err
	}()
	for i := 0; i < 20; i++ {
		if got, err := send("echo", fmt.Sprintf("beside-%d", i)); err != nil || got != fmt.Sprintf("BESIDE-%d", i) {
			t.Fatalf("a request beside the stuck one: %q, %v", got, err)
		}
	}
	timedOut("the request whose reply never came", <-lateErr, time.Since(start), deadline)
	if st := p.Stats(); st.Timeouts != 1 {
		t.Fatalf("%d timeouts counted, want 1", st.Timeouts)
	}
	close(release) // the late reply arrives and is dropped
	waitFor(t, "the late reply", func() bool { return p.Stats().FramesIn == 21 })
	if got, err := send("late", "fresh"); err != nil || got != "FRESH" {
		t.Fatalf("the request after a late reply: %q, %v", got, err)
	}

	const long, short, later = 400 * time.Millisecond, 40 * time.Millisecond, 200 * time.Millisecond
	p.timeout.Store(int64(long))
	longStart := time.Now()
	longErr := make(chan error, 1)
	go func() {
		_, err := send("never", "long")
		longErr <- err
	}()
	waitFor(t, "the long request on the wire", func() bool { return p.Stats().FramesOut == 23 })
	p.timeout.Store(int64(short))
	shortStart := time.Now()
	_, err = send("never", "short")
	timedOut("the shorter deadline", err, time.Since(shortStart), short)
	select {
	case err := <-longErr:
		t.Fatalf("the longer deadline was cut short by the shorter: %v after %v", err, time.Since(longStart))
	default:
	}
	p.timeout.Store(int64(later))
	laterStart := time.Now()
	_, err = send("never", "later")
	timedOut("a wait begun after a sweep fired", err, time.Since(laterStart), later)
	timedOut("the longer deadline", <-longErr, time.Since(longStart), long)
	if st := p.Stats(); st.Timeouts != 4 {
		t.Fatalf("%d timeouts counted, want 4", st.Timeouts)
	}
}

// TestPoolDeadlinesRaceReplies: replies that arrive around their
// deadline, from many senders at once. Each request gets its own reply or
// the timeout, never another's — the reply channels are reused, and the
// sweep, the reader and the waiter meet on every one of them.
func TestPoolDeadlinesRaceReplies(t *testing.T) {
	netw := msg.NewNetwork()
	if _, err := netw.StartServer("slow", msg.ProcessorID{Node: 0, CPU: 0}, 16, func(req []byte) []byte {
		time.Sleep(time.Duration(req[0]) * 20 * time.Microsecond) // 0 to 5 ms: either side of the deadline
		return bytes.ToUpper(req)
	}); err != nil {
		t.Fatal(err)
	}
	s, err := wire.Listen("127.0.0.1:0", netw, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := Dial(s.Addr(), Options{Conns: 2, ReplyTimeout: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const senders, perSender = 8, 60
	var wg sync.WaitGroup
	var timeouts atomic.Uint64
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := fmt.Appendf([]byte{byte((g*perSender + i) % 250)}, "g%d-i%d", g, i)
				got, err := p.Send("slow", payload)
				switch {
				case errors.Is(err, msg.ErrReplyTimeout):
					timeouts.Add(1)
				case err != nil:
					t.Error(err)
					return
				case !bytes.Equal(got, bytes.ToUpper(payload)):
					t.Errorf("request %q got reply %q", payload, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.Timeouts != timeouts.Load() {
		t.Fatalf("%d timeouts returned, %d counted", timeouts.Load(), st.Timeouts)
	}
}

func TestPoolReconnectAfterServerRestart(t *testing.T) {
	netw := msg.NewNetwork()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, err := netw.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, 2, func(req []byte) []byte {
		if string(req) == "hold" {
			entered <- struct{}{}
			<-release
		}
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := wire.Listen("127.0.0.1:0", netw, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr()

	p, err := Dial(addr, Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A healthy round-trip first.
	if _, err := p.Send("gated", []byte("warm")); err != nil {
		t.Fatal(err)
	}

	// Kill the server mid-conversation: one request in flight.
	inflight := make(chan error, 1)
	go func() {
		_, err := p.Send("gated", []byte("hold"))
		inflight <- err
	}()
	<-entered
	s1.Close()

	// The in-flight send surfaces a clean error, not a hang.
	select {
	case err := <-inflight:
		if err == nil {
			t.Fatal("in-flight send returned success after server death")
		}
		if !strings.Contains(err.Error(), "connection") {
			t.Fatalf("unhelpful in-flight error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight send hung after server death")
	}
	close(release) // unblock the orphaned handler goroutine

	// While the server is down, sends fail with dial errors — cleanly.
	if _, err := p.Send("gated", []byte("down")); err == nil {
		t.Fatal("send succeeded with no server listening")
	}

	// Restart on the same address: the pool re-dials lazily and the
	// conversation resumes without constructing a new pool.
	s2, err := wire.Listen(addr, netw, wire.Options{})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()
	got, err := p.Send("gated", []byte("back"))
	if err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if string(got) != "back" {
		t.Fatalf("got %q", got)
	}

	st := p.Stats()
	if st.Redials == 0 {
		t.Fatalf("no redial counted: %+v", st)
	}
	if st.Conns != st.Disconnects+1 {
		t.Fatalf("connection books don't balance: %+v", st)
	}
}

func TestPoolDrainingServerRefusal(t *testing.T) {
	netw := msg.NewNetwork()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	_, err := netw.StartServer("gated", msg.ProcessorID{Node: 0, CPU: 0}, 1, func(req []byte) []byte {
		entered <- struct{}{}
		<-release
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := wire.Listen("127.0.0.1:0", netw, wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Dial(s.Addr(), Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := p.Send("gated", []byte("hold"))
		inflight <- err
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(0) }()

	// Drain sets the refuse flag before it closes the listener, so once
	// new connections bounce, the flag is guaranteed visible.
	deadline := time.Now().Add(5 * time.Second)
	for {
		probe, err := net.Dial("tcp", s.Addr())
		if err != nil {
			break
		}
		probe.Close()
		if time.Now().After(deadline) {
			t.Fatal("draining server kept listening")
		}
		time.Sleep(time.Millisecond)
	}

	// A request issued on the existing connection while draining comes
	// back as ErrDraining.
	if _, err := p.Send("gated", []byte("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}

	// The held request still completes before the drain finishes.
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestPoolClose(t *testing.T) {
	s, _ := startEcho(t, 1)
	p, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Send("echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestPoolSetReplyTimeoutConcurrent(t *testing.T) {
	s, _ := startEcho(t, 4)
	p, err := Dial(s.Addr(), Options{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stop := make(chan struct{})
	var setter sync.WaitGroup
	setter.Add(1)
	go func() {
		defer setter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				p.timeout.Store(int64(time.Duration(1+i%5) * time.Second))
			}
		}
	}()
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < 200; i++ {
				if _, err := p.Send("echo", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	senders.Wait()
	close(stop)
	setter.Wait()
}
