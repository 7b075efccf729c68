package msg_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/msg/wire"
	"nonstopsql/internal/nsqlclient"
)

// A Send in process waits for its reply; the deadline is kept where a
// requester can be remote, by the wire server (wire.Options.ReplyTimeout)
// and the client pool. These tests drive the server's deadline.

// serve starts a wire server over n with the given deadline and a
// one-connection pool with no deadline of its own.
func serve(t *testing.T, n *msg.Network, timeout time.Duration) (*wire.Server, *nsqlclient.Pool) {
	t.Helper()
	s, err := wire.Listen("127.0.0.1:0", n, wire.Options{ReplyTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	p, err := nsqlclient.Dial(s.Addr(), nsqlclient.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return s, p
}

// TestReplyTimeout pins the stall bugfix: a handler that never returns
// used to hang the requester; with a reply deadline the requester gets
// ErrReplyTimeout instead, and the books balance once the handler is
// released.
func TestReplyTimeout(t *testing.T) {
	n := msg.NewNetwork()
	release := make(chan struct{})
	n.StartServer("$D", msg.ProcessorID{Node: 0, CPU: 1}, 1, func(req []byte) []byte {
		<-release
		return req
	})
	s, p := serve(t, n, 20*time.Millisecond)

	start := time.Now()
	_, err := p.Send("$D", []byte("stall"))
	if err == nil {
		t.Fatal("Send against a stalled handler returned success")
	}
	if !errors.Is(err, msg.ErrReplyTimeout) {
		t.Fatalf("error %v is not ErrReplyTimeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("timeout took %v", waited)
	}
	if got := s.Stats().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}

	// Release the handler: the server still answers the abandoned
	// request (charging its reply), so the books balance.
	close(release)
	n.StopServer("$D") // Close waits for the request in service
	st := n.Stats()
	if st.Requests != 1 || st.Requests != st.Replies {
		t.Errorf("Requests %d, Replies %d after handler release, want 1 and 1", st.Requests, st.Replies)
	}
}

// TestSetReplyTimeoutConcurrent hammers the server's deadlines with
// concurrent Sends: four senders share one connection, and the server
// arms and disarms its deadline per request on the dispatchers' reused
// timers (run under -race). No request answered in time may be answered
// with a timeout.
func TestSetReplyTimeoutConcurrent(t *testing.T) {
	n := msg.NewNetwork()
	n.StartServer("$D", msg.ProcessorID{Node: 0, CPU: 1}, 4, func(req []byte) []byte { return req })
	defer n.StopServer("$D")
	s, p := serve(t, n, time.Minute)
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < 500; i++ {
				if _, err := p.Send("$D", []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	senders.Wait()
	if ws := s.Stats(); ws.Timeouts != 0 || ws.FramesOut != 2000 {
		t.Errorf("wire stats %+v, want 2000 replies and no timeout", ws)
	}
}
