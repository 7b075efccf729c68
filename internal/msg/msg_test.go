package msg

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func echo(req []byte) []byte { return append([]byte("echo:"), req...) }

func TestSendReceive(t *testing.T) {
	n := NewNetwork()
	if _, err := n.StartServer("$DATA1", ProcessorID{0, 1}, 2, echo); err != nil {
		t.Fatal(err)
	}
	defer n.StopServer("$DATA1")
	c := n.NewClient(ProcessorID{0, 0})
	reply, err := c.Send("$DATA1", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, []byte("echo:hello")) {
		t.Errorf("got %q", reply)
	}
}

func TestUnknownServer(t *testing.T) {
	n := NewNetwork()
	c := n.NewClient(ProcessorID{0, 0})
	if _, err := c.Send("$NOPE", nil); err == nil {
		t.Error("send to unknown server accepted")
	}
}

func TestDuplicateServer(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 0}, 1, echo)
	defer n.StopServer("$D")
	if _, err := n.StartServer("$D", ProcessorID{0, 1}, 1, echo); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestTrafficAccounting(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 1}, 1, echo)
	defer n.StopServer("$D")
	c := n.NewClient(ProcessorID{0, 0})
	payload := []byte("12345678")
	c.Send("$D", payload)
	s := n.Stats()
	if s.Requests != 1 || s.Replies != 1 || s.Messages() != 2 {
		t.Errorf("stats %+v", s)
	}
	if s.RequestBytes != 8 || s.ReplyBytes != uint64(len("echo:12345678")) {
		t.Errorf("bytes %+v", s)
	}
	n.ResetStats()
	if n.Stats().Messages() != 0 {
		t.Error("reset failed")
	}
}

func TestDistanceClassification(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$LOCAL", ProcessorID{0, 0}, 1, echo)
	n.StartServer("$BUS", ProcessorID{0, 3}, 1, echo)
	n.StartServer("$REMOTE", ProcessorID{1, 0}, 1, echo)
	defer n.StopServer("$LOCAL")
	defer n.StopServer("$BUS")
	defer n.StopServer("$REMOTE")
	c := n.NewClient(ProcessorID{0, 0})
	c.Send("$LOCAL", nil)
	c.Send("$BUS", nil)
	c.Send("$REMOTE", nil)
	s := n.Stats()
	if s.Local != 1 || s.Bus != 1 || s.Network != 1 {
		t.Errorf("distance stats %+v", s)
	}
}

func TestLookup(t *testing.T) {
	n := NewNetwork()
	p := ProcessorID{2, 7}
	n.StartServer("$X", p, 1, echo)
	defer n.StopServer("$X")
	got, ok := n.Lookup("$X")
	if !ok || got != p {
		t.Errorf("Lookup = %v %v", got, ok)
	}
	if _, ok := n.Lookup("$Y"); ok {
		t.Error("phantom server")
	}
}

func TestServerDown(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 0}, 1, echo)
	n.StopServer("$D")
	c := n.NewClient(ProcessorID{0, 0})
	if _, err := c.Send("$D", nil); err == nil {
		t.Error("send to stopped server accepted")
	}
}

func TestProcessGroupConcurrency(t *testing.T) {
	// Four service slots serve four requests at once.
	n := NewNetwork()
	var mu sync.Mutex
	inflight, maxInflight := 0, 0
	block := make(chan struct{})
	n.StartServer("$D", ProcessorID{0, 0}, 4, func(req []byte) []byte {
		mu.Lock()
		inflight++
		if inflight > maxInflight {
			maxInflight = inflight
		}
		mu.Unlock()
		<-block
		mu.Lock()
		inflight--
		mu.Unlock()
		return req
	})
	c := n.NewClient(ProcessorID{0, 0})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Send("$D", []byte("x"))
		}()
	}
	// Let the handlers pile up, then release.
	for {
		mu.Lock()
		if maxInflight == 4 {
			mu.Unlock()
			break
		}
		mu.Unlock()
	}
	close(block)
	wg.Wait()
	n.StopServer("$D")
	if maxInflight != 4 {
		t.Errorf("max inflight %d, want 4", maxInflight)
	}
}

func TestManyClientsStress(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 1}, 4, echo)
	defer n.StopServer("$D")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := n.NewClient(ProcessorID{0, id % 4})
			for i := 0; i < 200; i++ {
				msg := []byte(fmt.Sprintf("m-%d-%d", id, i))
				reply, err := c.Send("$D", msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(reply, append([]byte("echo:"), msg...)) {
					t.Error("reply mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := n.Stats().Requests; got != 1600 {
		t.Errorf("requests %d", got)
	}
	srv := n.Server("$D")
	if srv.Received() != 1600 {
		t.Errorf("received %d", srv.Received())
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	s := Stats{Local: 10, Bus: 5, Network: 2, RequestBytes: 2048, ReplyBytes: 2048}
	est := m.Estimate(s)
	if est <= 0 {
		t.Fatal("zero estimate")
	}
	// Remote messages dominate local ones.
	localOnly := m.Estimate(Stats{Local: 10})
	remoteOnly := m.Estimate(Stats{Network: 10})
	if remoteOnly <= localOnly {
		t.Errorf("remote %v should cost more than local %v", remoteOnly, localOnly)
	}
	// Bytes matter.
	if m.Estimate(Stats{Local: 1, RequestBytes: 1 << 20}) <= m.Estimate(Stats{Local: 1}) {
		t.Error("byte cost ignored")
	}
}

// TestHandlerPanicReplies pins the hang bugfix: a panicking handler
// used to kill its worker goroutine without replying, blocking the
// requester forever. Now the panic converts into an error reply and the
// service slot is given back.
func TestHandlerPanicReplies(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 1}, 1, func(req []byte) []byte {
		if bytes.Equal(req, []byte("boom")) {
			panic("injected")
		}
		return echo(req)
	})
	defer n.StopServer("$D")
	c := n.NewClient(ProcessorID{0, 0})

	done := make(chan error, 1)
	go func() {
		_, err := c.Send("$D", []byte("boom"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("panicking handler returned success")
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Errorf("error %v does not mention the panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send hung on a panicking handler")
	}

	// With a single slot, the server only answers this if the panic
	// gave the slot back.
	if _, err := c.Send("$D", []byte("ok")); err != nil {
		t.Fatalf("the slot did not survive the panic: %v", err)
	}
	s := n.Stats()
	if s.Requests != s.Replies {
		t.Errorf("Requests %d != Replies %d after panic", s.Requests, s.Replies)
	}
	if s.Panics != 1 {
		t.Errorf("Panics = %d, want 1", s.Panics)
	}
}

// TestClosedServerAccounting pins the accounting-skew bugfix: Send used
// to charge Requests/RequestBytes/distance before discovering the
// server closed, permanently skewing Requests != Replies.
func TestClosedServerAccounting(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 1}, 1, echo)
	c := n.NewClient(ProcessorID{0, 0})
	if _, err := c.Send("$D", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	n.StopServer("$D")
	for i := 0; i < 10; i++ {
		if _, err := c.Send("$D", []byte("rejected")); err == nil {
			t.Fatal("send to stopped server accepted")
		}
	}
	s := n.Stats()
	if s.Requests != s.Replies {
		t.Errorf("Requests %d != Replies %d after closed-server sends", s.Requests, s.Replies)
	}
	if s.Requests != 1 {
		t.Errorf("Requests = %d, want 1 (rejected sends must charge nothing)", s.Requests)
	}
	if s.RequestBytes != 4 {
		t.Errorf("RequestBytes = %d, want 4", s.RequestBytes)
	}
}

// TestStopSendRace hammers StopServer/Send concurrently under -race to
// pin the close-vs-enqueue window: every Send must either complete or
// fail cleanly, never panic on a closed channel, and the traffic
// counters must balance once the dust settles.
func TestStopSendRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		n := NewNetwork()
		n.StartServer("$D", ProcessorID{0, 1}, 2, echo)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := n.NewClient(ProcessorID{0, id % 4})
				for i := 0; i < 50; i++ {
					reply, err := c.Send("$D", []byte("x"))
					if err == nil && !bytes.Equal(reply, []byte("echo:x")) {
						t.Error("reply corrupted")
						return
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.StopServer("$D")
		}()
		wg.Wait()
		s := n.Stats()
		if s.Requests != s.Replies {
			t.Fatalf("round %d: Requests %d != Replies %d", round, s.Requests, s.Replies)
		}
	}
}

// TestLatencyRecordedForErrorReplies pins the accounting bugfix: Send
// used to record round-trip latency only on success, returning early for
// panic/error replies, so per-distance Lat.Count silently drifted below
// the message count under faults. Every conversation that got a reply —
// error replies included — must land one latency sample, keeping
// Lat.Count == Requests reconcilable per distance class.
func TestLatencyRecordedForErrorReplies(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$REMOTE", ProcessorID{1, 0}, 1, func(req []byte) []byte {
		if bytes.Equal(req, []byte("boom")) {
			panic("injected")
		}
		return echo(req)
	})
	defer n.StopServer("$REMOTE")
	c := n.NewClient(ProcessorID{0, 0})
	for i := 0; i < 3; i++ {
		if _, err := c.Send("$REMOTE", []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Send("$REMOTE", []byte("boom")); err == nil {
			t.Fatal("panicking handler returned success")
		}
	}
	s := n.Stats()
	if s.Requests != 5 || s.Replies != 5 || s.Panics != 2 {
		t.Fatalf("stats %+v, want 5 requests, 5 replies, 2 panics", s)
	}
	if got := n.Latency(DistNetwork).Count(); got != s.Requests {
		t.Errorf("network-distance latency samples = %d, want %d (error replies must record latency)", got, s.Requests)
	}
}

// TestQueueWaitExcludesSenderBackpressure: a request that finds the
// input queue full blocks — that back-pressure is the requester's wait —
// and its queue wait starts only once it holds a place in the queue. The
// one service slot and every place in the queue are taken, a sender
// blocks for the length of a deliberate pause, and then the queue and
// the slot free up at once: its queue wait is the scheduling delay, far
// under the pause. With the bug the pause was counted as queue wait.
func TestQueueWaitExcludesSenderBackpressure(t *testing.T) {
	const pause = 300 * time.Millisecond
	const threshold = pause / 2

	n := NewNetwork()
	srv, err := n.StartServer("$D", ProcessorID{0, 1}, 1, echo)
	if err != nil {
		t.Fatal(err)
	}
	defer n.StopServer("$D")
	srv.slots <- struct{}{} // the one slot is busy
	for i := 0; i < queueDepth; i++ {
		srv.queue <- struct{}{} // and every place in the queue is taken
	}
	done := make(chan struct{})
	go func() {
		srv.acquire() // blocks in back-pressure for the pause
		<-srv.slots
		close(done)
	}()
	time.Sleep(pause)
	for i := 0; i < queueDepth; i++ {
		<-srv.queue
	}
	<-srv.slots
	<-done

	ops, nanos := srv.QueueWait()
	if ops != 1 {
		t.Fatalf("queue-wait ops = %d, want 1", ops)
	}
	if wait := time.Duration(nanos); wait >= threshold {
		t.Errorf("queue wait %v after a %v back-pressure block: back-pressure misattributed to queue wait", wait, pause)
	}
}

// TestQueueWaitMeasured verifies the server records a queue wait for
// every request it serves, a free slot's included.
func TestQueueWaitMeasured(t *testing.T) {
	n := NewNetwork()
	srv, err := n.StartServer("$D", ProcessorID{0, 1}, 1, echo)
	if err != nil {
		t.Fatal(err)
	}
	defer n.StopServer("$D")
	c := n.NewClient(ProcessorID{0, 0})
	for i := 0; i < 5; i++ {
		c.Send("$D", []byte("q"))
	}
	ops, _ := srv.QueueWait()
	if ops != 5 {
		t.Errorf("queue-wait ops = %d, want 5", ops)
	}
}

// TestLatencyHistogram verifies Send records round-trip latency by
// distance class and ResetStats clears it.
func TestLatencyHistogram(t *testing.T) {
	n := NewNetwork()
	n.StartServer("$LOCAL", ProcessorID{0, 0}, 1, echo)
	n.StartServer("$REMOTE", ProcessorID{1, 0}, 1, echo)
	defer n.StopServer("$LOCAL")
	defer n.StopServer("$REMOTE")
	c := n.NewClient(ProcessorID{0, 0})
	for i := 0; i < 3; i++ {
		c.Send("$LOCAL", nil)
	}
	c.Send("$REMOTE", nil)
	if got := n.Latency(DistLocal).Count(); got != 3 {
		t.Errorf("local latency count = %d, want 3", got)
	}
	if got := n.Latency(DistNetwork).Count(); got != 1 {
		t.Errorf("network latency count = %d, want 1", got)
	}
	all := n.LatencyAll()
	if all.Count() != 4 {
		t.Errorf("total latency count = %d, want 4", all.Count())
	}
	if all.Quantile(0.5) <= 0 {
		t.Error("p50 latency is zero")
	}
	n.ResetStats()
	if n.LatencyAll().Count() != 0 {
		t.Error("ResetStats did not clear latency histograms")
	}
}

// TestAllocationCeilings pins what a message hop allocates: nothing. The
// request is served on the sender's goroutine, so there is no request
// to build, no reply channel and no outcome to send back on it; and the
// reply goes into the sender's buffer.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	n := NewNetwork()
	n.StartServer("$D", ProcessorID{0, 1}, 2, func(req []byte) []byte { return req })
	defer n.StopServer("$D")
	c := n.NewClient(ProcessorID{0, 0})
	payload := []byte("payload")
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := c.Send("$D", payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("a Send to an echo server allocated %v objects, want 0", got)
	}
	// A handler that appends its reply to the sender's buffer, which the
	// sender reuses: nothing either.
	n.Register("$A", ProcessorID{0, 1}, 2, func(req, out []byte) []byte { return append(out, req...) })
	defer n.StopServer("$A")
	var out []byte
	if got := testing.AllocsPerRun(1000, func() {
		var err error
		if out, err = c.SendAppend("$A", payload, out[:0]); err != nil || string(out) != "payload" {
			t.Fatal(string(out), err)
		}
	}); got != 0 {
		t.Errorf("a SendAppend into a reused buffer allocated %v objects, want 0", got)
	}
}
