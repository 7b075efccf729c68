// Package msg simulates the message-based Tandem operating system: a
// network of loosely-coupled processors (grouped into nodes) whose
// processes communicate only by messages. Servers — Disk Process groups
// — share a message input queue drained by a pool of goroutines, the
// "group of cooperating processes" of the paper.
//
// Every request and reply is a serialized byte string whose size is
// charged to counters, classified by distance (same processor, same
// node via the inter-processor bus, or remote node via the network).
// The paper's central performance claims are message-traffic claims;
// these counters are the measurement instrument that reproduces them.
//
// The instrument keeps two invariants the accounting depends on:
//
//   - request counters are charged only once the request is actually
//     enqueued at the server, and reply counters are charged by the
//     worker when it answers — so Requests == Replies whenever every
//     accepted request was answered, even when sends were rejected by a
//     closed server or abandoned by a timed-out requester;
//   - a handler that panics still produces a reply (an error), so a
//     requester never blocks forever on a dead worker.
package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/obs"
)

// A ProcessorID locates a processor: node within the network, CPU
// within the node (Figure 1 of the paper shows two 4-CPU nodes).
type ProcessorID struct {
	Node int
	CPU  int
}

// String renders the processor like "\NODE1.CPU2".
func (p ProcessorID) String() string { return fmt.Sprintf("\\N%d.C%d", p.Node, p.CPU) }

// Stats counts message traffic.
type Stats struct {
	Requests     uint64
	Replies      uint64
	RequestBytes uint64
	ReplyBytes   uint64
	Local        uint64 // request landed on the sender's own processor
	Bus          uint64 // crossed the inter-processor bus (same node)
	Network      uint64 // crossed node boundaries

	Timeouts uint64 // sends abandoned at the reply deadline
	Panics   uint64 // handler panics converted into error replies
}

// Messages returns the total message count (requests + replies).
func (s Stats) Messages() uint64 { return s.Requests + s.Replies }

// Bytes returns the total bytes moved.
func (s Stats) Bytes() uint64 { return s.RequestBytes + s.ReplyBytes }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.Replies += o.Replies
	s.RequestBytes += o.RequestBytes
	s.ReplyBytes += o.ReplyBytes
	s.Local += o.Local
	s.Bus += o.Bus
	s.Network += o.Network
	s.Timeouts += o.Timeouts
	s.Panics += o.Panics
}

// ErrReplyTimeout marks a Send abandoned at its reply deadline. The
// request may still be served — the deadline bounds the requester's
// wait, not the server's work.
var ErrReplyTimeout = errors.New("reply timeout")

// ErrNoServer marks a Send addressed to a name with no registered
// server, or to a server that has been stopped. The wire transport maps
// it onto its own error code so remote clients see the same identity.
var ErrNoServer = errors.New("no such server")

// A Handler serves one request and returns the reply payload. Handlers
// run on the server's goroutine pool; application-level errors travel
// inside the reply encoding, not as Go errors.
type Handler func(req []byte) []byte

// outcome is what travels back on a request's reply channel: the reply
// payload, or the transport-level error (handler panic).
type outcome struct {
	data []byte
	err  error
}

type request struct {
	payload []byte
	reply   chan outcome

	// enqueuedNanos is stamped by the sender at the moment the request
	// actually lands in the server's input queue — after any sender
	// back-pressure block on a full queue, which belongs to the
	// requester's wait, not the server's queue-wait histogram. Atomic
	// because a worker on a direct handoff can pick the request up
	// before the sender's stamp lands; a zero read means "picked up
	// immediately", i.e. no queue wait.
	enqueuedNanos atomic.Int64
}

// A Server is a named process group with a shared input queue.
type Server struct {
	name    string
	proc    ProcessorID
	net     *Network
	handler Handler

	mu     sync.RWMutex // guards closed vs. in-flight queue sends
	queue  chan *request
	closed bool
	wg     sync.WaitGroup

	received atomic.Uint64

	// Queue wait: time requests sat in the shared input queue before a
	// worker picked them up — the server-side complement of the
	// requester's conversation wait.
	queueWaitOps   atomic.Uint64
	queueWaitNanos atomic.Uint64
	queueWaitHist  obs.Histogram
}

// Name returns the server's process name (e.g. "$DATA1").
func (s *Server) Name() string { return s.name }

// Processor returns where the server runs.
func (s *Server) Processor() ProcessorID { return s.proc }

// Received returns how many requests this server has accepted.
func (s *Server) Received() uint64 { return s.received.Load() }

// QueueWait returns how many requests have been picked up by workers
// and their summed input-queue wait in nanoseconds.
func (s *Server) QueueWait() (ops, nanos uint64) {
	return s.queueWaitOps.Load(), s.queueWaitNanos.Load()
}

// QueueWaitLatency returns the input-queue wait distribution.
func (s *Server) QueueWaitLatency() obs.Snapshot { return s.queueWaitHist.Snapshot() }

// Close stops the server's goroutine pool after draining the queue.
// Every request accepted before Close gets its reply.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// serve drains the shared input queue; one goroutine per pool worker.
func (s *Server) serve() {
	defer s.wg.Done()
	for req := range s.queue {
		var wait time.Duration
		if enq := req.enqueuedNanos.Load(); enq != 0 {
			if w := time.Since(time.Unix(0, enq)); w > 0 {
				wait = w
			}
		}
		s.queueWaitOps.Add(1)
		s.queueWaitNanos.Add(uint64(wait))
		s.queueWaitHist.Record(wait)
		data, err := s.invoke(req.payload)
		// Reply accounting happens here, at the worker, not at the
		// requester: a requester that abandoned the conversation at its
		// deadline must not skew Requests != Replies for a request that
		// was in fact served.
		s.net.chargeReply(len(data), err)
		req.reply <- outcome{data: data, err: err}
	}
}

// invoke runs the handler, converting a panic into an error so the
// worker survives and the requester gets a reply instead of a hang.
func (s *Server) invoke(payload []byte) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("msg: server %q: handler panic: %v", s.name, r)
		}
	}()
	return s.handler(payload), nil
}

// A Network is the interconnect and process registry for one simulated
// Tandem network (one or more nodes of up to 16 processors).
type Network struct {
	mu      sync.Mutex
	servers map[string]*Server
	stats   Stats

	// ReplyTimeout is the default reply deadline applied to clients
	// created after it is set (0 = wait forever). Set it before creating
	// clients; per-client SetReplyTimeout overrides.
	ReplyTimeout time.Duration

	// lat histograms record request/reply round-trip latency by hop
	// distance. Lock-free; reset with ResetStats.
	lat [3]obs.Histogram
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{servers: make(map[string]*Server)}
}

// StartServer registers a process group named name on processor proc,
// with `workers` goroutines sharing the input queue, each running
// handler. It returns the server handle.
func (n *Network) StartServer(name string, proc ProcessorID, workers int, handler Handler) (*Server, error) {
	if workers < 1 {
		workers = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.servers[name]; dup {
		return nil, fmt.Errorf("msg: server %q already registered", name)
	}
	s := &Server{name: name, proc: proc, net: n, handler: handler, queue: make(chan *request, 64)}
	n.servers[name] = s
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.serve()
	}
	return s, nil
}

// StopServer unregisters and stops the named server.
func (n *Network) StopServer(name string) {
	n.mu.Lock()
	s := n.servers[name]
	delete(n.servers, name)
	n.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// Server returns the named server's handle (nil when not registered).
func (n *Network) Server(name string) *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.servers[name]
}

// Lookup returns the processor a server runs on.
func (n *Network) Lookup(name string) (ProcessorID, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.servers[name]
	if !ok {
		return ProcessorID{}, false
	}
	return s.proc, true
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the traffic counters and latency histograms.
func (n *Network) ResetStats() {
	n.mu.Lock()
	n.stats = Stats{}
	n.mu.Unlock()
	for i := range n.lat {
		n.lat[i].Reset()
	}
}

// Latency returns the round-trip latency distribution for one hop
// distance class.
func (n *Network) Latency(d Distance) obs.Snapshot {
	if d < DistLocal || d > DistNetwork {
		return obs.Snapshot{}
	}
	return n.lat[d].Snapshot()
}

// LatencyAll returns the round-trip latency distribution across every
// hop distance class.
func (n *Network) LatencyAll() obs.Snapshot {
	s := n.lat[DistLocal].Snapshot()
	s.Add(n.lat[DistBus].Snapshot())
	s.Add(n.lat[DistNetwork].Snapshot())
	return s
}

// chargeRequest records one accepted (enqueued) request.
func (n *Network) chargeRequest(payloadLen int, d Distance) {
	n.mu.Lock()
	n.stats.Requests++
	n.stats.RequestBytes += uint64(payloadLen)
	switch d {
	case DistLocal:
		n.stats.Local++
	case DistBus:
		n.stats.Bus++
	default:
		n.stats.Network++
	}
	n.mu.Unlock()
}

// chargeReply records one reply at the serving worker.
func (n *Network) chargeReply(replyLen int, err error) {
	n.mu.Lock()
	n.stats.Replies++
	n.stats.ReplyBytes += uint64(replyLen)
	if err != nil {
		n.stats.Panics++
	}
	n.mu.Unlock()
}

// A Client is a requester context: library code (the File System) that
// runs in an application process on a particular processor.
type Client struct {
	net     *Network
	proc    ProcessorID
	timeout atomic.Int64 // reply deadline in nanoseconds (0 = wait forever)
}

// NewClient creates a requester on the given processor. It inherits the
// network's default reply deadline.
func (n *Network) NewClient(proc ProcessorID) *Client {
	c := &Client{net: n, proc: proc}
	c.timeout.Store(int64(n.ReplyTimeout))
	return c
}

// Processor returns where the client runs.
func (c *Client) Processor() ProcessorID { return c.proc }

// Network returns the interconnect this client sends through.
func (c *Client) Network() *Network { return c.net }

// SetReplyTimeout bounds how long Send waits for a reply (0 = forever).
// Safe to call concurrently with Send: sends already waiting keep the
// deadline they started with; sends issued afterwards see the new one.
func (c *Client) SetReplyTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// ReplyTimeout returns the client's reply deadline.
func (c *Client) ReplyTimeout() time.Duration { return time.Duration(c.timeout.Load()) }

// Distance classifies one request/reply hop by how far it travels —
// the same classification Send charges to the Local/Bus/Network
// counters, exposed so per-conversation accounting (parallel scan
// statistics) can cost its own traffic without racing on the global
// counters.
type Distance int

const (
	// DistLocal is a message pair that stays on the sender's processor.
	DistLocal Distance = iota
	// DistBus crosses the inter-processor bus within one node.
	DistBus
	// DistNetwork crosses node boundaries.
	DistNetwork
)

// classify returns the hop distance between two processors.
func classify(from, to ProcessorID) Distance {
	switch {
	case from == to:
		return DistLocal
	case from.Node == to.Node:
		return DistBus
	default:
		return DistNetwork
	}
}

// DistanceTo classifies the hop from this client to the named server.
// An unknown server classifies as DistNetwork: locating it would itself
// cross the network.
func (c *Client) DistanceTo(server string) Distance {
	proc, ok := c.net.Lookup(server)
	if !ok {
		return DistNetwork
	}
	return classify(c.proc, proc)
}

// Send delivers one request message to the named server and waits for
// the reply, charging both directions to the traffic counters.
//
// Counters are charged only once the request is actually enqueued: a
// send rejected because the server is unknown or closed charges
// nothing, so Requests == Replies stays true across server stops. The
// reply side is charged by the worker (see Server.serve), so it also
// stays true when this requester gives up at its reply deadline but the
// server finishes the work anyway.
func (c *Client) Send(server string, payload []byte) ([]byte, error) {
	c.net.mu.Lock()
	s, ok := c.net.servers[server]
	c.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("msg: no server %q: %w", server, ErrNoServer)
	}

	start := time.Now()
	req := &request{payload: payload, reply: make(chan outcome, 1)}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, fmt.Errorf("msg: server %q is down: %w", server, ErrNoServer)
	}
	s.received.Add(1)
	// A full queue blocks this send until a worker drains a slot; that
	// back-pressure wait belongs to the requester (it is part of the
	// round trip measured from start), so the queue-entry stamp is taken
	// only once the send returns — the moment the request actually sits
	// in the input queue.
	s.queue <- req
	req.enqueuedNanos.Store(time.Now().UnixNano())
	s.mu.RUnlock()

	dist := classify(c.proc, s.proc)
	c.net.chargeRequest(len(payload), dist)

	var out outcome
	if timeout := c.ReplyTimeout(); timeout <= 0 {
		out = <-req.reply
	} else {
		timer := AcquireTimer(timeout)
		select {
		case out = <-req.reply:
			ReleaseTimer(timer, false)
		case <-timer.C:
			ReleaseTimer(timer, true)
			c.net.mu.Lock()
			c.net.stats.Timeouts++
			c.net.mu.Unlock()
			return nil, fmt.Errorf("msg: server %q: %w after %v", server, ErrReplyTimeout, timeout)
		}
	}
	// Round-trip latency is recorded for every conversation that got a
	// reply — error replies (handler panics) included, so per-distance
	// Lat.Count stays reconcilable against the message counters under
	// faults. Only abandoned (timed-out) sends go unrecorded; they are
	// counted in Timeouts instead.
	c.net.lat[dist].Record(time.Since(start))
	if out.err != nil {
		return nil, out.err
	}
	return out.data, nil
}
