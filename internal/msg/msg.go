// Package msg simulates the message-based Tandem operating system: a
// network of loosely-coupled processors (grouped into nodes) whose
// processes communicate only by messages. Servers — Disk Process groups
// — have a fixed number of service slots behind a shared input queue,
// the "group of cooperating processes" of the paper; a request is served
// on its sender's goroutine once it holds a slot.
//
// Every request and reply is a serialized byte string whose size is
// charged to counters, classified by distance (same processor, same
// node via the inter-processor bus, or remote node via the network).
// The paper's central performance claims are message-traffic claims;
// these counters are the measurement instrument that reproduces them.
//
// The instrument keeps two invariants the accounting depends on:
//
//   - request counters are charged only once the server has admitted
//     the request, and every admitted request is answered and its reply
//     charged — so Requests == Replies whenever no send is in flight,
//     even when sends were rejected by a closed server;
//   - a handler that panics still produces a reply (an error), and its
//     service slot is given back.
package msg

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
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

	Panics uint64 // handler panics converted into error replies
}

// Messages returns the total message count (requests + replies).
func (s Stats) Messages() uint64 { return s.Requests + s.Replies }

// Bytes returns the total bytes moved.
func (s Stats) Bytes() uint64 { return s.RequestBytes + s.ReplyBytes }

// ErrReplyTimeout marks a request abandoned at its reply deadline, which
// the transports over the wire keep (wire.Options.ReplyTimeout and the
// client pool's). The request may still be served — the deadline bounds
// the requester's wait, not the server's work.
var ErrReplyTimeout = errors.New("reply timeout")

// ErrNoServer marks a Send addressed to a name with no registered
// server, or to a server that has been stopped. The wire transport maps
// it onto its own error code so remote clients see the same identity.
var ErrNoServer = errors.New("no such server")

// A Handler serves one request: it appends the reply payload to out and
// returns the extended slice, as append does. Handlers run on the
// sender's goroutine, at most `workers` at once per server;
// application-level errors travel inside the reply encoding, not as Go
// errors. Both byte strings are the sender's: req is valid, and out's
// spare capacity writable, only until the handler returns, so a handler
// copies whatever of the request it keeps.
type Handler func(req, out []byte) []byte

// queueDepth is the number of requests that may wait for a service slot
// before a further sender blocks: the input queue's back-pressure.
const queueDepth = 64

// A Server is a named process group: `workers` service slots behind a
// shared input queue.
type Server struct {
	name    string
	proc    ProcessorID
	net     *Network
	handler Handler

	mu     sync.RWMutex // guards closed against admissions
	closed bool
	active sync.WaitGroup // admitted requests not yet answered

	queue chan struct{} // a place per request waiting for a slot
	slots chan struct{} // a place per request in service

	// Queue wait: time requests waited for a free service slot — the
	// server-side complement of the requester's conversation wait.
	queueWaitOps   atomic.Uint64
	queueWaitNanos atomic.Uint64
}

// Name returns the server's process name (e.g. "$DATA1").
func (s *Server) Name() string { return s.name }

// QueueWait returns how many requests have been served and their
// summed wait for a service slot in nanoseconds.
func (s *Server) QueueWait() (ops, nanos uint64) {
	return s.queueWaitOps.Load(), s.queueWaitNanos.Load()
}

// Close refuses new requests and returns once every request admitted
// before it has been answered.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.active.Wait()
}

// acquire takes a service slot. A free slot is taken at once, without
// reading the clock. Otherwise the request takes a place in the input
// queue — blocking while the queue is full: that back-pressure is the
// requester's wait, not queue wait — and its queue wait runs from there
// until a slot frees.
func (s *Server) acquire() {
	var wait time.Duration
	select {
	case s.slots <- struct{}{}:
	default:
		s.queue <- struct{}{}
		queued := time.Now()
		s.slots <- struct{}{}
		<-s.queue
		wait = time.Since(queued)
	}
	s.queueWaitOps.Add(1)
	s.queueWaitNanos.Add(uint64(wait))
}

// invoke runs the handler, converting a panic into an error so the
// requester gets a reply instead of a crash.
func (s *Server) invoke(payload, out []byte) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("msg: server %q: handler panic: %v", s.name, r)
		}
	}()
	return s.handler(payload, out), nil
}

// A Network is the interconnect and process registry for one simulated
// Tandem network (one or more nodes of up to 16 processors).
type Network struct {
	mu sync.Mutex // guards the registry's publications and registered

	// The traffic counters, charged with atomic adds: every message of
	// every session passes here, and none waits for another to count.
	requests, replies           atomic.Uint64
	requestBytes, replyBytes    atomic.Uint64
	local, bus, network, panics atomic.Uint64

	// servers is the registry, read on every message without a lock: a
	// map no one writes once published. Register and StopServer publish
	// a changed copy under mu.
	servers atomic.Pointer[map[string]*Server]

	// registered is closed by the next registration (nil: nobody waits).
	registered chan struct{}

	// lat histograms record request/reply round-trip latency by hop
	// distance. Lock-free; reset with ResetStats.
	lat [3]obs.Histogram
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	n := new(Network)
	n.servers.Store(&map[string]*Server{})
	return n
}

// server looks name up in the published registry.
func (n *Network) server(name string) (*Server, bool) {
	s, ok := (*n.servers.Load())[name]
	return s, ok
}

// publishLocked publishes a copy of the registry with name bound to s, or
// removed when s is nil. Callers hold mu, so publications do not race.
func (n *Network) publishLocked(name string, s *Server) {
	next := maps.Clone(*n.servers.Load())
	if s == nil {
		delete(next, name)
	} else {
		next[name] = s
	}
	n.servers.Store(&next)
}

// Register starts a process group named name on processor proc, with
// `workers` service slots, each running handler for one request at a
// time. It returns the server handle.
func (n *Network) Register(name string, proc ProcessorID, workers int, handler Handler) (*Server, error) {
	if workers < 1 {
		workers = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.server(name); dup {
		return nil, fmt.Errorf("msg: server %q already registered", name)
	}
	s := &Server{name: name, proc: proc, net: n, handler: handler,
		queue: make(chan struct{}, queueDepth), slots: make(chan struct{}, workers)}
	n.publishLocked(name, s)
	if n.registered != nil {
		close(n.registered)
		n.registered = nil
	}
	return s, nil
}

// StartServer is Register for a handler that returns its reply instead
// of appending it: the reply is appended to the sender's buffer, or
// handed over as it is when the sender supplied none.
func (n *Network) StartServer(name string, proc ProcessorID, workers int, handler func(req []byte) []byte) (*Server, error) {
	return n.Register(name, proc, workers, func(req, out []byte) []byte {
		if out == nil {
			return handler(req)
		}
		return append(out, handler(req)...)
	})
}

// Registered returns a channel closed by the next registration of any
// name: a sender re-driving a request to a name that has gone away (a
// takeover in progress) waits on it instead of polling.
func (n *Network) Registered() <-chan struct{} {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.registered == nil {
		n.registered = make(chan struct{})
	}
	return n.registered
}

// StopServer unregisters and stops the named server.
func (n *Network) StopServer(name string) {
	n.mu.Lock()
	s, ok := n.server(name)
	if ok {
		n.publishLocked(name, nil)
	}
	n.mu.Unlock()
	if ok {
		s.Close()
	}
}

// Lookup returns the processor a server runs on.
func (n *Network) Lookup(name string) (ProcessorID, bool) {
	s, ok := n.server(name)
	if !ok {
		return ProcessorID{}, false
	}
	return s.proc, true
}

// Stats returns the traffic counters, summed from the atomic ones: each
// is read once. With no send in flight they are exact, and Requests ==
// Replies; while sends run, the replies are read before the requests, so
// a snapshot never shows a reply whose request it does not count.
func (n *Network) Stats() Stats {
	s := Stats{Replies: n.replies.Load(), ReplyBytes: n.replyBytes.Load(), Panics: n.panics.Load()}
	s.Requests, s.RequestBytes = n.requests.Load(), n.requestBytes.Load()
	s.Local, s.Bus, s.Network = n.local.Load(), n.bus.Load(), n.network.Load()
	return s
}

// ResetStats zeroes the traffic counters and latency histograms.
func (n *Network) ResetStats() {
	for _, c := range []*atomic.Uint64{&n.requests, &n.replies, &n.requestBytes, &n.replyBytes, &n.local, &n.bus, &n.network, &n.panics} {
		c.Store(0)
	}
	for i := range n.lat {
		n.lat[i].Reset()
	}
}

// LatencyAll returns the round-trip latency distribution across every
// hop distance class.
func (n *Network) LatencyAll() obs.Snapshot {
	s := n.lat[DistLocal].Snapshot()
	s.Add(n.lat[DistBus].Snapshot())
	s.Add(n.lat[DistNetwork].Snapshot())
	return s
}

// chargeRequest records one admitted request.
func (n *Network) chargeRequest(payloadLen int, d Distance) {
	n.requestBytes.Add(uint64(payloadLen))
	switch d {
	case DistLocal:
		n.local.Add(1)
	case DistBus:
		n.bus.Add(1)
	default:
		n.network.Add(1)
	}
	n.requests.Add(1)
}

// chargeReply records one reply.
func (n *Network) chargeReply(replyLen int, err error) {
	n.replyBytes.Add(uint64(replyLen))
	if err != nil {
		n.panics.Add(1)
	}
	n.replies.Add(1)
}

// A Client is a requester context: library code (the File System) that
// runs in an application process on a particular processor.
type Client struct {
	net  *Network
	proc ProcessorID
}

// NewClient creates a requester on the given processor.
func (n *Network) NewClient(proc ProcessorID) *Client {
	return &Client{net: n, proc: proc}
}

// Network returns the interconnect this client sends through.
func (c *Client) Network() *Network { return c.net }

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

// Send delivers one request message to the named server and returns its
// reply: SendAppend to no buffer of the caller's.
func (c *Client) Send(server string, payload []byte) ([]byte, error) {
	return c.SendAppend(server, payload, nil)
}

// SendAppend delivers one request message to the named server and
// appends its reply to out, charging both directions to the traffic
// counters. The handler runs on the caller's goroutine once the request
// holds a service slot, and writes the reply into out's spare capacity
// when it fits: a sender that owns its buffers moves a message pair
// without allocating. With a nil out, a handler that returns its reply
// (StartServer) hands it over as it is — it may alias the request — so a
// sender that reuses the request's bytes afterwards passes a non-nil out.
//
// Counters are charged only once the server has admitted the request: a
// send rejected because the server is unknown or closed charges nothing,
// so Requests == Replies stays true across server stops.
func (c *Client) SendAppend(server string, payload, out []byte) ([]byte, error) {
	s, ok := c.net.server(server)
	if !ok {
		return nil, fmt.Errorf("msg: no server %q: %w", server, ErrNoServer)
	}

	start := time.Now()
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, fmt.Errorf("msg: server %q is down: %w", server, ErrNoServer)
	}
	s.active.Add(1)
	s.mu.RUnlock()
	defer s.active.Done()

	dist := classify(c.proc, s.proc)
	c.net.chargeRequest(len(payload), dist)
	s.acquire()
	data, err := s.invoke(payload, out)
	<-s.slots
	replyLen := 0
	if err == nil {
		replyLen = len(data) - len(out)
	}
	c.net.chargeReply(replyLen, err)
	// Round-trip latency is recorded for every conversation — error
	// replies (handler panics) included, so per-distance Lat.Count stays
	// reconcilable against the message counters under faults.
	c.net.lat[dist].Record(time.Since(start))
	if len(s.queue) > 0 {
		// The slot went to a queued request: let it into service now,
		// as a worker finishing a request would take the next.
		runtime.Gosched()
	}
	return data, err
}
