// Package nsqlclient is the remote side of the serving path: a
// connection pool that speaks the wire frame protocol to an nsqld and
// presents the same Send(server, payload) contract as an in-process
// msg.Client — both satisfy msg.Transport, so code written against the
// simulated interconnect runs unchanged against a real socket.
//
// The pool holds a fixed set of connections and pipelines: every
// connection carries any number of outstanding requests, each tagged
// with a correlation ID, and the reader goroutine matches
// completion-order replies back to their waiters. Requests sent together
// on one connection share a socket write (wire.Writer: the first sender
// leads the flush, the others append behind it and go straight to
// waiting for their replies), so a request joins the flush that is
// already forming: it goes to a connection whose writer has a leader out
// and room under its cap, and only when no connection has one to the
// next connection in turn — which is also how idle connections get
// dialed. A burst of requests therefore rides one connection and one
// write; the price is that a connection that breaks fails more of the
// requests in flight, each with a clean error and none retried behind
// the caller's back. A request that hits its reply deadline abandons the
// correlation ID (the late reply is dropped on arrival) and returns an
// error wrapping msg.ErrReplyTimeout, mirroring the in-process
// semantics; deadlines are swept per connection by one timer, not armed
// per request. A broken connection is re-dialed lazily by the next
// request routed to it — the pool itself never goes down just because
// the server did.
package nsqlclient

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/msg/wire"
	"nonstopsql/internal/obs"
)

// ErrClosed marks a Send on a closed pool.
var ErrClosed = errors.New("nsqlclient: pool closed")

// ErrDraining marks a request refused because the server is shutting
// down gracefully. Callers can treat it as "retry elsewhere/later".
var ErrDraining = errors.New("nsqlclient: server draining")

// Options tunes a pool.
type Options struct {
	// Conns is the number of pooled connections (default 4). A request
	// joins a connection whose flush is forming, else takes the next
	// connection in turn; pipelining means even one connection carries
	// unlimited concurrent requests, and frames sent together on one
	// connection share a socket write, so more connections buy parallel
	// readers and failure isolation, not cheaper writes.
	Conns int

	// ReplyTimeout bounds each request (0 = wait forever).
	ReplyTimeout time.Duration
}

// dialTimeout bounds each connect attempt.
const dialTimeout = 5 * time.Second

// A Pool is a pipelined client connection pool to one wire server.
type Pool struct {
	addr    string
	opts    Options
	dial    func() (net.Conn, error)
	timeout atomic.Int64 // per-request deadline in nanoseconds
	corr    atomic.Uint64
	next    atomic.Uint64
	closed  atomic.Bool
	wire    obs.Wire
	conns   []*conn

	stmtMu sync.Mutex       // guards stmts
	stmts  map[string]*Stmt // prepared statements by SQL text
}

// A Pool is a msg.Transport: drop-in for an in-process msg.Client.
var _ msg.Transport = (*Pool)(nil)

// result is one request's outcome: its reply frame, whose read buffer
// the waiter releases once it has copied the body out, or an error.
type result struct {
	f   wire.Frame
	err error
}

// replyChans holds the reply channels of finished requests. Reuse is
// safe by one rule: whoever deletes a pending entry under conn.mu — the
// reader, the sweep or fail — sends on its channel exactly once, and the
// waiter receives that once before handing the channel back.
var replyChans = sync.Pool{New: func() any { return make(chan result, 1) }}

// errSwept is what the sweep delivers to a request past its deadline;
// Send turns it into the error the caller sees.
var errSwept = errors.New("nsqlclient: reply deadline passed")

// epoch anchors deadlines: time.Since(epoch) is one monotonic clock read.
var epoch = time.Now()

// waiter is one pending request: where its outcome goes, and when it is
// due (since epoch; 0 = no deadline).
type waiter struct {
	ch  chan result
	due time.Duration
}

// conn is one pooled connection: the socket, its frame writer and the
// pending-request table its reader resolves — one incarnation, replaced
// together on redial, so a frame registered on one socket is never
// written to its successor — its deadline sweep, and the state to
// re-dial after a failure.
type conn struct {
	p  *Pool
	mu sync.Mutex // guards nc, pending, sweep, sweepAt, dialed; writes of w

	nc      net.Conn
	w       atomic.Pointer[wire.Writer] // read without mu by pick
	pending map[uint64]waiter
	sweep   *time.Timer   // this incarnation's deadline sweep, once one is set
	sweepAt time.Duration // when sweep fires (0: not armed)
	dialed  bool          // a successful dial happened before: next one is a redial
}

// Dial creates a pool to addr. The first connection is dialed eagerly
// so an unreachable server fails here, not on the first request; the
// rest are dialed on first use.
func Dial(addr string, opts Options) (*Pool, error) { return newPool(addr, opts, nil) }

// newPool is Dial with the way a connection is made as a parameter (nil:
// TCP to addr), which is how the tests put a pool on a pipe or on a
// socket whose writes they can hold.
func newPool(addr string, opts Options, dial func() (net.Conn, error)) (*Pool, error) {
	if opts.Conns <= 0 {
		opts.Conns = 4
	}
	if dial == nil {
		dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, dialTimeout) }
	}
	p := &Pool{addr: addr, opts: opts, dial: dial, stmts: make(map[string]*Stmt)}
	p.timeout.Store(int64(opts.ReplyTimeout))
	p.conns = make([]*conn, opts.Conns)
	for i := range p.conns {
		p.conns[i] = &conn{p: p}
	}
	c := p.conns[0]
	c.mu.Lock()
	err := c.ensureLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the server address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// ReplyTimeout returns the current per-request deadline.
func (p *Pool) ReplyTimeout() time.Duration { return time.Duration(p.timeout.Load()) }

// Stats snapshots the pool's wire-level counters.
func (p *Pool) Stats() obs.WireStats { return p.wire.Snapshot() }

// Send dispatches payload to the named server process on the remote
// cluster and waits for its reply — the msg.Transport contract over
// TCP. Errors the remote transport coded are mapped back to the msg
// sentinels: a server-side or client-side deadline wraps
// msg.ErrReplyTimeout, an unknown process name wraps msg.ErrNoServer.
func (p *Pool) Send(server string, payload []byte) ([]byte, error) {
	return p.SendAppend(server, payload, nil)
}

// SendAppend is Send with the reply appended to out: the reply frame's
// read buffer goes back to the pool as soon as its body is copied out, so
// a caller that reuses out receives replies without allocating. With a
// nil out the reply is the frame's own buffer, handed over.
func (p *Pool) SendAppend(server string, payload, out []byte) ([]byte, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	c := p.pick()
	corr := p.corr.Add(1)
	wt := waiter{ch: replyChans.Get().(chan result)}
	d := p.ReplyTimeout()
	if d > 0 {
		wt.due = time.Since(epoch) + d
	}

	c.mu.Lock()
	if err := c.ensureLocked(); err != nil {
		c.mu.Unlock()
		replyChans.Put(wt.ch)
		return nil, err
	}
	nc, w := c.nc, c.w.Load()
	c.pending[corr] = wt
	if wt.due > 0 && (c.sweepAt == 0 || wt.due < c.sweepAt) {
		c.armLocked(nc, wt.due, wt.due-d)
	}
	c.mu.Unlock()

	// The frame joins the connection's flush (wire.Writer): this sender
	// leads it or, behind one in flight, returns at once and waits for
	// its reply. A write that fails — ours or the leader's — fails every
	// request pending on this incarnation.
	if err := w.Request(corr, server, payload); err != nil {
		p.wire.Error()
		c.fail(nc, err)
		// fail already resolved our channel; fall through to the wait so
		// the error text is uniform with a mid-conversation breakage.
	}

	res := <-wt.ch
	replyChans.Put(wt.ch)
	switch {
	case errors.Is(res.err, errSwept):
		p.wire.Timeout()
		return nil, fmt.Errorf("nsqlclient: server %q: %w after %v", server, msg.ErrReplyTimeout, d)
	case res.err != nil:
		return nil, res.err
	case out == nil:
		return res.f.Body, nil
	}
	out = append(out, res.f.Body...)
	res.f.Release()
	return out, nil
}

// pick chooses the connection for one request: the first whose writer
// has a flush forming with room under its cap, so the frame shares a
// write already paid for; else the next in turn, dialing it if it is
// idle. It is the one place a request's connection is chosen.
func (p *Pool) pick() *conn {
	for _, c := range p.conns {
		if w := c.w.Load(); w != nil && w.Joinable() {
			return c
		}
	}
	return p.conns[(p.next.Add(1)-1)%uint64(len(p.conns))]
}

// ensureLocked makes sure the connection is dialed; c.mu must be held.
func (c *conn) ensureLocked() error {
	if c.nc != nil {
		return nil
	}
	nc, err := c.p.dial()
	if err != nil {
		return fmt.Errorf("nsqlclient: dial %s: %w", c.p.addr, err)
	}
	c.nc = nc
	c.w.Store(wire.NewWriter(nc, &c.p.wire))
	c.pending = make(map[uint64]waiter)
	c.sweep, c.sweepAt = nil, 0
	c.p.wire.ConnOpened()
	if c.dialed {
		c.p.wire.Redial()
	}
	c.dialed = true
	go c.read(nc)
	return nil
}

// armLocked sets incarnation nc's sweep to fire at due, now being the
// time since epoch; c.mu must be held. The sweep is armed no later than
// the earliest deadline pending.
func (c *conn) armLocked(nc net.Conn, due, now time.Duration) {
	c.sweepAt = due
	if c.sweep == nil {
		c.sweep = time.AfterFunc(due-now, func() { c.sweepDue(nc) })
	} else {
		c.sweep.Reset(due - now)
	}
}

// sweepDue is incarnation nc's deadline sweep: it fails every request
// past its deadline — deleting it, so a late reply is dropped — and
// re-arms for the earliest deadline left. A sweep that finds its
// incarnation gone does nothing.
func (c *conn) sweepDue(nc net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc != nc {
		return
	}
	now, next := time.Since(epoch), time.Duration(0)
	for corr, wt := range c.pending {
		switch {
		case wt.due == 0:
		case wt.due <= now:
			delete(c.pending, corr)
			wt.ch <- result{err: errSwept} // never blocks: the one send
		case next == 0 || wt.due < next:
			next = wt.due
		}
	}
	c.sweepAt = 0
	if next > 0 {
		c.armLocked(nc, next, now)
	}
}

// read is the reader goroutine for one connection incarnation: it
// decodes reply frames and resolves the matching pending requests until
// the connection breaks, then fails whatever is still in flight. It
// looks replies up in c.pending, not in its own incarnation's table: once
// fail has taken that table its requests are fail's to answer, and
// c.pending is nil or a successor's, where correlation IDs — unique in
// the pool — find nothing, so no channel gets two sends.
func (c *conn) read(nc net.Conn) {
	fr := wire.NewReader(nc, &c.p.wire)
	for {
		f, err := fr.Next()
		if err != nil {
			c.fail(nc, err)
			return
		}
		c.mu.Lock()
		wt, ok := c.pending[f.Corr]
		delete(c.pending, f.Corr)
		c.mu.Unlock()
		if !ok {
			f.Release() // abandoned at its deadline: drop the late reply
			continue
		}
		wt.ch <- decode(f)
	}
}

// decode maps one reply frame to a Send outcome, restoring the msg
// error sentinels the remote transport coded. Only a reply keeps its
// frame: an error's text is copied out and the frame released.
func decode(f wire.Frame) result {
	if f.Kind == wire.KindReply {
		return result{f: f}
	}
	defer f.Release()
	switch f.Kind {
	case wire.KindReplyErr:
		text := string(f.Body)
		switch f.Code {
		case wire.CodeTimeout:
			return result{err: fmt.Errorf("nsqlclient: %s: %w", text, msg.ErrReplyTimeout)}
		case wire.CodeNoServer:
			return result{err: fmt.Errorf("nsqlclient: %s: %w", text, msg.ErrNoServer)}
		case wire.CodeDraining:
			return result{err: fmt.Errorf("nsqlclient: %s: %w", text, ErrDraining)}
		default:
			return result{err: fmt.Errorf("nsqlclient: remote: %s", text)}
		}
	default:
		return result{err: fmt.Errorf("nsqlclient: unexpected frame kind %d", f.Kind)}
	}
}

// fail tears down one connection incarnation after an I/O error: its
// sweep stops, every request still pending on it gets a clean error, and
// the slot is left nil for the next Send routed here to re-dial. It is a
// no-op if a newer incarnation already took the slot.
func (c *conn) fail(nc net.Conn, cause error) {
	c.mu.Lock()
	if c.nc != nc {
		c.mu.Unlock()
		return
	}
	c.nc = nil
	c.w.Store(nil)
	if c.sweep != nil {
		c.sweep.Stop()
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	nc.Close()
	c.p.wire.ConnClosed()
	err := cause
	if isClosed(err) {
		err = fmt.Errorf("nsqlclient: connection to %s lost", c.p.addr)
	} else {
		err = fmt.Errorf("nsqlclient: connection to %s lost: %w", c.p.addr, cause)
	}
	for _, wt := range pending {
		wt.ch <- result{err: err}
	}
}

// isClosed reports whether an I/O error is just the connection ending
// (peer hangup or our own teardown) rather than something diagnostic.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Close shuts the pool down: connections close, in-flight requests fail
// with clean errors, and future Sends return ErrClosed.
func (p *Pool) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, c := range p.conns {
		c.mu.Lock()
		nc := c.nc
		c.mu.Unlock()
		if nc != nil {
			c.fail(nc, ErrClosed)
		}
	}
	return nil
}
