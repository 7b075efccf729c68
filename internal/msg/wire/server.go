package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
)

// Options tunes a wire server.
type Options struct {
	// ReplyTimeout bounds how long a dispatched request may go
	// unanswered, so a hung handler cannot pin a remote requester — or a
	// drain — forever (0 = wait forever). At the deadline the requester
	// gets an error reply with CodeTimeout; the handler runs on, and its
	// late reply is dropped.
	ReplyTimeout time.Duration
}

// A Server accepts TCP connections and dispatches their request frames
// into an in-process message network. It sends through one ingress
// msg.Client on a processor outside every cluster node, so dispatched
// traffic classifies — and is charged and latency-sampled — as
// DistNetwork: these are the conversations that really crossed a node
// boundary, feeding the network bucket of the per-distance histograms
// with measured numbers.
//
// Requests are served concurrently by dispatcher goroutines that park
// between requests and keep the stacks they grew: a connection's reader
// hands each frame to an idle dispatcher and starts a new one only when
// none is idle, so a warm server starts no goroutine per request.
// Replies return in completion order; the correlation ID is what
// matches them back on the client side. Drain stops accepting
// connections, answers the requests already in flight, and refuses new
// frames with CodeDraining.
type Server struct {
	ingress *msg.Client
	opts    Options
	wire    obs.Wire
	lis     net.Listener

	work     chan job      // unbuffered: an idle dispatcher is parked on it
	stop     chan struct{} // closed once the readers are gone: dispatchers exit
	stopOnce sync.Once

	mu       sync.Mutex
	conns    map[net.Conn]*Writer
	draining bool
	closed   bool

	readers  sync.WaitGroup // accept loop + per-connection readers
	inflight sync.WaitGroup // dispatched requests not yet answered
}

// A job is one request frame and the connection its reply goes to.
type job struct {
	f Frame
	w *Writer
}

// ingressProc is where remote requesters "run": node -1 exists in no
// cluster, so every dispatched hop classifies as DistNetwork.
var ingressProc = msg.ProcessorID{Node: -1, CPU: 0}

// Listen binds addr and starts serving the network over it.
func Listen(addr string, network *msg.Network, opts Options) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{ingress: network.NewClient(ingressProc), opts: opts, lis: lis,
		work: make(chan job), stop: make(chan struct{}), conns: make(map[net.Conn]*Writer)}
	s.readers.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Stats snapshots the wire-level counters.
func (s *Server) Stats() obs.WireStats { return s.wire.Snapshot() }

func (s *Server) acceptLoop() {
	defer s.readers.Done()
	for {
		nc, err := s.lis.Accept()
		if err != nil {
			return // listener closed: Drain or Close
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		w := NewWriter(nc, &s.wire)
		s.conns[nc] = w
		s.mu.Unlock()
		s.wire.ConnOpened()
		s.readers.Add(1)
		go s.serveConn(nc, w)
	}
}

// serveConn reads frames off one connection and hands them to
// dispatchers. Replies leave through the connection's Writer, several to
// a socket write when several are ready together.
func (s *Server) serveConn(nc net.Conn, w *Writer) {
	defer s.readers.Done()
	fr := NewReader(nc, &s.wire)
	for {
		f, err := fr.Next()
		if err != nil {
			// EOF and closed-connection errors are the peer hanging up
			// (or Close tearing the socket down); anything else is a
			// protocol violation worth counting before dropping the
			// connection — after a framing error the stream is garbage.
			if !isClosed(err) {
				s.wire.Error()
			}
			break
		}
		if f.Kind != KindRequest {
			s.wire.Error()
			s.sent(w.ReplyErr(f.Corr, CodeError, "wire: expected request frame"))
			f.Release()
			continue
		}
		s.mu.Lock()
		refuse := s.draining || s.closed
		if !refuse {
			s.inflight.Add(1)
		}
		s.mu.Unlock()
		if refuse {
			s.wire.Rejected()
			s.sent(w.ReplyErr(f.Corr, CodeDraining, "wire: server draining"))
			f.Release()
			continue
		}
		select {
		case s.work <- job{f, w}:
		default:
			go s.dispatch(job{f, w})
		}
	}
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
	s.wire.ConnClosed()
}

// dispatch serves j, then every job handed to it while it is parked,
// until the server stops. The handler appends its reply to the
// dispatcher's own buffer, which the reply frame copies before the next
// request; the request frame's buffer goes back to the pool once the
// handler has returned. With a reply deadline, one timer per
// dispatcher is re-armed for each request; whichever of the reply and
// the timer stops it first writes the request's one frame. A deadline
// that fires holds the job it answered, so its dispatcher exits once
// the handler returns.
func (s *Server) dispatch(j job) {
	var deadline *time.Timer
	// Never nil: a handler that returns its reply (msg.StartServer) has
	// it copied into out, not handed over — it may be the request frame
	// itself, whose buffer goes back to the pool below.
	out := []byte{}
	for {
		if s.opts.ReplyTimeout > 0 {
			if deadline == nil {
				deadline = time.AfterFunc(s.opts.ReplyTimeout, func() {
					s.wire.Timeout()
					s.answer(j, nil, fmt.Errorf("wire: server %q: %w after %v", j.f.Server, msg.ErrReplyTimeout, s.opts.ReplyTimeout))
				})
			} else {
				deadline.Reset(s.opts.ReplyTimeout)
			}
		}
		data, err := s.ingress.SendAppend(j.f.Server, j.f.Body, out[:0])
		req := j.f // a deadline that fires reads j.f's header: release a copy
		req.Release()
		if deadline != nil && !deadline.Stop() {
			return
		}
		s.answer(j, data, err)
		if cap(data) <= maxPending {
			out = data // a huge reply does not pin its buffer to the dispatcher
		}
		select {
		case j = <-s.work:
		case <-s.stop:
			return
		}
	}
}

// answer writes j's one reply frame and retires the request.
func (s *Server) answer(j job, data []byte, err error) {
	defer s.inflight.Done()
	switch {
	case err == nil:
		s.sent(j.w.Reply(j.f.Corr, data))
	case errors.Is(err, msg.ErrReplyTimeout):
		s.sent(j.w.ReplyErr(j.f.Corr, CodeTimeout, err.Error()))
	case errors.Is(err, msg.ErrNoServer):
		s.sent(j.w.ReplyErr(j.f.Corr, CodeNoServer, err.Error()))
	default:
		s.sent(j.w.ReplyErr(j.f.Corr, CodeError, err.Error()))
	}
}

// sent counts a reply that could not be written.
func (s *Server) sent(err error) {
	if err != nil {
		s.wire.Error()
	}
}

// isClosed reports whether a read error is the peer hanging up or our
// own teardown, as opposed to a protocol violation.
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Drain gracefully quiesces the server: stop accepting connections,
// refuse new request frames with CodeDraining, answer the requests
// already dispatched, then close the connections. It returns an error
// if in-flight requests did not finish within timeout (0 = wait
// forever); the connections are closed either way.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.lis.Close()
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		// An answered request may have left its reply behind a flush
		// another request leads: every accepted reply reaches the socket
		// before the connections close.
		s.mu.Lock()
		writers := make([]*Writer, 0, len(s.conns))
		for _, w := range s.conns {
			writers = append(writers, w)
		}
		s.mu.Unlock()
		for _, w := range writers {
			_ = w.Flush() // a broken connection has nobody to deliver to
		}
		close(done)
	}()
	var err error
	if timeout <= 0 {
		<-done
	} else {
		select {
		case <-done:
		case <-time.After(timeout):
			err = fmt.Errorf("wire: drain: in-flight requests still running after %v", timeout)
		}
	}
	s.closeConns()
	s.readers.Wait()
	s.stopOnce.Do(func() { close(s.stop) })
	return err
}

// Close tears the server down immediately: the listener and every
// connection close now; dispatched requests still complete against the
// in-process network, but their replies go nowhere. Idle dispatchers
// exit now, busy ones when their request is done.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.lis.Close()
	s.closeConns()
	s.readers.Wait()
	s.stopOnce.Do(func() { close(s.stop) })
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}
