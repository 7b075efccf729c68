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
	// MaxFrame caps one frame's length (default wire.MaxFrame).
	MaxFrame int

	// ReplyTimeout bounds each dispatched in-process Send, so a hung
	// handler cannot pin a connection's request slot — or a drain —
	// forever (0 = wait forever). The timeout comes back to the remote
	// requester as an error reply with CodeTimeout.
	ReplyTimeout time.Duration
}

// A Server accepts TCP connections and dispatches their request frames
// into an in-process message network. Each connection gets an ingress
// msg.Client on a processor outside every cluster node, so dispatched
// traffic classifies — and is charged and latency-sampled — as
// DistNetwork: these are the conversations that really crossed a node
// boundary, feeding the network bucket of the per-distance histograms
// with measured numbers.
//
// Requests on one connection are served concurrently (one goroutine per
// in-flight request), so replies return in completion order; the
// correlation ID is what matches them back on the client side. Drain
// stops accepting connections, answers the requests already in flight,
// and refuses new frames with CodeDraining.
type Server struct {
	network *msg.Network
	opts    Options
	wire    obs.Wire
	lis     net.Listener

	mu       sync.Mutex
	conns    map[net.Conn]*Writer
	draining bool
	closed   bool

	readers  sync.WaitGroup // accept loop + per-connection readers
	inflight sync.WaitGroup // dispatched requests not yet answered
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
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = MaxFrame
	}
	s := &Server{network: network, opts: opts, lis: lis, conns: make(map[net.Conn]*Writer)}
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

// serveConn reads frames off one connection and dispatches them. Replies
// come from many goroutines and leave through the connection's Writer,
// several to a socket write when several are ready together.
func (s *Server) serveConn(nc net.Conn, w *Writer) {
	defer s.readers.Done()
	cl := s.network.NewClient(ingressProc)
	cl.SetReplyTimeout(s.opts.ReplyTimeout)
	sent := func(err error) {
		if err != nil {
			s.wire.Error()
		}
	}
	fr := NewReader(nc, s.opts.MaxFrame, &s.wire)
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
			sent(w.ReplyErr(f.Corr, CodeError, "wire: expected request frame"))
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
			sent(w.ReplyErr(f.Corr, CodeDraining, "wire: server draining"))
			continue
		}
		go func(f Frame) {
			defer s.inflight.Done()
			data, err := cl.Send(f.Server, f.Body)
			switch {
			case err == nil:
				sent(w.Reply(f.Corr, data))
			case errors.Is(err, msg.ErrReplyTimeout):
				sent(w.ReplyErr(f.Corr, CodeTimeout, err.Error()))
			case errors.Is(err, msg.ErrNoServer):
				sent(w.ReplyErr(f.Corr, CodeNoServer, err.Error()))
			default:
				sent(w.ReplyErr(f.Corr, CodeError, err.Error()))
			}
		}(f)
	}
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
	s.wire.ConnClosed()
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
	return err
}

// Close tears the server down immediately: the listener and every
// connection close now; dispatched requests still complete against the
// in-process network, but their replies go nowhere.
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
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}
