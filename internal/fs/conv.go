package fs

import (
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/tmf"
)

// This file is the requester side of the FS-DP conversation protocol,
// and the only place it is written down: a set-oriented ^FIRST request,
// ^NEXT re-drives continuing from the reply's LastKey against the Subset
// Control Block the Disk Process keeps, and CLOSE^SUBSET when the
// requester walks away early. Every set-oriented operation (scans,
// counts, subset updates/deletes, aggregates, batched probes) is an op:
// one conversation per partition span, each described by a first-request
// builder and a fold over its replies.

// yield says what a conversation kind's replies carry, which decides
// how a span's Rows are counted.
type yield uint8

const (
	yieldCount yield = iota // a count of qualifying records (COUNT, UPDATE/DELETE^SUBSET)
	yieldRows               // records (GET, PROBE) or per-group partial states (AGG)
)

// An op is one set-oriented operation: its partition spans, their
// accounting, and the stop state shared by the conversations.
type op struct {
	fs    *FS
	tx    *tmf.Tx
	file  string
	yield yield
	spans []partSpan
	start time.Time

	// arenas are the caller's, one per conversation that runs at once:
	// worker w's conversations run in arenas[w], and a worker beyond them
	// allocates its messages (a nil fsdp.Arena).
	arenas []fsdp.Arena

	claim atomic.Int64  // next span to open; workers claim in key order
	stop  atomic.Bool   // first error, or the consumer walked away
	done  chan struct{} // closed with stop; only a parallel scan has one (its scanners park on channels)
	wg    sync.WaitGroup

	// mu guards stats and firstErr: a parallel scan's consumer snapshots
	// them while scanners are still folding message pairs in.
	mu       sync.Mutex
	stats    ScanStats
	firstErr error
	lat      obs.Histogram // per-message round-trip latency (lock-free)
}

// init binds the op and sizes one accounting slot per span.
func (o *op) init(f *FS, tx *tmf.Tx, file string, y yield, spans []partSpan, arenas []fsdp.Arena) {
	o.fs, o.tx, o.file, o.yield, o.spans, o.arenas = f, tx, file, y, spans, arenas
	o.start = time.Now()
	o.stats.Spans = make([]SpanStats, len(spans))
	for i, span := range spans {
		o.stats.Spans[i].Server = span.server
		o.stats.Spans[i].Dist = f.client.DistanceTo(span.server)
	}
}

// arena is worker w's arena, nil when the caller gave none.
func (o *op) arena(w int) *fsdp.Arena {
	if w < len(o.arenas) {
		return &o.arenas[w]
	}
	return nil
}

// txID is the transaction id requests carry (0 = browse access).
func (o *op) txID() uint64 {
	if o.tx == nil {
		return 0
	}
	return o.tx.ID
}

// run drives one conversation per span through fn, dop at a time, and
// finishes the op. Workers claim spans in key order; each conversation
// is strictly sequential, so per-partition locking and re-drive
// semantics do not depend on dop. The first error wins and stops the
// siblings at their next message boundary. dop <= 1 runs on the
// caller's goroutine.
func (o *op) run(dop int, fn func(*conv) error) error {
	if dop > len(o.spans) {
		dop = len(o.spans)
	}
	if dop <= 1 {
		o.work(0, fn)
	} else {
		o.launch(dop, fn)
		o.wg.Wait()
	}
	o.finish()
	return o.firstErr
}

// launch starts dop workers without waiting for them.
func (o *op) launch(dop int, fn func(*conv) error) {
	for w := 0; w < dop; w++ {
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.work(w, fn)
		}()
	}
}

// work is worker w: it claims spans and drives their conversations, one
// at a time, in its arena.
func (o *op) work(w int, fn func(*conv) error) {
	var c conv
	for !o.stop.Load() {
		i := int(o.claim.Add(1)) - 1
		if i >= len(o.spans) {
			return
		}
		c = conv{o: o, i: i, ar: o.arena(w)}
		if err := fn(&c); err != nil {
			fault.Inject(fault.FSConvFailed)
			o.fail(err)
			return
		}
	}
}

// fail records the op's first error and stops the siblings.
func (o *op) fail(err error) {
	o.mu.Lock()
	if o.firstErr == nil {
		o.firstErr = err
	}
	o.mu.Unlock()
	o.cancel()
}

func (o *op) cancel() {
	if o.stop.CompareAndSwap(false, true) && o.done != nil {
		close(o.done)
	}
}

func (o *op) err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.firstErr
}

// settle fills in s's totals, latency distribution and — unless already
// stamped — wall time so far. Caller holds o.mu.
func (o *op) settle(s *ScanStats) {
	s.recompute()
	s.Lat = o.lat.Snapshot()
	if s.Wall == 0 {
		s.Wall = time.Since(o.start)
	}
}

// snapshot returns a consistent copy of the accounting; Wall runs to now
// while the op is still in flight.
func (o *op) snapshot() ScanStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := o.stats
	s.Spans = append([]SpanStats(nil), o.stats.Spans...)
	o.settle(&s)
	return s
}

// finish stamps the totals and wall time, once.
func (o *op) finish() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stats.Wall == 0 {
		o.settle(&o.stats)
	}
}

// A conv is one span's conversation with its Disk Process.
type conv struct {
	o   *op
	i   int           // span (and accounting slot) index
	ar  *fsdp.Arena   // what its messages are encoded and decoded in (nil: allocated)
	req *fsdp.Request // the next message; nil once the conversation is over
	scb uint32        // Subset Control Block the server holds open for it
	re  fsdp.Request  // the ^NEXT re-drive being sent, or the CLOSE^SUBSET

	// cont, when set, replaces the SCB continuation: a stateless kind
	// (PROBE^BLOCK) computes its own follow-up message, nil to end.
	cont func(prev *fsdp.Request, reply *fsdp.Reply) *fsdp.Request
}

func (c *conv) span() partSpan { return c.o.spans[c.i] }

// step exchanges one message pair and accounts it to the span: the
// server joins the transaction even when the reply carries an
// application error (it may hold locks or audit that only commit/abort
// releases), and the pair counts as traffic even when it fails.
//
// The request is encoded into the conversation's arena, the reply appended
// behind it and decoded there (fsdp.Arena.Decode): the reply's rows,
// lists and LastKey stay valid until the arena's owner resets it, and the
// Reply itself until the next step.
func (c *conv) step(req *fsdp.Request) (*fsdp.Reply, error) {
	o, server, ar := c.o, c.span().server, c.ar
	raw := ar.Keep(fsdp.AppendRequest(ar.Free(), req))
	t0 := time.Now()
	replyRaw, err := o.fs.sendBytes(server, raw, ar.Free())
	var reply *fsdp.Reply
	if err == nil {
		reply, err = ar.Decode(ar.Keep(replyRaw))
	}
	if err == nil && o.tx != nil && req.Tx != 0 {
		err = o.tx.Join(server)
	}
	wait := time.Since(t0)
	o.lat.Record(wait)
	if err == nil {
		err = replyErr(reply)
	}
	o.mu.Lock()
	sp := &o.stats.Spans[c.i]
	sp.observe(req, reply, len(raw)+len(replyRaw), wait)
	if err == nil {
		n := uint64(len(reply.Rows))
		if o.yield == yieldCount {
			n = uint64(reply.Count)
		} else if n > 0 {
			sp.Batches++
		}
		sp.Rows += n
	}
	o.mu.Unlock()
	return reply, err
}

// next sends the pending message and lines up the one after it: the
// ^NEXT re-drive continuing from the reply's LastKey against the SCB
// the Disk Process just granted or kept.
func (c *conv) next() (*fsdp.Reply, error) {
	prev := c.req
	reply, err := c.step(prev)
	if err != nil {
		return nil, err
	}
	switch {
	case c.cont != nil:
		c.req = c.cont(prev, reply)
	case reply.Done:
		c.req, c.scb = nil, 0
	default:
		kind := prev.Kind
		if prev.SCB == 0 {
			kind = kind.Next()
		}
		// prev may be c.re itself: what the re-drive keeps of it is read
		// out before it is overwritten.
		next := fsdp.Request{
			Kind: kind, Tx: prev.Tx, File: prev.File,
			Range: prev.Range.Continue(reply.LastKey), SCB: reply.SCB,
			RowLimit: prev.RowLimit, Mode: prev.Mode,
		}
		c.scb, c.re = reply.SCB, next
		c.req = &c.re
	}
	return reply, nil
}

// close abandons the conversation, retiring the SCB (CLOSE^SUBSET, best
// effort) when the Disk Process still holds one. The pair is accounted
// to the span like any other.
func (c *conv) close() {
	if c.scb != 0 {
		c.re = fsdp.Request{Kind: fsdp.KCloseSubset, File: c.o.file, SCB: c.scb}
		_, _ = c.step(&c.re)
	}
	c.req, c.scb = nil, 0
}

// drive runs the conversation from its ^FIRST to Done, folding every
// reply through fold (nil = the span accounting is the result). Any
// other exit — an error from the transport, the reply or fold, or the
// op stopping — closes the conversation first.
func (c *conv) drive(first *fsdp.Request, fold func(*fsdp.Reply) error) error {
	c.req = first
	for c.req != nil {
		reply, err := c.next()
		if err == nil && fold != nil {
			err = fold(reply)
		}
		if err != nil || c.o.stop.Load() {
			c.close()
			return err
		}
	}
	return nil
}
