package fs

import (
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
)

// This file is the parallel scan engine: the "run the servers in
// parallel" half of the paper's architecture. Each partition of a file
// is owned by its own Disk Process on its own processor, so the
// continuation re-drive conversations against different partitions are
// independent — the File System can drive them from concurrent scanner
// goroutines and merge the replies, instead of walking partitions one
// at a time and blocking on every message pair.
//
// Even at DOP=1 the engine pipelines: the scanner issues the next
// re-drive as soon as a reply arrives, and the consumer decodes batch k
// while the Disk Process builds batch k+1 (the per-span channels hold
// two batches, a double buffer).

// SpanStats accounts one partition conversation of a scan.
type SpanStats struct {
	Server  string
	Dist    msg.Distance  // hop class from the requester to the server
	Msgs    uint64        // request/reply pairs
	Bytes   uint64        // encoded request + reply bytes
	Rows    uint64        // rows delivered by this partition
	Batches uint64        // replies that carried rows
	Busy    time.Duration // wall time this conversation spent waiting on the DP

	// Server-reported work, summed from the reply statistics the DP
	// ships with every answer (see fsdp.Reply).
	Redrives   uint64 // continuation messages beyond the ^FIRST
	Examined   uint64 // records the DP visited for this conversation
	BlocksRead uint64 // physical reads serving it
	CacheHits  uint64 // buffer-pool hits serving it
}

// observe folds one message pair into the span's accounting. reply may
// be nil (transport error); the pair still counts as traffic. A request
// carrying an SCB is a continuation re-drive, unless it retires the SCB
// (CLOSE^SUBSET): only those two reference a Subset Control Block.
func (sp *SpanStats) observe(req *fsdp.Request, reply *fsdp.Reply, bytes int, wait time.Duration) {
	sp.Msgs++
	sp.Bytes += uint64(bytes)
	sp.Busy += wait
	if req.SCB != 0 && req.Kind != fsdp.KCloseSubset {
		sp.Redrives++
	}
	if reply != nil {
		sp.Examined += uint64(reply.Examined)
		sp.BlocksRead += uint64(reply.BlocksRead)
		sp.CacheHits += uint64(reply.CacheHits)
	}
}

// Modeled returns the conversation's cost under the message cost model:
// a per-pair charge by hop distance plus the per-KB byte charge. This
// is the per-conversation analogue of msg.CostModel.Estimate.
func (sp SpanStats) Modeled(m msg.CostModel) time.Duration {
	return time.Duration(sp.Msgs)*m.PairCost(sp.Dist) +
		time.Duration(sp.Bytes/1024)*m.PerKB
}

// ScanStats accounts one scan: totals across its partition
// conversations plus the per-span breakdown. Obtain a snapshot with
// Rows.Stats after the scan completes (or at any point; the snapshot is
// consistent).
type ScanStats struct {
	Partitions int // partition conversations that exchanged messages
	Messages   uint64
	Batches    uint64
	Rows       uint64
	Bytes      uint64
	Wall       time.Duration // start of scan to exhaustion/close
	Busy       time.Duration // summed per-conversation message wait time
	Spans      []SpanStats

	// Totals of the per-span server-reported work.
	Redrives   uint64
	Examined   uint64
	BlocksRead uint64
	CacheHits  uint64

	// Lat is the per-message round-trip latency distribution of the
	// whole operation (every partition conversation merged).
	Lat obs.Snapshot
}

// recompute refreshes the totals from the per-span accounting.
func (s *ScanStats) recompute() {
	s.Partitions, s.Messages, s.Batches, s.Rows, s.Bytes, s.Busy = 0, 0, 0, 0, 0, 0
	s.Redrives, s.Examined, s.BlocksRead, s.CacheHits = 0, 0, 0, 0
	for _, sp := range s.Spans {
		if sp.Msgs > 0 {
			s.Partitions++
		}
		s.Messages += sp.Msgs
		s.Batches += sp.Batches
		s.Rows += sp.Rows
		s.Bytes += sp.Bytes
		s.Busy += sp.Busy
		s.Redrives += sp.Redrives
		s.Examined += sp.Examined
		s.BlocksRead += sp.BlocksRead
		s.CacheHits += sp.CacheHits
	}
}

// Overlap reports how much conversation time ran concurrently: the
// ratio of summed per-span busy time to wall time. Sequential scans sit
// near 1.0; a DOP-4 scan over 4 partitions approaches 4.0.
func (s ScanStats) Overlap() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Busy) / float64(s.Wall)
}

// Modeled returns the modeled elapsed time of the scan when its
// partition conversations run on dop concurrent scanners, using the
// same greedy claim-in-order schedule the engine uses: each scanner
// takes the next unstarted conversation when it finishes its current
// one. dop=1 reduces to the sum over all conversations (the sequential
// scan); dop >= len(Spans) reduces to the longest single conversation.
func (s ScanStats) Modeled(m msg.CostModel, dop int) time.Duration {
	if dop < 1 {
		dop = 1
	}
	if dop > len(s.Spans) {
		dop = len(s.Spans)
	}
	if dop == 0 {
		return 0
	}
	workers := make([]time.Duration, dop)
	for _, sp := range s.Spans {
		wi := 0
		for i := 1; i < dop; i++ {
			if workers[i] < workers[wi] {
				wi = i
			}
		}
		workers[wi] += sp.Modeled(m)
	}
	var makespan time.Duration
	for _, w := range workers {
		if w > makespan {
			makespan = w
		}
	}
	return makespan
}

// spanBatch is one reply's worth of rows from one partition.
type spanBatch struct {
	rows [][]byte
	keys [][]byte
}

// parScan is the consumer side of a parallel scan: the channels the
// scanner goroutines (op workers) deliver batches on. Ordered mode
// gives every span its own buffered channel and the consumer drains
// them in key order, so results are byte-identical to the sequential
// scan; unordered mode funnels every span into one shared channel and
// delivers batches as they arrive.
type parScan struct {
	chans []chan spanBatch // ordered: one per span
	out   chan spanBatch   // unordered: shared
	cur   int              // ordered: span the consumer is draining

	finished chan struct{} // closed after every scanner exited
}

// startParScan launches the scanner pool over r's spans (non-empty).
// Scanners park on a full batch channel; cancelling the op wakes them
// through its done channel.
func (r *Rows) startParScan(dop int) {
	o := &r.op
	if dop > len(o.spans) {
		dop = len(o.spans)
	}
	p := &parScan{finished: make(chan struct{})}
	o.done = make(chan struct{})
	if r.spec.Unordered {
		p.out = make(chan spanBatch, 2*dop)
	} else {
		p.chans = make([]chan spanBatch, len(o.spans))
		for i := range p.chans {
			// Capacity 2: the double buffer. The scanner parks at most
			// two undecoded batches ahead of the consumer, keeping one
			// re-drive in flight while a batch is being decoded.
			p.chans[i] = make(chan spanBatch, 2)
		}
	}
	r.par = p
	o.launch(dop, func(c *conv) error {
		ch := p.out
		if p.chans != nil {
			ch = p.chans[c.i]
		}
		err := c.drive(r.firstRequest(c.span()), func(reply *fsdp.Reply) error {
			if len(reply.Rows) > 0 {
				select {
				case ch <- spanBatch{rows: reply.Rows, keys: reply.RowKeys}:
				case <-o.done:
				}
			}
			return nil
		})
		if p.chans != nil {
			// The consumer reads the op's error once the channel closes,
			// so a failure is recorded first.
			if err != nil {
				o.fail(err)
			}
			close(ch)
		}
		return err
	})
	go func() {
		o.wg.Wait()
		if p.out != nil {
			close(p.out)
		}
		close(p.finished)
	}()
}

// nextBatch delivers the next batch to the consumer. ok=false means the
// scan is drained (check err) .
func (p *parScan) nextBatch() (rows [][]byte, keys [][]byte, ok bool) {
	if p.out != nil {
		b, open := <-p.out
		if !open {
			return nil, nil, false
		}
		return b.rows, b.keys, true
	}
	for p.cur < len(p.chans) {
		ch := p.chans[p.cur]
		select {
		case b, open := <-ch:
			if !open {
				p.cur++
				continue
			}
			return b.rows, b.keys, true
		case <-p.finished:
			// Every scanner exited. A closed or stocked channel still
			// yields; an open empty channel means its span was never
			// claimed (the scan aborted) — stop.
			select {
			case b, open := <-ch:
				if !open {
					p.cur++
					continue
				}
				return b.rows, b.keys, true
			default:
				p.cur = len(p.chans)
			}
		}
	}
	return nil, nil, false
}

// firstRequest builds the GET^FIRST message opening one partition's
// conversation.
func (r *Rows) firstRequest(span partSpan) *fsdp.Request {
	spec := r.spec
	// The hint comes from the ORIGINAL spec range, not the clipped
	// per-partition span: partition clipping bounds the span even when
	// the query is a full-table scan.
	// The whole-conversation row budget (ScanLimit) travels only on the
	// ^FIRST — it lives in the Subset Control Block thereafter.
	req := &fsdp.Request{Tx: r.op.txID(), File: r.op.file, Range: span.r, RowLimit: spec.RowLimit,
		ScanLimit: spec.ScanLimit, Hint: hintFor(spec.Range)}
	if spec.Exclusive {
		req.Mode = 2
	}
	switch spec.Mode {
	case ModeVSBB:
		req.Kind = fsdp.KGetFirstVSBB
		req.Pred = expr.Encode(spec.Pred)
		req.Proj = spec.Proj
	case ModeRSBB:
		req.Kind = fsdp.KGetFirstRSBB
	default:
		// Record-at-a-time: an RSBB conversation limited to one record
		// per message — each READ costs a message pair, as under the old
		// interface.
		req.Kind = fsdp.KGetFirstRSBB
		req.RowLimit = 1
	}
	return req
}
