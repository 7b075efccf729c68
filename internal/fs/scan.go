package fs

import (
	"fmt"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// ScanMode selects the FS-DP read interface.
type ScanMode int

const (
	// ModeRecord is the old record-at-a-time interface: one record per
	// message pair (the E1 baseline).
	ModeRecord ScanMode = iota
	// ModeRSBB returns real sequential block buffers: one physical
	// block's worth of whole records per message; the File System
	// de-blocks locally.
	ModeRSBB
	// ModeVSBB returns virtual sequential block buffers: the Disk
	// Process applies the selection predicate and field projection and
	// returns a block of qualifying, projected rows.
	ModeVSBB
)

// String returns the mode's protocol-level name.
func (m ScanMode) String() string {
	switch m {
	case ModeRecord:
		return "RECORD"
	case ModeRSBB:
		return "RSBB"
	case ModeVSBB:
		return "VSBB"
	default:
		return fmt.Sprintf("ScanMode(%d)", int(m))
	}
}

// SelectSpec describes one single-variable scan over a (possibly
// partitioned) file.
type SelectSpec struct {
	Mode  ScanMode
	Range keys.Range
	Pred  expr.Expr // DP-side predicate (ModeVSBB only)
	Proj  []int     // DP-side projection (ModeVSBB only)

	// Parallel is the scan's degree of parallelism: how many partition
	// conversations run concurrently (clamped to the partition count).
	// 0 uses the FS default (SetScanParallel; itself 0 by default =
	// classic synchronous scan). 1 runs a single scanner goroutine that
	// still pipelines — it issues the next re-drive while the consumer
	// decodes the previous batch.
	Parallel int
	// Unordered lets a parallel scan deliver batches as partitions
	// produce them instead of merging back into key order. Only
	// meaningful when the scan actually runs parallel.
	Unordered bool

	// RowLimit optionally narrows the DP's per-message row budget
	// (tests, ablations).
	RowLimit uint32
	// ScanLimit is a whole-conversation qualifying-row budget pushed
	// into each partition's Subset Control Block (Top-N / LIMIT
	// pushdown): the Disk Process ends the subset — across re-drives —
	// once it has returned this many rows. 0 = unlimited. The budget is
	// per partition; the File System still trims the merged result.
	ScanLimit uint32
	// Exclusive requests X virtual-block locks (read for update).
	Exclusive bool

	// Arenas, when set, are what the scan's messages are encoded and
	// decoded in: the caller's, one for each partition conversation that
	// runs at once (the scan's degree of parallelism; one when it runs
	// sequentially). The rows NextRaw hands out are then slices of them,
	// valid until the caller resets them — a statement's, when the next
	// statement starts. A conversation beyond them allocates its messages,
	// as every one does without them.
	Arenas []fsdp.Arena
}

// validate rejects spec combinations the protocol would silently
// ignore: only GET^*^VSBB messages carry a predicate or projection, so
// a Pred/Proj on the record or RSBB interface would come back as
// unfiltered, unprojected rows.
func (spec SelectSpec) validate() error {
	if spec.Mode != ModeVSBB && (spec.Pred != nil || len(spec.Proj) > 0) {
		return fmt.Errorf("fs: SelectSpec: Pred/Proj require ModeVSBB; mode %v cannot evaluate them at the Disk Process", spec.Mode)
	}
	return nil
}

// Rows iterates a Select result: batches are fetched lazily, one FS-DP
// message (plus re-drives) at a time. Sequential scans walk partitions
// in key order; parallel scans (SelectSpec.Parallel) drive partition
// conversations from concurrent scanner goroutines and either merge
// results back into key order or deliver them unordered.
type Rows struct {
	op   op // the scan's conversations and their accounting
	spec SelectSpec

	cur     conv // sequential: the open partition conversation
	batch   [][]byte
	keysOut [][]byte
	pos     int

	par    *parScan // non-nil when scanner goroutines drive the scan
	closed bool

	err error
}

// Select starts a scan and returns its row iterator.
func (f *FS) Select(tx *tmf.Tx, def *FileDef, spec SelectSpec) *Rows {
	r := &Rows{spec: spec}
	r.op.init(f, tx, def.Name, yieldRows,
		partitionsFor(def.Partitions, spec.Range), spec.Arenas)
	if err := spec.validate(); err != nil {
		r.err = err
		return r
	}
	dop := spec.Parallel
	if dop == 0 {
		dop = f.scanDOP
	}
	if dop > 0 && len(r.op.spans) > 0 {
		r.startParScan(dop)
	}
	return r
}

// NextRaw returns the next row as the Disk Process encoded it — a whole
// record, or the fields SelectSpec.Proj names in Proj's order — and its
// record key. Nothing has looked inside the row: whoever reads a value of
// it validates it first (record.Decode, record.View.Reset). The bytes
// belong to the reply message: the caller's arenas' (SelectSpec.Arenas),
// or allocated for the scan. ok=false ends
// iteration; check Err afterwards.
func (r *Rows) NextRaw() (enc, key []byte, ok bool) {
	for {
		if r.err != nil {
			return nil, nil, false
		}
		if r.pos < len(r.batch) {
			enc, key = r.batch[r.pos], r.keysOut[r.pos]
			r.pos++
			return enc, key, true
		}
		if !r.fetch() {
			r.op.finish()
			return nil, nil, false
		}
	}
}

// Next is NextRaw for a consumer that reads the row's values: the row
// decoded. A row that is not a well-formed record ends the iteration with
// that error.
func (r *Rows) Next() (row record.Row, key []byte, ok bool) {
	enc, key, ok := r.NextRaw()
	if !ok {
		return nil, nil, false
	}
	if row, r.err = record.Decode(enc); r.err != nil {
		return nil, nil, false
	}
	return row, key, true
}

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close abandons the scan. Open continuation conversations are retired
// (CLOSE^SUBSET) and, for parallel scans, every scanner goroutine has
// exited by the time Close returns. Close is idempotent and safe after
// normal exhaustion.
func (r *Rows) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.par != nil {
		// Scanners parked on a full batch channel unblock through the
		// op's done channel and close their conversations on the way out.
		r.op.cancel()
		<-r.par.finished
		if r.err == nil {
			r.err = r.op.err()
		}
	} else {
		r.cur.close()
		r.op.claim.Store(int64(len(r.op.spans)))
	}
	r.batch, r.keysOut, r.pos = nil, nil, 0
	r.op.finish()
}

// Stats returns a consistent snapshot of the scan's per-partition
// accounting with totals filled in. Wall is the time from Select until
// exhaustion/Close (or until now, for a scan still in flight).
func (r *Rows) Stats() ScanStats { return r.op.snapshot() }

// fetch pulls the next batch: from the scanner goroutines, or a re-drive
// on the current partition, or GET^FIRST on the next partition.
func (r *Rows) fetch() bool {
	if r.par != nil {
		var ok bool
		if r.batch, r.keysOut, ok = r.par.nextBatch(); !ok {
			r.err = r.op.err()
		}
		r.pos = 0
		return ok
	}
	for {
		if r.cur.req == nil {
			i := int(r.op.claim.Add(1)) - 1
			if i >= len(r.op.spans) {
				return false
			}
			r.cur = conv{o: &r.op, i: i, ar: r.op.arena(0)}
			r.cur.req = r.firstRequest(r.cur.span())
		}
		reply, err := r.cur.next()
		if err != nil {
			r.cur.close()
			r.err = err
			return false
		}
		if len(reply.Rows) > 0 {
			r.batch, r.keysOut, r.pos = reply.Rows, reply.RowKeys, 0
			return true
		}
	}
}

// counted drives a conversation kind whose replies carry only a count of
// the records each message qualified (or changed): first is the ^FIRST
// message less its per-partition key range. It returns the total.
func (f *FS) counted(tx *tmf.Tx, def *FileDef, rng keys.Range, dop int, first fsdp.Request) (int, ScanStats, error) {
	var o op
	o.init(f, tx, def.Name, yieldCount, partitionsFor(def.Partitions, rng), nil)
	// Hint derived from the caller's unclipped range, not the partition
	// span (see Rows.firstRequest).
	first.Tx, first.File, first.Hint = o.txID(), def.Name, hintFor(rng)
	err := o.run(dop, func(c *conv) error {
		req := first
		req.Range = c.span().r
		return c.drive(&req, nil)
	})
	return int(o.stats.Rows), o.stats, err
}

// Count returns the number of records in the range satisfying pred, and
// the operation's ScanStats: per-partition messages, re-drives,
// server-reported work, and latency distribution. The count runs
// entirely at the Disk Processes (COUNT^FIRST/NEXT): the predicate
// evaluates at the data source and each re-drive moves a constant-size
// reply carrying only the qualifying-record count. The per-partition
// conversations fan out with the FS default degree of parallelism
// (SetScanParallel).
func (f *FS) Count(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr) (int, ScanStats, error) {
	return f.counted(tx, def, rng, f.scanDOP, fsdp.Request{Kind: fsdp.KCountFirst, Pred: expr.Encode(pred)})
}

// hintFor classifies a subset's cache access for the DP: an unbounded
// range is a full-table scan — one-pass, recycle through probation —
// while a bounded range is left for the DP to judge (HintAuto). The FS
// computes this from the requester's original range because partition
// clipping bounds every per-partition span.
func hintFor(r keys.Range) uint8 {
	if r.Low == nil && r.High == nil {
		return fsdp.HintSequential
	}
	return fsdp.HintAuto
}
