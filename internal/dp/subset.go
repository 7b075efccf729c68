package dp

import (
	"fmt"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
)

// newSCB registers a Subset Control Block and returns its id.
func (d *DP) newSCB(s *scb) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSCB++
	id := d.nextSCB
	d.scbs[id] = s
	return id
}

func (d *DP) lookupSCB(id uint32) (*scb, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.scbs[id]
	if !ok {
		return nil, fmt.Errorf("dp %s: no subset control block %d", d.cfg.Name, id)
	}
	return s, nil
}

// retireSCB drops a Subset Control Block and whatever the conversation
// kept on it; a re-drive that names it afterwards is refused.
func (d *DP) retireSCB(id uint32) {
	d.mu.Lock()
	delete(d.scbs, id)
	d.mu.Unlock()
}

// closeSubset serves KCloseSubset: discard an SCB before exhaustion.
func (d *DP) closeSubset(req *fsdp.Request) *fsdp.Reply {
	d.retireSCB(req.SCB)
	return &fsdp.Reply{}
}

// batchState tracks the per-message limits of the continuation re-drive
// protocol — reply-buffer bytes, rows processed, and elapsed time — and
// the message's share of the record counters, which tally adds to the
// Disk Process's totals once, when the message ends.
type batchState struct {
	d         *DP
	start     time.Time
	bytes     int
	processed int
	maxRows   int

	evals, filtered, returned int
}

// newBatch starts limit tracking for one set-oriented request message.
// A non-zero rowLimit override (tests, ablations) narrows the row
// budget for just this message. The clock is read only for the
// elapsed-time limit, which is off unless configured.
func (d *DP) newBatch(rowLimit uint32) batchState {
	b := batchState{d: d, maxRows: d.cfg.MaxRowsPerMsg}
	if d.cfg.TimeLimit > 0 {
		b.start = time.Now()
	}
	if rowLimit > 0 && int(rowLimit) < b.maxRows {
		b.maxRows = int(rowLimit)
	}
	return b
}

// tally adds the message's record counts to the Disk Process's counters:
// four atomic adds per message, not per record, and the totals are whole
// at every message boundary, a failed message's included.
func (b *batchState) tally() {
	st := &b.d.stats
	st.rowsScanned.Add(uint64(b.processed))
	st.predicateEvals.Add(uint64(b.evals))
	st.rowsFiltered.Add(uint64(b.filtered))
	st.rowsReturned.Add(uint64(b.returned))
}

// full reports whether the current request message must end and a
// re-drive be requested. Every message makes at least one row of
// progress so the re-drive protocol always advances.
func (b *batchState) full() bool {
	if b.processed == 0 {
		return false
	}
	if b.bytes >= b.d.cfg.MaxReplyBytes {
		return true // full sequential block buffer condition
	}
	if b.processed >= b.maxRows {
		return true // processor-time limit stand-in
	}
	if b.d.cfg.TimeLimit > 0 && time.Since(b.start) > b.d.cfg.TimeLimit {
		return true // elapsed-time limit
	}
	return false
}

// A subsetKind is what one conversation kind plugs into the subset
// skeleton (DP.subset): how it opens its Subset Control Block, what it
// does with each qualifying record, and how it completes a message.
type subsetKind struct {
	first fsdp.Kind // the kind's ^FIRST message; recorded in the SCB
	// mutates: the kind changes records, so it needs a transaction, its
	// per-record locks stand in for the virtual-block lock, and the
	// write-behind it caused is nudged when the subset is Done.
	mutates bool

	open func(r *subsetRun) error // ^FIRST: decode the kind's own request fields into r.s
	// visit sees one qualifying record. key, val and rec — the view of val
	// — borrow the leaf's cache buffer (btree.RecordFunc) and are gone when
	// visit returns: whatever the reply or the run keeps is a copy.
	visit  func(r *subsetRun, key, val []byte, rec *record.View) (more bool, err error)
	finish func(r *subsetRun) error // after the scan, before locking
}

// subsetRun is the state of one subset message being served.
type subsetRun struct {
	d        *DP
	f        *fileState
	req      *fsdp.Request
	s        *scb
	batch    batchState
	reply    fsdp.Reply // returned by address: the run and its reply are one allocation
	firstKey []byte     // first qualifying key (kept only when a group lock will need it)

	rec  record.View // the record under the scan cursor, pointed at the starts the scan lends
	hits [][]byte    // mutating kinds: qualifying keys, applied after the scan

	// block is the message's virtual block: reply rows and keys (GET) and
	// collected keys (mutating kinds) are cut from this one buffer, which
	// grows by appending, so a message costs a handful of allocations
	// however many rows it carries. Bytes already appended never move —
	// growth copies them to a new array and leaves the old one to the
	// slices cut from it.
	block []byte
}

// subset serves every ^FIRST/^NEXT conversation kind. It owns the
// protocol: open the SCB on ^FIRST or look it up — and refuse it unless
// file, kind and transaction all match — on ^NEXT; scan the range under
// the message budget, tracking LastKey and the scanned / predicate /
// filtered counters; hand each qualifying record to the kind's visitor;
// lock the virtual block [first qualifying key, LastKey] as a group; and
// retain the SCB when a re-drive is wanted, retire it when Done — or when
// the message fails: a kind may have folded half a message into its SCB
// (AGG), so a conversation does not outlive its first error.
func (d *DP) subset(req *fsdp.Request, k *subsetKind) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if k.mutates && req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: subset mutation requires a transaction"}
	}
	d.stats.setRequests.Add(1)

	r := &subsetRun{d: d, f: f, req: req, reply: fsdp.Reply{Done: true}}
	isFirst := req.Kind == k.first
	if isFirst {
		// The SCB is created at ^FIRST time; re-drives do not re-send the
		// predicate, projection, expressions, access class, or row budget.
		// The predicate is compiled here, once, and every message of the
		// conversation runs the program.
		pred, err := expr.Decode(req.Pred)
		if err != nil {
			return errReply(err)
		}
		r.s = &scb{kind: k.first, tx: req.Tx, file: req.File, pred: expr.Compile(pred), class: classFor(req)}
		if k.open != nil {
			if err := k.open(r); err != nil {
				return errReply(err)
			}
		}
	} else {
		if r.s, err = d.lookupSCB(req.SCB); err != nil {
			return errReply(err)
		}
		if r.s.file != req.File || r.s.kind != k.first || r.s.tx != req.Tx {
			return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: SCB belongs to another conversation (file, kind or transaction mismatch)"}
		}
	}
	s, reply := r.s, &r.reply
	fail := func(err error) *fsdp.Reply {
		if !isFirst {
			d.retireSCB(req.SCB)
		}
		return d.readFailed(err)
	}

	r.batch = d.newBatch(req.RowLimit)
	defer r.batch.tally()
	groupLock := req.Tx != 0 && !k.mutates
	scanErr := f.tree.ScanRecords(req.Range, d.cfg.Prefetch, s.class, func(key, val []byte, starts []uint16) (bool, error) {
		if r.batch.full() {
			// Budget exhausted and more records remain: request a
			// continuation re-drive.
			reply.Done = false
			return false, nil
		}
		r.batch.processed++
		reply.LastKey = append(reply.LastKey[:0], key...)

		// The record is read where it lies, reached field by field through
		// the starts the B-tree's walk found when it validated it whole.
		// Nothing is decoded that nobody asks for.
		r.rec.Point(val, starts)
		if s.pred != nil {
			r.batch.evals++
			keep, err := s.pred.Satisfied(&r.rec)
			if err != nil {
				return false, err
			}
			if !keep {
				r.batch.filtered++
				return true, nil
			}
		}
		if groupLock && r.firstKey == nil {
			r.firstKey = append([]byte(nil), key...)
		}
		return k.visit(r, key, val, &r.rec)
	})
	if scanErr != nil {
		return fail(scanErr)
	}
	if k.finish != nil {
		if err := k.finish(r); err != nil {
			return fail(err)
		}
	}

	// Virtual block locking: the qualifying records of this message are
	// locked as a group — one range lock instead of ENSCRIBE SBB's file
	// lock — so what the requester saw, counted or aggregated stays
	// stable until commit.
	if r.firstKey != nil {
		mode := lock.Shared
		if req.Mode == 2 {
			mode = lock.Exclusive
		}
		blockRange := keys.Range{Low: r.firstKey, High: reply.LastKey, HighIncl: true}
		if err := d.locks.Acquire(req.Tx, req.File, blockRange, mode); err != nil {
			return fail(err)
		}
		d.joinTx(req.Tx)
	}

	if !reply.Done {
		d.stats.redrives.Add(1)
		if isFirst {
			reply.SCB = d.newSCB(s)
		} else {
			reply.SCB = req.SCB
		}
	} else {
		if !isFirst {
			d.retireSCB(req.SCB) // exhausted
		}
		if k.mutates {
			d.idleWork() // write-behind of the strings this subset dirtied
		}
	}
	reply.Examined = uint32(r.batch.processed)
	return reply
}

// GET^FIRST/NEXT^VSBB: the reply's virtual block holds the *projected*
// fields of key-range records that satisfied the predicate, evaluated
// here at the data source. GET^FIRST/NEXT^RSBB: the reply is a real
// block image — whole records, no selection or projection, no decode.
var (
	getVSBB = &subsetKind{first: fsdp.KGetFirstVSBB, visit: visitGet,
		open: func(r *subsetRun) error {
			r.s.proj, r.s.limit = r.req.Proj, r.req.ScanLimit
			return nil
		}}
	getRSBB = &subsetKind{first: fsdp.KGetFirstRSBB, visit: visitGet,
		open: func(r *subsetRun) error {
			r.s.pred, r.s.limit = nil, r.req.ScanLimit
			return nil
		}}
)

// visitGet appends the record's key and its reply row to the virtual
// block and cuts both out of it. A projected row is assembled from the
// fields' encoded bytes (View.AppendRow), without decoding a value.
func visitGet(r *subsetRun, key, val []byte, rec *record.View) (bool, error) {
	b := append(r.block, key...)
	keyEnd := len(b)
	if len(r.s.proj) > 0 {
		var err error
		if b, err = rec.AppendRow(b, r.s.proj); err != nil {
			return false, fmt.Errorf("dp: %s: %w", r.req.File, err)
		}
	} else {
		b = append(b, val...) // no projection (RSBB always): the record ships whole
	}
	// Capacity-clipped: appending to a reply row can never write into its neighbour.
	r.reply.RowKeys = append(r.reply.RowKeys, b[len(r.block):keyEnd:keyEnd])
	r.reply.Rows = append(r.reply.Rows, b[keyEnd:len(b):len(b)])
	r.batch.bytes += len(b) - keyEnd
	r.block = b
	r.batch.returned++
	if r.s.limit > 0 {
		r.s.delivered++
		// Conversation-wide row budget filled (Top-N / LIMIT pushdown):
		// end the subset early. Done stays true — no re-drive wanted.
		return r.s.delivered < r.s.limit, nil
	}
	return true, nil
}

// COUNT^FIRST/NEXT: like a VSBB scan with the projection pushed all the
// way to nothing — the reply carries only the qualifying-record count,
// so a COUNT(*) moves a constant-size reply per re-drive no matter how
// many records qualify.
var countRecords = &subsetKind{first: fsdp.KCountFirst,
	visit: func(r *subsetRun, _, _ []byte, _ *record.View) (bool, error) {
		r.reply.Count++
		return true, nil
	}}

// UPDATE^SUBSET^FIRST/NEXT and DELETE^SUBSET^FIRST/NEXT: selection
// predicate and update expression both evaluated at the Disk Process;
// the record never crosses the FS-DP interface in either direction. The
// scan only collects the qualifying keys within the message's budget;
// the mutations re-descend the tree, so they run after it lets go.
var (
	updateRecords = &subsetKind{first: fsdp.KUpdateSubsetFirst, mutates: true, visit: visitCollect,
		open: func(r *subsetRun) (err error) {
			r.s.assigns, err = expr.DecodeAssignments(r.req.Assign)
			return err
		},
		finish: func(r *subsetRun) error { return r.apply(r.f.assign(r.s.assigns)) }}
	deleteRecords = &subsetKind{first: fsdp.KDeleteSubsetFirst, mutates: true, visit: visitCollect,
		finish: func(r *subsetRun) error { return r.apply(nil) }}
)

func visitCollect(r *subsetRun, key, _ []byte, _ *record.View) (bool, error) {
	n := len(r.block)
	r.block = append(r.block, key...)
	r.hits = append(r.hits, r.block[n:len(r.block):len(r.block)])
	return true, nil
}

// apply changes (ch) or deletes (ch nil) each collected record, counting
// in the reply the ones it wrote. The scan read them without a lock, so
// writeLocked judges each again under its lock: a record that has since
// gone, or that qualified only through another transaction's uncommitted
// change, is skipped.
func (r *subsetRun) apply(ch change) error {
	for _, key := range r.hits {
		_, wrote, err := r.d.writeLocked(r.req.Tx, r.req.File, r.f, key, r.s.pred, ch)
		if err != nil {
			return err
		}
		if wrote {
			r.reply.Count++
		}
	}
	return nil
}

// insertBlock serves INSERT^BLOCK: the paper's proposed blocked
// sequential insert interface. The File System must hold a lock on the
// empty target key range (KLockRange) by prior agreement, so a
// late-detected duplicate key cannot occur from a concurrent writer.
func (d *DP) insertBlock(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: insert block requires a transaction"}
	}
	rows, err := decodeRowsStrict(req.Rows)
	if err != nil {
		return errReply(err)
	}
	reply := &fsdp.Reply{}
	for _, row := range rows {
		if err := d.insertOne(req.Tx, req.File, f, row); err != nil {
			r := errReply(err)
			r.Count = reply.Count
			return r
		}
		reply.Count++
	}
	d.idleWork()
	return reply
}

// updateBlock serves UPDATE^BLOCK: buffered update-where-current. The
// File System accumulated cursor updates locally and ships them in one
// message; Rows holds the new records, RowKeys the target keys.
func (d *DP) updateBlock(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: update block requires a transaction"}
	}
	if len(req.Rows) != len(req.RowKeys) {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: update block rows/keys mismatch"}
	}
	rows, err := decodeRowsStrict(req.Rows)
	if err != nil {
		return errReply(err)
	}
	reply := &fsdp.Reply{}
	for i, key := range req.RowKeys {
		if err := d.mustWrite(req.Tx, req.File, f, key, f.replace(rows[i])); err != nil {
			r := errReply(err)
			r.Count = reply.Count
			return r
		}
		reply.Count++
	}
	d.idleWork()
	return reply
}

// deleteBlock serves DELETE^BLOCK: buffered delete-where-current.
func (d *DP) deleteBlock(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: delete block requires a transaction"}
	}
	reply := &fsdp.Reply{}
	for _, key := range req.RowKeys {
		if err := d.mustWrite(req.Tx, req.File, f, key, nil); err != nil {
			r := errReply(err)
			r.Count = reply.Count
			return r
		}
		reply.Count++
	}
	d.idleWork()
	return reply
}
