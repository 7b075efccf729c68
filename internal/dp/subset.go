package dp

import (
	"bytes"
	"fmt"
	"time"

	"nonstopsql/internal/btree"
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
	maxBytes  int
	timed     bool // an elapsed-time limit is configured

	evals, filtered, returned int
}

// newBatch starts limit tracking for one set-oriented request message.
// A non-zero rowLimit override (tests, ablations) narrows the row
// budget for just this message. The clock is read only for the
// elapsed-time limit, which is off unless configured.
func (d *DP) newBatch(rowLimit uint32) batchState {
	b := batchState{d: d, maxRows: d.cfg.MaxRowsPerMsg, maxBytes: d.cfg.MaxReplyBytes, timed: d.cfg.TimeLimit > 0}
	if b.timed {
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
// re-drive be requested: the full sequential block buffer condition, the
// row budget (a stand-in for the processor-time limit), or the elapsed-
// time limit. Every message makes at least one row of progress so the
// re-drive protocol always advances. It is checked before every record,
// so it is kept small enough to inline.
func (b *batchState) full() bool {
	return b.processed != 0 && (b.bytes >= b.maxBytes || b.processed >= b.maxRows || b.timed && b.overTime())
}

func (b *batchState) overTime() bool { return time.Since(b.start) > b.d.cfg.TimeLimit }

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
	// visit sees qualifying record j of r.run, with r.rec pointed at it.
	// Everything the run lends — the record, its starts, r.run.Key(j) —
	// borrows the leaf's cache buffer (btree.Run) and is gone when the
	// run's turn ends: whatever the reply or the message keeps is a copy.
	// A kind that never asks for the key (COUNT, AGG) never pays for it.
	visit  func(r *subsetRun, j int) (more bool, err error)
	finish func(r *subsetRun) error // after the scan and the group lock
}

// How a message's scan ended.
type stop uint8

const (
	ranOut stop = iota // the range is exhausted
	budget             // the message's budget ended it: a re-drive is wanted
	limit              // the conversation's row limit (ScanLimit) is met
)

// subsetRun is the state of one subset message being served.
type subsetRun struct {
	d     *DP
	f     *fileState
	k     *subsetKind
	req   *fsdp.Request
	s     *scb
	batch batchState
	reply fsdp.Reply // returned by address: the run and its reply are one allocation
	stop  stop

	// In a transaction a read kind locks the span it read before it
	// replies (groupLock); delivered is the conversation's row count as it
	// stood at the message's start, where a read under the lock starts
	// again.
	groupLock bool
	delivered uint32

	run  btree.Run   // the leaf's run being served, lent by the scan for its turn
	rec  record.View // the record under the scan cursor, pointed at the starts the run lends
	hits [][]byte    // mutating kinds: qualifying keys, applied after the scan

	// block is the message's virtual block: reply rows and keys (GET) and
	// collected keys (mutating kinds) are cut from this one buffer. It
	// grows by appending, except that a GET reserves it once, at its second
	// row (reserve). Bytes already appended never move — growth copies them
	// to a new array and leaves the old one to the slices cut from it.
	block    []byte
	reserved bool
}

// subset serves every ^FIRST/^NEXT conversation kind. It owns the
// protocol: open the SCB on ^FIRST — planning the range's leaves for
// pre-fetch, once for the whole conversation — or look it up, and refuse
// it unless file, kind and transaction all match, on ^NEXT; scan the
// range a leaf at a time under the message budget, tracking LastKey and
// the scanned / predicate / filtered counters; hand each qualifying
// record to the kind's visitor; in a transaction, lock the span the
// message read as a group before replying — reading it again under the
// lock if the lock had to wait — and retain the SCB when
// a re-drive is wanted, retire it when Done — or when the message fails:
// a kind may have folded half a message into its SCB (AGG), so a
// conversation does not outlive its first error.
func (d *DP) subset(req *fsdp.Request, k *subsetKind) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if k.mutates && req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: subset mutation requires a transaction"}
	}
	d.stats.setRequests.Add(1)

	r := &subsetRun{d: d, f: f, k: k, req: req}
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
	// The range's leaves are planned once per conversation: the plan runs
	// through the range's upper bound, which no ^NEXT moves, so a re-drive
	// has no leaves beyond it to plan — unless the pool dropped the plan,
	// every pre-fetch worker busy, and then the next message plans what
	// is left of the range.
	if d.cfg.Prefetch && !s.planned {
		if s.planned, err = f.tree.Prefetch(req.Range, s.class); err != nil {
			return fail(err)
		}
	}
	r.groupLock = req.Tx != 0 && !k.mutates
	if r.groupLock {
		r.delivered = s.delivered
		if s.agg != nil {
			s.aggMem.mark() // the fold must be undoable until the lock is granted
		}
	}
	if err := r.scan(req.Range); err != nil {
		return fail(err)
	}

	// Virtual block locking: the span this message read is locked as a
	// group — one range lock instead of ENSCRIBE SBB's file lock — so what
	// the requester saw, counted or aggregated stays stable until commit,
	// and so does what the predicate turned away and what the scan found
	// missing. And what it sees must have been committed: a lock that had
	// to wait waited for a writer, and the scan may have read that
	// writer's change — a value, a record it inserted or deleted — so the
	// message is read again under the lock before anything leaves.
	if r.groupLock {
		mode := lock.Shared
		if req.Mode == 2 {
			mode = lock.Exclusive
		}
		span := r.span(req.Range)
		waited, err := d.locks.Acquire(req.Tx, req.File, span, mode)
		if err != nil {
			return fail(err)
		}
		d.joinTx(req.Tx)
		if waited {
			if err := r.again(span); err != nil {
				return fail(err)
			}
		}
	}
	reply.Done = r.stop != budget
	if k.finish != nil {
		if err := k.finish(r); err != nil {
			return fail(err)
		}
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

// scan runs the message over rng, a leaf's run at a time.
func (r *subsetRun) scan(rng keys.Range) error {
	return r.f.tree.ScanRecords(rng, r.s.class, func(run btree.Run) (bool, error) {
		r.run = run // kept on the message, not handed to the visitors, so it never escapes
		return r.take()
	})
}

// take serves one run: its records in key order, each counted against the
// message's budget, judged by the predicate and, qualifying, handed to the
// kind's visitor. LastKey is copied once, from the last record processed,
// while the leaf is still pinned.
func (r *subsetRun) take() (bool, error) {
	b, pred, run := &r.batch, r.s.pred, &r.run
	n := run.Len()
	j, more := 0, true
	for ; j < n; j++ {
		if b.full() {
			// Budget exhausted and more records remain: request a
			// continuation re-drive.
			r.stop, more = budget, false
			break
		}
		b.processed++
		// The record is read where it lies, reached field by field through
		// the starts the B-tree's walk found when it validated it whole.
		// Nothing is decoded that nobody asks for.
		r.rec.Point(run.Record(j))
		if pred != nil {
			b.evals++
			keep, err := pred.Satisfied(&r.rec)
			if err != nil {
				return false, err
			}
			if !keep {
				b.filtered++
				continue
			}
		}
		var err error
		if more, err = r.k.visit(r, j); err != nil {
			return false, err
		}
		if !more {
			r.stop = limit
			j++
			break
		}
	}
	if j > 0 {
		r.reply.LastKey = append(r.reply.LastKey[:0], run.Key(j-1)...)
	}
	return more, nil
}

// span is the key range the message read, which its group lock covers:
// from where it started to where it stopped — through the range's end when
// it ran out. The lock keeps the range until commit, so it gets bytes of
// its own: the request's, and LastKey, which no later write reaches.
func (r *subsetRun) span(rng keys.Range) keys.Range {
	rng.Low = bytes.Clone(rng.Low)
	if r.stop == ranOut {
		rng.High = bytes.Clone(rng.High)
	} else {
		rng.High, rng.HighIncl = r.reply.LastKey, true
	}
	return rng
}

// again reads the message's span once more, now that its group lock is
// granted, and replaces everything the first read produced: that read may
// have met the uncommitted change the lock waited on, and nothing it saw
// may be shipped. The second read covers only the span already locked, so
// it cannot wait again, and its counters are the message's.
func (r *subsetRun) again(locked keys.Range) error {
	first := r.stop
	r.batch = r.d.newBatch(r.req.RowLimit)
	r.reply.LastKey = nil // the lock holds the first read's LastKey as its span's end
	r.reply.Rows, r.reply.RowKeys, r.reply.Count = r.reply.Rows[:0], r.reply.RowKeys[:0], 0
	r.block, r.s.delivered, r.stop = r.block[:0], r.delivered, ranOut
	if r.s.agg != nil {
		r.s.aggMem.rewind()
	}
	err := r.scan(locked)
	if r.stop == ranOut && first != ranOut {
		// The first read stopped inside the range, at the span's end, and
		// the second read the span through: the conversation continues from
		// there, whether the first stopped on the budget or on a row limit
		// the second no longer reaches.
		r.stop, r.reply.LastKey = budget, locked.High
	}
	return err
}

// GET^FIRST/NEXT^VSBB: the reply's virtual block holds the *projected*
// fields of key-range records that satisfied the predicate, evaluated
// here at the data source. GET^FIRST/NEXT^RSBB: the reply is a real
// block image — whole records, no selection or projection, no decode.
var (
	getVSBB = &subsetKind{first: fsdp.KGetFirstVSBB, visit: visitGet,
		open: func(r *subsetRun) error {
			r.s.proj, r.s.limit = r.req.Proj, r.req.ScanLimit
			if len(r.s.proj) == 0 {
				r.s.proj = nil // no projection: the record ships whole
			}
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
func visitGet(r *subsetRun, j int) (bool, error) {
	key := r.run.Key(j)
	if len(r.reply.Rows) == 1 && !r.reserved {
		r.reserve(len(key), r.rec.RowLen(r.s.proj))
	}
	b := append(r.block, key...)
	keyEnd := len(b)
	b, err := r.rec.AppendRow(b, r.s.proj)
	if err != nil {
		return false, fmt.Errorf("dp: %s: %w", r.req.File, err)
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

// reserveRows caps what a GET message reserves up front: a message whose
// budgets would let it carry more rows (budgets lifted for a bulk read)
// grows past them by appending.
const reserveRows = 4096

// reserve sizes a GET message's virtual block, and its reply's row and
// key lists, when a second row arrives: room for as many more rows like it
// as the message can still carry — the reply budget's bytes and the row
// budget's records, the row that crosses the byte budget included, and
// the conversation's row limit. A message of like rows then costs one
// block allocation, not a doubling per power of two, and a message of one
// row — a lookup through an index, a selective range — costs what its one
// row does. The first row stays in the block it was appended to.
func (r *subsetRun) reserve(keyLen, rowLen int) {
	b := &r.batch
	n := min((b.maxBytes-b.bytes)/max(rowLen, 1)+1, b.maxRows-b.processed+1, reserveRows)
	if r.s.limit > 0 {
		n = min(n, int(r.s.limit-r.s.delivered))
	}
	r.block = make([]byte, 0, n*(keyLen+rowLen))
	r.reply.Rows = append(make([][]byte, 0, n+1), r.reply.Rows...)
	r.reply.RowKeys = append(make([][]byte, 0, n+1), r.reply.RowKeys...)
	r.reserved = true
}

// COUNT^FIRST/NEXT: like a VSBB scan with the projection pushed all the
// way to nothing — the reply carries only the qualifying-record count,
// so a COUNT(*) moves a constant-size reply per re-drive no matter how
// many records qualify.
var countRecords = &subsetKind{first: fsdp.KCountFirst,
	visit: func(r *subsetRun, _ int) (bool, error) {
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
		open:   func(r *subsetRun) error { return r.s.set.Decode(r.req.Assign) },
		finish: func(r *subsetRun) error { return r.apply(&change{set: &r.s.set}) }}
	deleteRecords = &subsetKind{first: fsdp.KDeleteSubsetFirst, mutates: true, visit: visitCollect,
		finish: func(r *subsetRun) error { return r.apply(nil) }}
)

func visitCollect(r *subsetRun, j int) (bool, error) {
	n := len(r.block)
	r.block = append(r.block, r.run.Key(j)...)
	r.hits = append(r.hits, r.block[n:len(r.block):len(r.block)])
	return true, nil
}

// apply changes (ch) or deletes (ch nil) each collected record, counting
// in the reply the ones it wrote. The scan read them without a lock, so
// writeLocked judges each again under its lock: a record that has since
// gone, or that qualified only through another transaction's uncommitted
// change, is skipped.
func (r *subsetRun) apply(ch *change) error {
	var w write
	for _, key := range r.hits {
		_, wrote, err := r.d.writeLocked(&w, r.req.Tx, r.req.File, r.f, key, r.s.pred, ch)
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
	var w write
	for _, row := range rows {
		if err := d.insertOne(&w, req.Tx, req.File, f, row); err != nil {
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
	var w write
	for i, key := range req.RowKeys {
		if err := d.mustWrite(&w, req.Tx, req.File, f, key, &change{row: rows[i]}); err != nil {
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
	var w write
	for _, key := range req.RowKeys {
		if err := d.mustWrite(&w, req.Tx, req.File, f, key, nil); err != nil {
			r := errReply(err)
			r.Count = reply.Count
			return r
		}
		reply.Count++
	}
	d.idleWork()
	return reply
}
