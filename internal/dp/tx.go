package dp

import (
	"fmt"

	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/poison"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// txState is this DP's participant state for one transaction, in the
// DP's one transaction table from the first of its messages to arrive
// until its end. A finished transaction's state goes on the DP's free list
// and serves a later one, its arrays and all.
type txState struct {
	undo   []undoRec // applied in reverse on abort
	images []byte    // the undo entries' keys and images (keep)
	// serving counts the transaction's messages in service here (enter,
	// leave). joined says one of them locked something, which makes this
	// Disk Process a participant: PREPARE and COMMIT audit it and ABORT
	// rolls it back. ended says COMMIT, ABORT or a crash ended it, which
	// join and addUndo refuse from then on; rollback, that an ABORT left
	// the rollback to the last message out.
	serving                 int
	joined, ended, rollback bool
	// A backup's transaction (replica.go): prepared says the checkpoint
	// stream carried its PREPARE, which leaves it in doubt at promotion;
	// fenced, that promotion rolled it back and left its ended state in the
	// table, where enter and prepare refuse it, COMMIT is refused and ABORT
	// frees it.
	prepared, fenced bool
}

// undoRec is one in-memory undo entry. A primary's `before` is always a
// full record image (independent of the on-trail audit compression), so
// abort is a simple value restore; a backup's is the shipped record's,
// field-compressed for a SQL file's UPDATE (compressed).
type undoRec struct {
	file       string
	kind       wal.RecType // the forward operation being undone
	key        []byte
	before     []byte
	compressed bool
}

// Bounds on what the free list keeps: how many states, and the largest
// image buffer one keeps — a transaction that changed more gives its
// buffer to the collector.
const (
	maxFreeTxs    = 256
	maxFreeImages = 64 << 10
)

// keep copies b to t's images and returns the copy; nil stays nil. An
// append that outgrows the buffer leaves the copies already made in the
// old array, where their entries still find them.
func (t *txState) keep(b []byte) []byte {
	if b == nil {
		return nil
	}
	t.images = append(t.images, b...)
	return t.images[len(t.images)-len(b) : len(t.images) : len(t.images)]
}

// reset readies a finished transaction's state for the next, its images
// poisoned under the race detector: nothing reads them once the
// transaction is over.
func (t *txState) reset() {
	poison.Fill(t.images)
	clear(t.undo)
	*t = txState{undo: t.undo[:0], images: t.images[:0]}
	if cap(t.images) > maxFreeImages {
		t.undo, t.images = nil, nil
	}
}

// enter counts a message of tx in service, making tx's state when tx is
// new here. Every message with a transaction but PREPARE, COMMIT and
// ABORT enters in serve before it is dispatched and leaves once it is
// served, so while it is in service its state is in the table. It refuses
// a transaction a takeover fenced (nil): its requester's coordinator gave
// up on it, and work accepted now could never commit or abort again.
func (d *DP) enter(tx uint64) *txState {
	d.mu.Lock()
	t := d.txs[tx]
	switch {
	case t == nil:
		t = d.freeTx.take()
		d.txs[tx] = t
	case t.fenced:
		d.mu.Unlock()
		return nil
	}
	t.serving++
	d.mu.Unlock()
	return t
}

// leave ends a message's service in tx. The last of tx's messages to
// leave drops the state of a transaction that never joined here, and
// finishes one that ended while they were in service.
func (d *DP) leave(tx uint64, t *txState) error {
	d.mu.Lock()
	t.serving--
	last := t.serving == 0 && (t.ended || !t.joined)
	if last {
		delete(d.txs, tx)
		if !t.ended {
			// It never joined: it has nothing to reset, and no lock to
			// release — a release now could drop one that a message of tx
			// arriving meanwhile took.
			d.freeTx.put(t)
		}
	}
	d.mu.Unlock()
	if last && t.ended {
		return d.finish(tx, t, new(wal.Record))
	}
	return nil
}

// join makes this Disk Process a participant in tx once a message of tx
// has locked what it reads or writes. It refuses a transaction that ended
// while the message was in service: joining would bring the transaction
// back, a write made under it that nothing would undo. What the message
// locked is released when tx's last message leaves.
func (d *DP) join(tx uint64) error {
	d.mu.Lock()
	t := d.txs[tx]
	ended := t.ended
	if !ended {
		t.joined = true
	}
	d.mu.Unlock()
	if ended {
		return fmt.Errorf("dp %s: transaction %d ended while its message was in service", d.cfg.Name, tx)
	}
	return nil
}

// marks reports whether this Disk Process is a participant in tx, and
// whether tx is a promoted backup's in-doubt (prepared) or fenced one.
func (d *DP) marks(tx uint64) (joined, prepared, fenced bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t := d.txs[tx]; t != nil {
		return t.joined, t.prepared, t.fenced
	}
	return false, false, false
}

// addUndo adds u to tx's undo chain, with copies of its key and image: the
// write's buffer they lie in is reused by its next change. It refuses a
// transaction that ended since the write joined it.
func (d *DP) addUndo(tx uint64, u undoRec) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.txs[tx]
	if t.ended {
		return fmt.Errorf("dp %s: transaction %d ended before its change was kept", d.cfg.Name, tx)
	}
	u.key, u.before = t.keep(u.key), t.keep(u.before)
	t.undo = append(t.undo, u)
	return nil
}

// end ends tx at this Disk Process, for COMMIT, ABORT (rollback) and a
// crash: join and addUndo refuse tx from here on, and its Subset Control
// Blocks are retired. When none of its messages is in service, tx is
// finished now; otherwise the last of them finishes it as it leaves. So an
// ABORT's rollback runs once no change of tx can still join the undo
// chain, and tx's locks are held until then. rec is where a rollback
// audits.
func (d *DP) end(tx uint64, rollback bool, rec *wal.Record) error {
	d.mu.Lock()
	for id, s := range d.scbs {
		if s.tx == tx {
			d.retireSCB(id, s)
		}
	}
	t := d.txs[tx]
	if t != nil {
		t.ended, t.rollback = true, rollback && t.joined
		if t.serving > 0 {
			d.mu.Unlock()
			return nil
		}
		delete(d.txs, tx)
	}
	d.mu.Unlock()
	return d.finish(tx, t, rec)
}

// finish completes the end of tx, whose state t (nil when it has none) is
// out of the table: the rollback an ABORT asked for, then the release of
// tx's locks, and t back on the free list.
func (d *DP) finish(tx uint64, t *txState, rec *wal.Record) error {
	if t != nil && t.rollback {
		if err := d.rollback(rec, tx, t, fault.DPAbortMidUndo); err != nil {
			// Undo failure is unrecoverable for this volume state: the
			// transaction stays, locks and all.
			d.mu.Lock()
			d.txs[tx] = t
			d.mu.Unlock()
			return fmt.Errorf("dp %s: undo of tx %d failed: %w", d.cfg.Name, tx, err)
		}
	}
	d.locks.ReleaseTx(tx)
	if t != nil {
		t.reset()
		d.mu.Lock()
		d.freeTx.put(t)
		d.mu.Unlock()
	}
	return nil
}

// appendAudit writes one audit record through the audit port and ships
// it to the replicated group's backup when one is configured. A record
// write audits under its leaf's latch and ships after (DP.audit,
// DP.logged); everything else audits here.
func (d *DP) appendAudit(rec *wal.Record) wal.LSN {
	lsn := d.cfg.Audit.Append(rec)
	d.ship(rec)
	return lsn
}

// ship hands one audit record to the checkpoint stream, if there is one.
// It may wait for a flush to the backup in progress, so it never runs
// under a page latch.
func (d *DP) ship(rec *wal.Record) {
	if d.cfg.Ship != nil {
		d.cfg.Ship(rec)
	}
}

// prepare serves KPrepare (2PC phase 1): all of the transaction's audit
// at this participant is shipped, a prepare record is written, and the
// participant promises to hold locks.
//
// The audit is forced here only when the coordinator's commit record will
// live on another trail. On the same trail (req.CommitLSN names it; one
// per node) the commit record follows this prepare record in one
// sequential log and the coordinator forces it before anyone is told the
// transaction committed: it cannot survive a crash that loses anything
// before it, and Recover decides winners by commit record alone — a crash
// in between undoes the transaction on every volume, as presumed abort
// would after a forced prepare. An anonymous trail (ID 0) always forces;
// the backup's shipFlush below is not affected. DESIGN.md §17.
func (d *DP) prepare(req *fsdp.Request, sl *slot) *fsdp.Reply {
	joined, _, fenced := d.marks(req.Tx)
	if fenced {
		// A yes vote would carry the coordinator past its commit point on
		// a transaction this volume refuses in phase 2.
		return d.errFenced(req.Tx)
	}
	if !joined {
		// Never touched here: trivially prepared (read-only participant).
		return sl.answer(fsdp.Reply{})
	}
	sl.mark = wal.Record{Type: wal.RecPrepare, TxID: req.Tx, Volume: d.cfg.Volume.Name()}
	lsn := d.appendAudit(&sl.mark)
	d.cfg.Audit.FlushSend()
	if trail := d.cfg.Audit.Trail(); trail.ID() == 0 || trail.ID() != req.CommitLSN {
		trail.FlushTo(lsn)
	}
	// The yes vote promises this participant can commit even if it dies:
	// with a replicated backup, that means the backup must hold every
	// record of the transaction (it keeps the tx in doubt at takeover).
	// A failed flush degrades the promise (counted; the vote still goes
	// out — this volume's own trail can honor it).
	_ = d.shipFlush()
	return sl.answer(fsdp.Reply{})
}

// shipSync ships one synthesized record (commit marker, file marker)
// and flushes the checkpoint stream to the backup synchronously.
func (d *DP) shipSync(rec *wal.Record) error {
	d.ship(rec)
	return d.shipFlush()
}

// shipFlush pushes the checkpoint stream to the backup. On failure the
// shipper retained the buffer for catch-up, but the acknowledgement the
// caller is about to return no longer carries the backup-durable
// guarantee — count it so the degraded window is visible instead of
// silent.
func (d *DP) shipFlush() error {
	if d.cfg.ShipFlush == nil {
		return nil
	}
	if err := d.cfg.ShipFlush(); err != nil {
		d.shipDegraded.Add(1)
		return err
	}
	return nil
}

// commit serves KCommit. With CommitLSN == 0 this DP is the only
// participant: it writes the commit record itself and waits for it to
// become durable, riding group commit with every other transaction in
// the node. With CommitLSN set, the coordinator already forced the
// commit record; this is 2PC phase 2. A promoted backup's in-doubt
// transaction writes its own commit record in phase 2 too: the
// coordinator's is on another trail, and this volume recovers from its
// own. A fenced one is refused: the primary died before confirming it and
// the takeover undid it, so an acknowledgement would claim durability for
// work that no longer exists.
func (d *DP) commit(req *fsdp.Request, sl *slot) *fsdp.Reply {
	ok, prepared, fenced := d.marks(req.Tx)
	if fenced {
		return d.errFenced(req.Tx)
	}
	if ok && (req.CommitLSN == 0 || prepared) {
		d.cfg.Audit.FlushSend()
		trail := d.cfg.Audit.Trail()
		lsn := trail.AppendCommit(req.Tx)
		trail.WaitDurable(lsn)
	}
	if ok {
		// Commit markers never pass through appendAudit (phase 2's lives
		// on the coordinator's trail), so the backup gets a synthesized
		// one — shipped and made durable there BEFORE the client is told
		// the transaction committed, and before locks release so the
		// stream stays ordered per key. A failed flush is the degraded
		// mode: the commit is durable on this volume's own trail and is
		// still acknowledged, but the loss of the backup guarantee is
		// counted, and takeover refuses to promote until catch-up lands.
		sl.mark = wal.Record{Type: wal.RecCommit, TxID: req.Tx, Volume: d.cfg.Volume.Name()}
		_ = d.shipSync(&sl.mark)
	}
	fault.Inject(fault.DPCommitBeforeFinish)
	_ = d.end(req.Tx, false, nil) // no rollback, so no error
	d.idleWork()
	return sl.answer(fsdp.Reply{})
}

// abort serves KAbort: undo in reverse order, write the abort record,
// release everything — now, or when the transaction's last message in
// service leaves (end). A fenced transaction was undone at takeover: its
// ABORT only frees its state.
func (d *DP) abort(req *fsdp.Request, sl *slot) *fsdp.Reply {
	if err := d.end(req.Tx, true, &sl.mark); err != nil {
		return errReply(err)
	}
	return sl.answer(fsdp.Reply{})
}

// rollback applies tx's undo chain in reverse, auditing each compensation
// in rec, and then the abort record; point is the crash point it fires
// before each step (an ABORT's, or a promotion's). Each entry is dropped
// once it is compensated, so a rollback retried after a failure undoes
// nothing twice; a file dropped since leaves nothing to take back, as in
// recovery. Compensation records are shipped like forward audit: a
// replicated group's backup must see them in its checkpoint stream. And
// the backup must end the tx before locks release here, or a later
// takeover could undo a successor's work. (On a failed flush the abort
// marker rides the retained buffer; a takeover before it lands refuses
// catch-up failure outright.)
func (d *DP) rollback(rec *wal.Record, tx uint64, t *txState, point string) error {
	for i := len(t.undo) - 1; i >= 0; i-- {
		fault.Inject(point)
		if f, err := d.getFile(t.undo[i].file); err == nil {
			if err := d.compensate(rec, tx, f, t.undo[i]); err != nil {
				return err
			}
		}
		t.undo[i] = undoRec{}
		t.undo = t.undo[:i]
	}
	*rec = wal.Record{Type: wal.RecAbort, TxID: tx, Volume: d.cfg.Volume.Name()}
	d.appendAudit(rec)
	_ = d.shipFlush()
	return nil
}

// compensate reverses u, one change tx made — an INSERT is deleted, an
// UPDATE or a DELETE puts its before image back, field by field when the
// image is field-compressed — and audits the compensation in rec first, so
// redo after a crash replays it too (repeating history), and ships it to a
// replicated group's backup.
func (d *DP) compensate(rec *wal.Record, tx uint64, f *fileState, u undoRec) error {
	*rec = wal.Record{TxID: tx, Volume: d.cfg.Volume.Name(), File: u.file, Key: u.key, Compensation: true}
	switch u.kind {
	case wal.RecInsert:
		rec.Type = wal.RecDelete
	case wal.RecUpdate:
		rec.Type, rec.After, rec.FieldCompressed = wal.RecUpdate, u.before, u.compressed
	default:
		rec.Type, rec.After = wal.RecInsert, u.before
	}
	lsn := d.cfg.Audit.Append(rec)
	d.ship(rec)
	switch {
	case u.kind == wal.RecInsert:
		return f.tree.Delete(u.key, lsn)
	case u.kind == wal.RecDelete:
		return f.tree.Insert(u.key, u.before, lsn)
	case u.compressed:
		return d.applyFieldImages(f, u.key, u.before, lsn)
	default:
		return f.tree.Update(u.key, u.before, lsn)
	}
}

// idleWork marks the "idle time between Disk Process requests": tell
// the background writer that a commit or a finished subset may have
// aged dirty block strings. The nudge is non-blocking; the writer
// coalesces nudges while a pass is running.
func (d *DP) idleWork() {
	if d.cfg.WriteBehind {
		d.pool.NudgeWriter()
	}
}

// decodeRowsStrict decodes a wire row batch.
func decodeRowsStrict(rows [][]byte) ([]record.Row, error) {
	out := make([]record.Row, len(rows))
	for i, r := range rows {
		row, err := record.Decode(r)
		if err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}
