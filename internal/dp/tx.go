package dp

import (
	"fmt"

	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/poison"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// txState is this DP's participant state for one transaction. A finished
// transaction's state goes on the DP's free list (finishTx) and serves a
// later one, its arrays and all.
type txState struct {
	undo     []undoRec // applied in reverse on abort
	images   []byte    // the undo entries' keys and images (keep)
	prepared bool
}

// undoRec is one in-memory undo entry. `before` is always a full record
// image (independent of the on-trail audit compression), so abort is a
// simple value restore.
type undoRec struct {
	file   string
	kind   wal.RecType // the forward operation being undone
	key    []byte
	before []byte
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

// txLocked returns tx's state, making it — from the free list when it can
// — when tx is new here. Callers hold d.mu.
func (d *DP) txLocked(tx uint64) *txState {
	t, ok := d.txs[tx]
	if !ok {
		if n := len(d.freeTxs); n > 0 {
			t = d.freeTxs[n-1]
			d.freeTxs[n-1] = nil
			d.freeTxs = d.freeTxs[:n-1]
		} else {
			t = new(txState)
		}
		d.txs[tx] = t
	}
	return t
}

func (d *DP) joinTx(tx uint64) {
	d.mu.Lock()
	d.txLocked(tx)
	d.mu.Unlock()
}

// addUndo adds u to tx's undo chain, with copies of its key and image: the
// write's buffer they lie in is reused by its next change.
func (d *DP) addUndo(tx uint64, u undoRec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.txLocked(tx)
	u.key, u.before = t.keep(u.key), t.keep(u.before)
	t.undo = append(t.undo, u)
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
	d.mu.Lock()
	_, ok := d.txs[req.Tx]
	d.mu.Unlock()
	if !ok {
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
	d.mu.Lock()
	if t, ok := d.txs[req.Tx]; ok {
		t.prepared = true
	}
	d.mu.Unlock()
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
// commit record; this is 2PC phase 2.
func (d *DP) commit(req *fsdp.Request, sl *slot) *fsdp.Reply {
	// A promoted replica resolves transactions it holds in doubt (and
	// refuses ones it fenced off) before the normal path runs.
	if reply, handled := d.replicaCommit(req); handled {
		return reply
	}
	d.mu.Lock()
	_, ok := d.txs[req.Tx]
	d.mu.Unlock()
	if ok && req.CommitLSN == 0 {
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
	d.finishTx(req.Tx)
	d.idleWork()
	return sl.answer(fsdp.Reply{})
}

// abort serves KAbort: undo in reverse order, write the abort record,
// release everything.
func (d *DP) abort(req *fsdp.Request, sl *slot) *fsdp.Reply {
	if reply, handled := d.replicaAbort(req); handled {
		return reply
	}
	d.mu.Lock()
	t, ok := d.txs[req.Tx]
	d.mu.Unlock()
	if ok {
		if err := d.undoTx(&sl.mark, req.Tx, t); err != nil {
			// Undo failure is unrecoverable for this volume state.
			return errReply(fmt.Errorf("dp %s: undo of tx %d failed: %w", d.cfg.Name, req.Tx, err))
		}
		sl.mark = wal.Record{Type: wal.RecAbort, TxID: req.Tx, Volume: d.cfg.Volume.Name()}
		d.appendAudit(&sl.mark)
		// The backup must drop the tx's pending records before locks
		// release here, or a later takeover could undo a successor's work.
		// (On a failed flush the abort marker rides the retained buffer;
		// a takeover before it lands refuses catch-up failure outright.)
		_ = d.shipFlush()
	}
	d.finishTx(req.Tx)
	return sl.answer(fsdp.Reply{})
}

// undoTx applies the in-memory undo chain in reverse, auditing each
// compensation in rec. Compensation records go through appendAudit like
// forward audit: a replicated group's backup must see them in its
// checkpoint stream.
func (d *DP) undoTx(rec *wal.Record, tx uint64, t *txState) error {
	for i := len(t.undo) - 1; i >= 0; i-- {
		fault.Inject(fault.DPAbortMidUndo)
		u := t.undo[i]
		f, err := d.getFile(u.file)
		if err != nil {
			return err
		}
		// Compensation actions are audited so redo-after-crash replays
		// them too (repeating history).
		switch u.kind {
		case wal.RecInsert:
			*rec = wal.Record{
				Type: wal.RecDelete, TxID: tx, Volume: d.cfg.Volume.Name(), File: u.file,
				Key: u.key, Compensation: true,
			}
			lsn := d.appendAudit(rec)
			if err := f.tree.Delete(u.key, lsn); err != nil {
				return err
			}
		case wal.RecUpdate:
			*rec = wal.Record{
				Type: wal.RecUpdate, TxID: tx, Volume: d.cfg.Volume.Name(), File: u.file,
				Key: u.key, After: u.before, Compensation: true,
			}
			lsn := d.appendAudit(rec)
			if err := f.tree.Update(u.key, u.before, lsn); err != nil {
				return err
			}
		case wal.RecDelete:
			*rec = wal.Record{
				Type: wal.RecInsert, TxID: tx, Volume: d.cfg.Volume.Name(), File: u.file,
				Key: u.key, After: u.before, Compensation: true,
			}
			lsn := d.appendAudit(rec)
			if err := f.tree.Insert(u.key, u.before, lsn); err != nil {
				return err
			}
		}
	}
	return nil
}

// finishTx drops tx state, its Subset Control Blocks, and its locks. The
// state goes on the free list, its images poisoned under the race
// detector: nothing reads them once the transaction is over.
func (d *DP) finishTx(tx uint64) {
	d.mu.Lock()
	if t, ok := d.txs[tx]; ok {
		delete(d.txs, tx)
		if len(d.freeTxs) < maxFreeTxs {
			poison.Fill(t.images)
			clear(t.undo)
			t.undo, t.images, t.prepared = t.undo[:0], t.images[:0], false
			if cap(t.images) > maxFreeImages {
				t.undo, t.images = nil, nil
			}
			d.freeTxs = append(d.freeTxs, t)
		}
	}
	for id, s := range d.scbs {
		if s.tx == tx {
			delete(d.scbs, id)
		}
	}
	d.mu.Unlock()
	d.locks.ReleaseTx(tx)
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
