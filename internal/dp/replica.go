package dp

// The backup role of a replicated partition group. A backup DP is an
// ordinary DP over its own volume and its own node's audit trail; the
// primary ships every audit record to it (KShipRecords), and the backup
// re-appends each record to its own trail and repeats the operation on
// its own trees — so at any instant the backup's volume+trail are
// independently recoverable, exactly like a primary's. On primary
// failure, KPromote resolves what was in flight: prepared transactions
// stay in doubt under re-acquired locks until the coordinator's phase 2
// arrives; unprepared ones are undone from the shipped before-images
// and fenced so a late commit re-drive cannot falsely acknowledge.
//
// LSNs are local: a shipped record carries the primary's LSN, but the
// backup's trees must be stamped with the backup trail's own LSNs or
// the cache's WAL gate (no page leaves before its log does) would
// compare positions from two different logs.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// replicaState is the backup's view of the checkpoint stream.
type replicaState struct {
	mu      sync.Mutex
	lastSeq uint64 // highest applied record sequence (idempotence)

	// pending holds each in-flight transaction's shipped data records
	// (original images, in arrival order) until its commit or abort
	// marker arrives; prepared marks the ones whose yes vote the
	// primary issued. Both feed promotion.
	pending  map[uint64][]*wal.Record
	prepared map[uint64]bool

	// After promotion: indoubt transactions await the coordinator's
	// phase 2 under re-acquired locks; fenced ones were undone, so a
	// commit re-drive must be refused rather than falsely acknowledged.
	indoubt map[uint64][]*wal.Record
	fenced  map[uint64]bool

	// halted is set by the first KPromote attempt and refuses the
	// checkpoint stream from then on: a failed promotion is retried by
	// re-running its passes, and records applied in between would be
	// invisible to the retry. promoted is set only after both passes
	// succeed — a retried KPromote must re-run a failed promotion, not
	// report success while transactions remain unresolved.
	halted   bool
	promoted bool
	broken   bool // a shipped batch failed to apply; refuse the stream

	batches     uint64
	records     uint64
	fencedTotal int // transactions promotion undid and fenced (monotone)
}

// replica returns the backup-role state, creating it on first use.
func (d *DP) replica() *replicaState {
	if rep := d.rep.Load(); rep != nil {
		return rep
	}
	d.rep.CompareAndSwap(nil, &replicaState{
		pending:  make(map[uint64][]*wal.Record),
		prepared: make(map[uint64]bool),
		indoubt:  make(map[uint64][]*wal.Record),
		fenced:   make(map[uint64]bool),
	})
	return d.rep.Load()
}

// fileMarker synthesizes the RecCheckpoint record that announces a file
// create (or drop, with drop=true) to the backup. File metadata never
// passes through the audit trail, so it rides the checkpoint stream in
// a marker: After carries the encoded schema, Before the encoded CHECK
// constraint, and Key one flags byte (bit0 = field-compressed audit,
// bit1 = drop).
func fileMarker(volume, file string, schema, check []byte, fieldAudit, drop bool) *wal.Record {
	var flags byte
	if fieldAudit {
		flags |= 1
	}
	if drop {
		flags |= 2
	}
	return &wal.Record{
		Type: wal.RecCheckpoint, Volume: volume, File: file,
		Key: []byte{flags}, After: schema, Before: check,
	}
}

// applyShipped serves KShipRecords: one batch of framed audit records
// from the primary, applied in order to the backup's own trail and
// trees. Each frame is prefixed with the shipper's monotone per-record
// sequence number, which makes the apply idempotent frame by frame:
// after a transport failure the shipper resends its whole retained
// buffer — possibly with new records appended — and the backup skips
// exactly the prefix it already applied.
func (d *DP) applyShipped(req *fsdp.Request) *fsdp.Reply {
	rep := d.replica()
	rep.mu.Lock()
	if rep.promoted || rep.halted {
		rep.mu.Unlock()
		return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: promoted, checkpoint stream refused", d.cfg.Name)}
	}
	if rep.broken {
		rep.mu.Unlock()
		return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: replica out of sync", d.cfg.Name)}
	}
	trail := d.cfg.Audit.Trail()
	var lastCommit wal.LSN
	applied := 0
	for _, frame := range req.Rows {
		seq, n := binary.Uvarint(frame)
		if n <= 0 {
			rep.broken = true
			rep.mu.Unlock()
			return errReply(fmt.Errorf("dp %s: shipped frame: bad sequence prefix", d.cfg.Name))
		}
		if seq <= rep.lastSeq {
			continue // duplicate from a batch retry: already applied
		}
		rec, rest, err := wal.Decode(frame[n:])
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d trailing frame bytes", len(rest))
		}
		if err == nil && seq != rep.lastSeq+1 {
			err = fmt.Errorf("sequence gap: got %d, want %d", seq, rep.lastSeq+1)
		}
		if err == nil {
			err = d.applyOneShipped(rep, rec, &lastCommit)
		}
		if err != nil {
			// Half a batch may be applied; the stream is no longer
			// trustworthy. Poison the replica rather than diverge.
			rep.broken = true
			rep.mu.Unlock()
			return errReply(fmt.Errorf("dp %s: shipped record: %w", d.cfg.Name, err))
		}
		rep.lastSeq = seq
		rep.records++
		applied++
	}
	rep.batches++
	rep.mu.Unlock()
	if lastCommit != 0 {
		// The primary acknowledges its client only after this reply:
		// every confirmed transaction is durably committed on the
		// backup's own trail first. rep.mu is released — the wait is on
		// the trail alone, so later ship batches and fence checks are not
		// serialized behind the backup's disk.
		trail.WaitDurable(lastCommit)
	}
	return &fsdp.Reply{Count: uint32(applied)}
}

// applyOneShipped applies one shipped record under rep.mu.
func (d *DP) applyOneShipped(rep *replicaState, rec *wal.Record, lastCommit *wal.LSN) error {
	switch rec.Type {
	case wal.RecCheckpoint:
		return d.applyFileMarker(rec)
	case wal.RecCommit:
		delete(rep.pending, rec.TxID)
		delete(rep.prepared, rec.TxID)
		*lastCommit = d.cfg.Audit.Trail().AppendCommit(rec.TxID)
		return nil
	case wal.RecAbort:
		local := *rec
		local.Volume = d.cfg.Volume.Name()
		d.cfg.Audit.Append(&local)
		delete(rep.pending, rec.TxID)
		delete(rep.prepared, rec.TxID)
		return nil
	case wal.RecPrepare:
		local := *rec
		local.Volume = d.cfg.Volume.Name()
		d.cfg.Audit.Append(&local)
		rep.prepared[rec.TxID] = true
		return nil
	case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		local := *rec
		local.Volume = d.cfg.Volume.Name()
		d.cfg.Audit.Append(&local) // stamps local.LSN with the backup trail's LSN
		if err := d.redoOne(&local); err != nil {
			return err
		}
		rep.pending[rec.TxID] = append(rep.pending[rec.TxID], &local)
		return nil
	}
	return fmt.Errorf("unexpected shipped record type %s", rec.Type)
}

// applyFileMarker creates or drops a file fragment from a shipped
// metadata marker. Idempotent: a duplicate create (batch retry) finds
// the file already attached and does nothing.
func (d *DP) applyFileMarker(rec *wal.Record) error {
	var flags byte
	if len(rec.Key) > 0 {
		flags = rec.Key[0]
	}
	if flags&2 != 0 { // drop
		d.filesMu.Lock()
		delete(d.files, rec.File)
		d.filesMu.Unlock()
		return nil
	}
	schema, err := record.DecodeSchema(rec.After)
	if err != nil {
		return err
	}
	check, err := expr.Decode(rec.Before)
	if err != nil {
		return err
	}
	d.filesMu.RLock()
	_, dup := d.files[rec.File]
	d.filesMu.RUnlock()
	if dup {
		return nil
	}
	tree, err := d.newTree(rec.File)
	if err != nil {
		return err
	}
	d.filesMu.Lock()
	if _, dup := d.files[rec.File]; !dup {
		d.files[rec.File] = &fileState{name: rec.File, schema: schema, check: check, tree: tree, fieldAudit: flags&1 != 0}
	}
	d.filesMu.Unlock()
	return nil
}

// promote serves KPromote: the takeover state machine. The backup stops
// accepting the checkpoint stream and resolves every in-flight
// transaction — prepared ones stay in doubt (their exclusive locks are
// re-acquired so new traffic cannot read uncommitted state; the
// coordinator's phase-2 commit or presumed-abort re-drive resolves
// them), unprepared ones are undone from the shipped before-images and
// fenced. After promote the DP serves as an ordinary primary.
//
// A pass failure leaves promoted unset and returns the error: a retried
// KPromote re-runs both passes rather than reporting success while
// transactions remain unresolved. The re-run is idempotent — relocks
// re-grant to the same transaction, transactions already moved to
// indoubt stay there, and undoShipped skips every original whose
// compensation already applied.
func (d *DP) promote(*fsdp.Request) *fsdp.Reply {
	rep := d.replica()
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.promoted {
		return &fsdp.Reply{} // idempotent: repoint retries are harmless
	}
	if rep.broken {
		return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: replica out of sync, refusing promotion", d.cfg.Name)}
	}
	rep.halted = true // no more shipped batches, even if a pass below fails
	fault.Inject(fault.TakeoverPromote)

	// In-doubt pass: prepared transactions keep their effects and their
	// locks. The locks are uncontended (the backup held none), so
	// re-acquisition cannot block.
	for tx, recs := range rep.pending {
		if !rep.prepared[tx] {
			continue
		}
		for _, r := range recs {
			if r.Compensation {
				continue
			}
			if err := d.locks.LockRecord(tx, r.File, r.Key, lock.Exclusive); err != nil {
				return errReply(fmt.Errorf("dp %s: promote relock tx %d: %w", d.cfg.Name, tx, err))
			}
		}
		rep.indoubt[tx] = recs
		delete(rep.pending, tx)
		delete(rep.prepared, tx)
	}

	// Loser pass: unprepared in-flight transactions are undone in
	// reverse, compensations and an abort marker audited to the
	// backup's own trail (so its recovery repeats this history), and
	// the transaction fenced: the primary never acknowledged it, so a
	// re-driven commit must fail rather than falsely succeed.
	undone := 0
	for tx, recs := range rep.pending {
		recs, err := d.undoShipped(tx, recs)
		rep.pending[tx] = recs // keeps the undo's own compensations for a retry
		if err != nil {
			return errReply(fmt.Errorf("dp %s: promote undo tx %d: %w", d.cfg.Name, tx, err))
		}
		d.cfg.Audit.Append(&wal.Record{Type: wal.RecAbort, TxID: tx, Volume: d.cfg.Volume.Name()})
		rep.fenced[tx] = true
		rep.fencedTotal++
		delete(rep.pending, tx)
		undone++
	}
	if len(rep.fenced) > 0 {
		d.fenceActive.Store(true)
	}
	rep.promoted = true
	return &fsdp.Reply{Count: uint32(undone)}
}

// replicaFenced refuses any request that would attach new work to a
// transaction the takeover fenced: record operations, subset ops, and —
// critically — KPrepare. Promotion undid the transaction from the
// shipped before-images and its requester's coordinator already gave up
// on it, so effects accepted here could never be committed or aborted
// again (their locks would leak forever), and a yes vote would carry
// the coordinator past its commit point on a transaction this volume
// then refuses in phase 2 — a partial commit. Refusing at first contact
// keeps the failure on the abort side of the commit point, where
// presumed abort cleans up everywhere. Returns nil when the transaction
// is not fenced. Commit and abort are not routed here: replicaCommit
// and replicaAbort resolve those.
func (d *DP) replicaFenced(req *fsdp.Request) *fsdp.Reply {
	rep := d.rep.Load()
	if rep == nil {
		return nil
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.promoted || !rep.fenced[req.Tx] {
		return nil
	}
	return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: tx %d fenced by takeover", d.cfg.Name, req.Tx)}
}

// undoShipped reverses one transaction's shipped records (promotion and
// post-promotion abort). Each goes through compensate, as rollback's undo
// entries do, driven by the shipped record images instead of in-memory
// undo entries; the compensations are not shipped on.
//
// An original that a compensation record already reversed must not be
// undone again. Undo is LIFO — the primary's rollback and this function
// both walk the originals in reverse — so, walking backwards, each
// compensation encountered cancels the nearest earlier un-compensated
// original. That skips both compensations the primary shipped (it died
// mid-abort) and this function's own from an earlier attempt: every
// compensation applied here is appended to the returned slice, which
// the caller stores back, so a retried promotion resumes where the
// failure left off instead of double-undoing.
func (d *DP) undoShipped(tx uint64, recs []*wal.Record) ([]*wal.Record, error) {
	skip := 0
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Compensation {
			skip++
			continue
		}
		if skip > 0 {
			skip-- // a later compensation already reversed this original
			continue
		}
		fault.Inject(fault.TakeoverPromote)
		f, err := d.getFile(r.File)
		if err != nil {
			continue // file dropped after the record shipped
		}
		comp := new(wal.Record)
		u := undoRec{file: r.File, kind: r.Type, key: r.Key, before: r.Before}
		ok, err := d.compensate(comp, tx, f, u, r.FieldCompressed, false)
		if err != nil {
			return recs, err
		}
		if !ok {
			continue
		}
		recs = append(recs, comp)
	}
	return recs, nil
}

// replicaCommit intercepts KCommit on a promoted replica. Returns
// handled=false when the transaction is not one takeover resolved, so
// the ordinary commit path runs (new post-takeover transactions).
func (d *DP) replicaCommit(req *fsdp.Request) (*fsdp.Reply, bool) {
	rep := d.rep.Load()
	if rep == nil {
		return nil, false
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.promoted {
		return nil, false
	}
	if rep.fenced[req.Tx] {
		// The primary died before confirming this transaction and the
		// takeover undid it. Acknowledging the re-driven commit would
		// claim durability for work that no longer exists.
		return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: tx %d fenced by takeover", d.cfg.Name, req.Tx)}, true
	}
	if _, ok := rep.indoubt[req.Tx]; ok {
		// Coordinator phase 2: the commit record is durable on the
		// coordinator's trail, but this volume recovers from its own —
		// write a local commit marker before releasing.
		trail := d.cfg.Audit.Trail()
		trail.WaitDurable(trail.AppendCommit(req.Tx))
		delete(rep.indoubt, req.Tx)
		d.locks.ReleaseTx(req.Tx)
		return &fsdp.Reply{}, true
	}
	return nil, false
}

// replicaAbort intercepts KAbort on a promoted replica.
func (d *DP) replicaAbort(req *fsdp.Request) (*fsdp.Reply, bool) {
	rep := d.rep.Load()
	if rep == nil {
		return nil, false
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if !rep.promoted {
		return nil, false
	}
	if rep.fenced[req.Tx] {
		delete(rep.fenced, req.Tx) // resolved exactly as takeover assumed
		return &fsdp.Reply{}, true
	}
	if recs, ok := rep.indoubt[req.Tx]; ok {
		recs, err := d.undoShipped(req.Tx, recs)
		rep.indoubt[req.Tx] = recs
		if err != nil {
			return errReply(fmt.Errorf("dp %s: abort of in-doubt tx %d: %w", d.cfg.Name, req.Tx, err)), true
		}
		d.cfg.Audit.Append(&wal.Record{Type: wal.RecAbort, TxID: req.Tx, Volume: d.cfg.Volume.Name()})
		delete(rep.indoubt, req.Tx)
		d.locks.ReleaseTx(req.Tx)
		return &fsdp.Reply{}, true
	}
	return nil, false
}

// ReplicaStats reports the backup role's progress: shipped batches and
// records applied, whether the DP has been promoted, how many
// transactions are still in doubt, and how many promotion fenced.
func (d *DP) ReplicaStats() (batches, records uint64, promoted bool, indoubt, fenced int) {
	rep := d.rep.Load()
	if rep == nil {
		return 0, 0, false, 0, 0
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.batches, rep.records, rep.promoted, len(rep.indoubt), rep.fencedTotal
}
