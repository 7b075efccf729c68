package dp

// The backup role of a replicated partition group. A backup DP is an
// ordinary DP over its own volume and its own node's audit trail; the
// primary ships every audit record to it (KShipRecords), and the backup
// re-appends each record to its own trail and repeats the operation on
// its own trees — so at any instant the backup's volume+trail are
// independently recoverable, exactly like a primary's. On primary
// failure, KPromote resolves what was in flight: prepared transactions
// stay in doubt under re-acquired locks until the coordinator's phase 2
// arrives; unprepared ones are rolled back from the shipped before-images
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

// replicaState is the backup's view of the checkpoint stream. The
// transactions the stream carries live in the DP's one transaction table
// (DP.txs), like any other: a shipped change pushes an undo entry, a
// shipped compensation pops the newest, a shipped PREPARE marks the state
// and a shipped COMMIT or ABORT ends it.
type replicaState struct {
	mu      sync.Mutex
	lastSeq uint64 // highest applied record sequence (idempotence)

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
	d.rep.CompareAndSwap(nil, new(replicaState))
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
			err = d.applyOneShipped(rec, &lastCommit)
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
		// the trail alone, so later ship batches are not serialized
		// behind the backup's disk.
		trail.WaitDurable(lastCommit)
	}
	return &fsdp.Reply{Count: uint32(applied)}
}

// applyOneShipped applies one shipped record under rep.mu.
func (d *DP) applyOneShipped(rec *wal.Record, lastCommit *wal.LSN) error {
	switch rec.Type {
	case wal.RecCheckpoint:
		return d.applyFileMarker(rec)
	case wal.RecCommit:
		*lastCommit = d.cfg.Audit.Trail().AppendCommit(rec.TxID)
		return d.end(rec.TxID, false, nil)
	case wal.RecAbort:
		// The primary's compensations came ahead of its abort record.
		d.auditLocal(rec)
		return d.end(rec.TxID, false, nil)
	case wal.RecPrepare:
		d.auditLocal(rec)
		d.mu.Lock()
		if t := d.txs[rec.TxID]; t != nil {
			t.prepared = true
		}
		d.mu.Unlock()
		return nil
	case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
		local := d.auditLocal(rec) // stamped with the backup trail's LSN
		if err := d.redoOne(&local); err != nil {
			return err
		}
		d.shipped(rec)
		return nil
	}
	return fmt.Errorf("unexpected shipped record type %s", rec.Type)
}

// auditLocal appends a copy of rec, naming this DP's volume, to the
// backup's own trail and returns it.
func (d *DP) auditLocal(rec *wal.Record) wal.Record {
	local := *rec
	local.Volume = d.cfg.Volume.Name()
	d.cfg.Audit.Append(&local)
	return local
}

// shipped keeps rec, a shipped change the backup applied, in its
// transaction's state, making the state on the transaction's first record.
// An original pushes its undo entry, with copies of its key and before
// image and whether that image is field-compressed (a shipped UPDATE's
// is). A compensation pops the newest entry: the primary undoes in
// reverse, so what a compensation took back is the newest change not yet
// taken back. Promotion and a later ABORT roll back what is left.
func (d *DP) shipped(rec *wal.Record) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.txs[rec.TxID]
	if t == nil {
		t = d.freeTx.take()
		d.txs[rec.TxID] = t
	}
	t.joined = true
	if rec.Compensation {
		if n := len(t.undo); n > 0 {
			t.undo[n-1] = undoRec{}
			t.undo = t.undo[:n-1]
		}
		return
	}
	t.undo = append(t.undo, undoRec{file: rec.File, kind: rec.Type, key: t.keep(rec.Key),
		before: t.keep(rec.Before), compressed: rec.FieldCompressed})
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
// transaction in its table. A prepared one stays in doubt: its exclusive
// locks are re-acquired, so new traffic cannot read uncommitted state,
// and the coordinator's phase-2 COMMIT or ABORT resolves it. Every other
// one is rolled back (rollback), its compensations and abort record
// audited to the backup's own trail so its recovery repeats this history,
// and its ended state stays in the table, fenced: the primary never
// acknowledged it, so a re-driven COMMIT is refused rather than falsely
// acknowledged, and nothing new may join it (DP.enter, prepare). After
// promote the DP serves as an ordinary primary.
//
// A pass failure leaves promoted unset and returns the error: a retried
// KPromote re-runs both passes rather than reporting success while
// transactions remain unresolved. The re-run is idempotent — relocks
// re-grant to the same transaction, a fenced state is passed over, and
// rollback drops each undo entry once it is compensated.
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

	// Only the stream touched these states, and it is halted: they are
	// read and rolled back outside d.mu, as an ended primary state is.
	type inflight struct {
		tx uint64
		t  *txState
	}
	var indoubt, losers []inflight
	d.mu.Lock()
	for tx, t := range d.txs {
		switch {
		case t.fenced:
		case t.prepared:
			indoubt = append(indoubt, inflight{tx, t})
		default:
			losers = append(losers, inflight{tx, t})
		}
	}
	d.mu.Unlock()

	// In-doubt pass: the locks are uncontended (the backup held none), so
	// re-acquisition cannot block.
	for _, x := range indoubt {
		for _, u := range x.t.undo {
			if err := d.locks.LockRecord(x.tx, u.file, u.key, lock.Exclusive); err != nil {
				return errReply(fmt.Errorf("dp %s: promote relock tx %d: %w", d.cfg.Name, x.tx, err))
			}
		}
	}

	// Loser pass.
	var rec wal.Record
	for _, x := range losers {
		if err := d.rollback(&rec, x.tx, x.t, fault.TakeoverPromote); err != nil {
			return errReply(fmt.Errorf("dp %s: promote undo tx %d: %w", d.cfg.Name, x.tx, err))
		}
		d.mu.Lock()
		x.t.ended, x.t.fenced, x.t.joined = true, true, false // an ABORT frees it, auditing nothing
		d.mu.Unlock()
		rep.fencedTotal++
	}
	rep.promoted = true
	return &fsdp.Reply{Count: uint32(len(losers))}
}

// errFenced refuses a message of a transaction promotion fenced.
func (d *DP) errFenced(tx uint64) *fsdp.Reply {
	return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: tx %d fenced by takeover", d.cfg.Name, tx)}
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
	if rep.promoted {
		d.mu.Lock()
		for _, t := range d.txs {
			if t.prepared {
				indoubt++
			}
		}
		d.mu.Unlock()
	}
	return rep.batches, rep.records, rep.promoted, indoubt, rep.fencedTotal
}
