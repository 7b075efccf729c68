package dp

import (
	"errors"
	"fmt"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// Crash simulates losing this Disk Process's processor: the buffer pool
// vanishes (dirty pages are lost), all transaction state, Subset Control
// Blocks, and locks evaporate — a transaction's as its last message in
// service leaves (DP.end). The volume itself (and the audit trail)
// survive. Call Recover afterwards — the restart after a crash
// (cluster.RestartDP) performs it.
func (d *DP) Crash() {
	d.pool.Crash()
	d.mu.Lock()
	for id, s := range d.scbs {
		d.retireSCB(id, s)
	}
	txs := make([]uint64, 0, len(d.txs))
	for tx := range d.txs {
		txs = append(txs, tx)
	}
	d.mu.Unlock()
	for _, tx := range txs {
		_ = d.end(tx, false, nil) // no rollback, so no error: Recover undoes
	}
}

// Recover rebuilds this volume's state from the durable audit trail:
// every attached file's tree is reset to empty, then redo repeats
// history for every logged operation on this volume in LSN order, then
// in-flight ("loser") transactions — no commit and no abort record —
// are undone from their before-images. records is this volume's trail, in
// its order, plus the commit records of any other trail its transactions
// may have committed on (a coordinator's). Files must be attached
// (AttachFile) before calling.
//
// The reset matters: the on-disk tree image at a crash is an arbitrary
// subset of the cache's dirty pages, so a multi-page structure change
// (split, collapse) can be half on disk — a parent routing into a
// never-written child, or a leaf chain bypassing a reachable page.
// Only the logical record operations are audited, never the structure
// changes, so the image cannot be repaired page-by-page; but the trail
// is never truncated, so replaying the whole history into a fresh tree
// reconstructs the exact committed state regardless of which pages the
// crash caught on disk. Orphaned blocks of the old tree are simply
// abandoned (the simulated volumes are plentiful, as in dropFile).
func (d *DP) Recover(records []*wal.Record) error {
	vol := d.cfg.Volume.Name()
	committed := make(map[uint64]bool)
	aborted := make(map[uint64]bool)
	var mine []*wal.Record
	for _, r := range records {
		switch r.Type {
		case wal.RecCommit:
			committed[r.TxID] = true
		case wal.RecAbort:
			// The abort's compensation records are in the log ahead of
			// this marker; replaying them plus skipping undo is correct.
			// But abort records are written per participant: only THIS
			// volume's marker proves this volume's compensations all
			// made the durable log. A 2PC peer's abort record can be
			// durable while the crash caught our own undo before (or
			// mid-) compensation — then the txn is still a loser here
			// and must be undone from before-images.
			if r.Volume == vol {
				aborted[r.TxID] = true
			}
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			if r.Volume == vol {
				mine = append(mine, r)
			}
		}
	}

	// Reset pass: every attached tree restarts as an empty leaf at its
	// (never-moving) root block.
	d.filesMu.RLock()
	for name, f := range d.files {
		if err := f.tree.Reset(); err != nil {
			d.filesMu.RUnlock()
			return fmt.Errorf("dp %s: reset of %q: %w", d.cfg.Name, name, err)
		}
	}
	d.filesMu.RUnlock()

	// Redo pass: repeat history.
	for _, r := range mine {
		if err := d.redoOne(r); err != nil {
			return fmt.Errorf("dp %s: redo LSN %d: %w", d.cfg.Name, r.LSN, err)
		}
	}

	// Undo pass: losers in reverse LSN order. Compensation records are
	// never undone — they carry no before image, and the forward record
	// they compensate is undone by this same pass.
	for i := len(mine) - 1; i >= 0; i-- {
		r := mine[i]
		if committed[r.TxID] || aborted[r.TxID] || r.Compensation {
			continue
		}
		if err := d.undoOne(r); err != nil {
			return fmt.Errorf("dp %s: undo LSN %d: %w", d.cfg.Name, r.LSN, err)
		}
	}
	return d.pool.FlushAll()
}

func (d *DP) redoOne(r *wal.Record) error {
	f, err := d.getFile(r.File)
	if err != nil {
		// A file dropped after these records were written: skip.
		return nil
	}
	switch r.Type {
	case wal.RecInsert:
		return f.tree.Upsert(r.Key, r.After, r.LSN)
	case wal.RecUpdate:
		if r.FieldCompressed {
			return d.applyFieldImages(f, r.Key, r.After, r.LSN)
		}
		return f.tree.Upsert(r.Key, r.After, r.LSN)
	case wal.RecDelete:
		err := f.tree.Delete(r.Key, r.LSN)
		if errors.Is(err, btree.ErrNotFound) {
			return nil
		}
		return err
	}
	return nil
}

func (d *DP) undoOne(r *wal.Record) error {
	f, err := d.getFile(r.File)
	if err != nil {
		return nil
	}
	switch r.Type {
	case wal.RecInsert:
		err := f.tree.Delete(r.Key, r.LSN)
		if errors.Is(err, btree.ErrNotFound) {
			return nil
		}
		return err
	case wal.RecUpdate:
		if r.FieldCompressed {
			return d.applyFieldImages(f, r.Key, r.Before, r.LSN)
		}
		return f.tree.Upsert(r.Key, r.Before, r.LSN)
	case wal.RecDelete:
		return f.tree.Upsert(r.Key, r.Before, r.LSN)
	}
	return nil
}

// applyFieldImages merges a field-compressed image into the stored row.
func (d *DP) applyFieldImages(f *fileState, key, image []byte, lsn wal.LSN) error {
	cur, err := f.tree.Get(key)
	if err != nil {
		return err
	}
	row, err := record.Decode(cur)
	if err != nil {
		return err
	}
	imgs, err := record.DecodeFieldImages(image)
	if err != nil {
		return err
	}
	if err := record.ApplyFieldImages(row, imgs); err != nil {
		return err
	}
	return f.tree.Update(key, record.Encode(row), lsn)
}
