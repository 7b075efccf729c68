package fs

import (
	"bytes"
	"math"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// UpdateSubset applies SET expressions to every record in the range
// satisfying pred.
//
// Fast path (the paper's contribution): when no assigned column is
// indexed or part of the primary key, the whole operation is
// subcontracted to each partition's Disk Process as
// UPDATE^SUBSET^FIRST/NEXT — predicate, expressions, and CHECK all
// evaluate at the data source and no record crosses the interface.
//
// Fallback: assignments touching indexed/key columns run requester-side
// (scan + per-record update with index maintenance), since index
// fragments live on other Disk Processes that this one cannot reach.
// On that path the ScanStats are empty (the per-record updates are point
// operations accounted in the network's global counters).
func (f *FS) UpdateSubset(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr, assigns []expr.Assignment) (int, ScanStats, error) {
	if def.AssignsTouchIndexes(assigns) {
		n, err := f.updateSubsetRequesterSide(tx, def, rng, pred, assigns)
		return n, ScanStats{}, err
	}
	return f.counted(tx, def, rng, f.subsetDOP(), "UPDATE^SUBSET^FIRST/NEXT", fsdp.Request{
		Kind: fsdp.KUpdateSubsetFirst,
		Pred: expr.Encode(pred), Assign: expr.EncodeAssignments(assigns),
	})
}

// subsetDOP is the fan-out of a pushed-down subset update or delete: the
// FS scan DOP, or every partition at once when none is set.
func (f *FS) subsetDOP() int {
	if f.scanDOP < 1 {
		return math.MaxInt
	}
	return f.scanDOP
}

// updateSubsetRequesterSide scans qualifying rows (still filtered at the
// DP via VSBB), then updates each with full index maintenance. The scan
// completes before any update applies, avoiding the Halloween problem
// when assignments move records within the scanned key order.
func (f *FS) updateSubsetRequesterSide(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr, assigns []expr.Assignment) (int, error) {
	rows := f.Select(tx, def, SelectSpec{Mode: ModeVSBB, Range: rng, Pred: pred, Exclusive: true})
	type hit struct {
		key []byte
		row record.Row
	}
	var hits []hit
	for {
		row, key, ok := rows.Next()
		if !ok {
			break
		}
		hits = append(hits, hit{key: key, row: row})
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	n := 0
	for _, h := range hits {
		newRow, err := expr.ApplyAssignments(h.row, assigns)
		if err != nil {
			return n, err
		}
		def.Schema.Coerce(newRow)
		newKey := def.Schema.Key(newRow)
		if bytes.Equal(newKey, h.key) {
			err = f.Update(tx, def, h.key, newRow)
		} else {
			// Primary key changed: a delete+insert pair.
			if err = f.Delete(tx, def, h.key); err == nil {
				err = f.Insert(nil, tx, def, newRow)
			}
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// DeleteSubset deletes every record in the range satisfying pred, with
// the same pushdown/fallback split as UpdateSubset: files without
// secondary indexes delete entirely at the Disk Process.
func (f *FS) DeleteSubset(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr) (int, ScanStats, error) {
	if len(def.Indexes) > 0 {
		n, err := f.deleteSubsetRequesterSide(tx, def, rng, pred)
		return n, ScanStats{}, err
	}
	return f.counted(tx, def, rng, f.subsetDOP(), "DELETE^SUBSET^FIRST/NEXT",
		fsdp.Request{Kind: fsdp.KDeleteSubsetFirst, Pred: expr.Encode(pred)})
}

func (f *FS) deleteSubsetRequesterSide(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr) (int, error) {
	rows := f.Select(tx, def, SelectSpec{Mode: ModeVSBB, Range: rng, Pred: pred, Exclusive: true})
	var keysToDelete [][]byte
	for {
		_, key, ok := rows.Next()
		if !ok {
			break
		}
		keysToDelete = append(keysToDelete, key)
	}
	if err := rows.Err(); err != nil {
		return 0, err
	}
	n := 0
	for _, key := range keysToDelete {
		if err := f.Delete(tx, def, key); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
