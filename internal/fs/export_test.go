package fs

import (
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// SelectAll drains a scan into memory.
func (f *FS) SelectAll(tx *tmf.Tx, def *FileDef, spec SelectSpec) ([]record.Row, error) {
	rows := f.Select(tx, def, spec)
	defer rows.Close()
	var out []record.Row
	for {
		row, _, ok := rows.Next()
		if !ok {
			break
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// IndexSchema returns the record layout of one of the file's indexes
// (available after Create).
func (def *FileDef) IndexSchema(idx *IndexDef) *record.Schema { return idx.schema }
