package dp

import (
	"fmt"
	"sort"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// BulkLoad fills an empty file with rows (any order; sorted here),
// producing physically contiguous leaves, and flushes them to disk. It
// models a freshly loaded key-sequenced file — the load itself is not
// audited (as with a utility load followed by an online dump).
func (d *DP) BulkLoad(file string, rows []record.Row) error {
	f, err := d.getFile(file)
	if err != nil {
		return err
	}
	kvs := make([]btree.KV, len(rows))
	for i, row := range rows {
		f.schema.Coerce(row)
		if err := f.schema.Validate(row); err != nil {
			return fmt.Errorf("dp %s: bulk load row %d: %w", d.cfg.Name, i, err)
		}
		kvs[i] = btree.KV{Key: f.schema.Key(row), Val: record.Encode(row)}
	}
	sort.Slice(kvs, func(i, j int) bool { return keys.Compare(kvs[i].Key, kvs[j].Key) < 0 })
	if err := f.tree.BulkLoad(kvs, 0); err != nil {
		return err
	}
	return d.pool.FlushAll()
}
