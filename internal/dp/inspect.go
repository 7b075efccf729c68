package dp

import (
	"fmt"
	"sort"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// FileMeta describes one attached file fragment: everything a fresh DP
// needs to re-attach the file after a crash (root blocks never move, so
// the meta recorded at create time stays valid for the life of the
// file).
type FileMeta struct {
	Name       string
	Schema     *record.Schema
	Check      expr.Expr
	Root       disk.BlockNum
	FieldAudit bool
}

// Files returns the metadata of every attached file, sorted by name.
func (d *DP) Files() []FileMeta {
	d.filesMu.RLock()
	defer d.filesMu.RUnlock()
	out := make([]FileMeta, 0, len(d.files))
	for name, f := range d.files {
		out = append(out, FileMeta{
			Name:       name,
			Schema:     f.schema,
			Check:      f.check,
			Root:       f.tree.Root(),
			FieldAudit: f.fieldAudit,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Volume exposes the managed volume (recovery tests clone it).
func (d *DP) Volume() disk.BlockDev { return d.cfg.Volume }

// Open counts what a Disk Process holds for work in progress: the
// transaction states, Subset Control Blocks and service slots taken from
// its free lists and not given back, the locks held, and the page-latch
// table entries held or awaited. A Disk Process at rest holds none of
// them, and neither does one just recovered.
type Open struct{ Txns, SCBs, Slots, Locks, Latches int }

// OpenState reports what the Disk Process holds (Open).
func (d *DP) OpenState() Open {
	o := Open{Locks: d.locks.Held(), Latches: d.latches.Live()}
	d.mu.Lock()
	o.Txns, o.SCBs = d.freeTx.out, d.freeSCB.out
	d.mu.Unlock()
	d.slotMu.Lock()
	o.Slots = d.freeSlot.out
	d.slotMu.Unlock()
	return o
}

// ValidateFiles checks the structural invariants of every attached
// file's B-tree (page types, key order, separator bounds, sibling
// chain).
func (d *DP) ValidateFiles() error {
	for _, m := range d.Files() {
		f, err := d.getFile(m.Name)
		if err != nil {
			return err
		}
		if err := f.tree.Validate(); err != nil {
			return fmt.Errorf("dp %s: file %q: %w", d.cfg.Name, m.Name, err)
		}
	}
	return nil
}

// DumpFile decodes every record of the named file in key order — the
// recovery invariant checker compares this against its expected replay.
func (d *DP) DumpFile(name string) ([]record.Row, error) {
	f, err := d.getFile(name)
	if err != nil {
		return nil, err
	}
	var rows []record.Row
	err = f.tree.Scan(keys.All(), false, func(key, val []byte) (bool, error) {
		row, derr := record.Decode(val)
		if derr != nil {
			return false, derr
		}
		rows = append(rows, row)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
