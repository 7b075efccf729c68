package btree

import (
	"bytes"
	"fmt"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
)

// Reset rewrites the file as empty: the root block (which never moves)
// becomes a fresh leaf with no cells and no sibling. Recovery uses this
// before replaying the audit trail, abandoning whatever pages the old
// tree reached — the crash may have left them arbitrarily half-flushed.
func (t *Tree) Reset() error {
	t.lt.opEnter()
	defer t.lt.opExit()
	pl := t.lt.acquire(t.root, true)
	defer pl.release()
	return t.storePage(t.root, pageLeaf, 0, 0, nil, 0)
}

// Validate walks the whole tree and checks its structural invariants:
//
//   - every page is a well-formed leaf or interior page within the
//     usable size, with strictly ascending keys;
//   - interior pages are non-empty, their children sit one level below,
//     and each subtree's keys respect the separator bounds;
//   - the leaf level's right-sibling chain visits exactly the leaves,
//     in key order, ending at 0.
//
// The recovery torture test runs it on a quiesced Disk Process after
// every crash+recover; any violation means a structure change was lost
// or torn in a way recovery failed to mask.
func (t *Tree) Validate() error {
	var leaves []disk.BlockNum
	var chain []disk.BlockNum
	if err := t.validatePage(t.root, -1, nil, nil, &leaves); err != nil {
		return err
	}
	// Walk the sibling chain from the leftmost leaf.
	if len(leaves) > 0 {
		for bn := leaves[0]; bn != 0; {
			if len(chain) > len(leaves) {
				return fmt.Errorf("btree %s: leaf chain longer than the leaf level (cycle?)", t.name)
			}
			chain = append(chain, bn)
			v, err := t.view(bn, cache.Keyed)
			if err != nil {
				return fmt.Errorf("btree %s: leaf chain read of %d: %w", t.name, bn, err)
			}
			bn = v.next()
			v.release()
		}
		if len(chain) != len(leaves) {
			return fmt.Errorf("btree %s: leaf chain has %d pages, leaf level has %d", t.name, len(chain), len(leaves))
		}
		for i := range leaves {
			if chain[i] != leaves[i] {
				return fmt.Errorf("btree %s: leaf chain diverges at position %d: chain %d, tree order %d", t.name, i, chain[i], leaves[i])
			}
		}
	}
	return nil
}

// validatePage checks one page and recurses. wantLevel is -1 for the
// root (any level); lo/hi bound the keys allowed in this subtree
// (inclusive/exclusive, nil = unbounded). Leaves are appended to
// *leaves in left-to-right order.
func (t *Tree) validatePage(bn disk.BlockNum, wantLevel int, lo, hi []byte, leaves *[]disk.BlockNum) error {
	// Cells are copied out: the recursion below carries separator keys
	// down as bounds, and must not hold a pin per level while it does.
	typ, level, _, cells, err := t.readCells(bn)
	if err != nil {
		return fmt.Errorf("btree %s: page %d: %w", t.name, bn, err)
	}
	if typ != pageLeaf && typ != pageInterior {
		return fmt.Errorf("btree %s: page %d has type %d", t.name, bn, typ)
	}
	if wantLevel >= 0 && int(level) != wantLevel {
		return fmt.Errorf("btree %s: page %d at level %d, want %d", t.name, bn, level, wantLevel)
	}
	if typ == pageLeaf && level != 0 {
		return fmt.Errorf("btree %s: leaf %d claims level %d", t.name, bn, level)
	}
	if typ == pageInterior && level == 0 {
		return fmt.Errorf("btree %s: interior page %d at leaf level", t.name, bn)
	}
	// Keys strictly ascending. The first cell of an interior page is the
	// leftmost child's empty separator; real comparisons start at cell 1.
	firstOrdered := 0
	if typ == pageInterior {
		firstOrdered = 1
	}
	for i := firstOrdered + 1; i < len(cells); i++ {
		if bytes.Compare(cells[i-1].key, cells[i].key) >= 0 {
			return fmt.Errorf("btree %s: page %d keys out of order at cell %d", t.name, bn, i)
		}
	}
	if typ == pageLeaf {
		for _, c := range cells {
			if lo != nil && bytes.Compare(c.key, lo) < 0 {
				return fmt.Errorf("btree %s: leaf %d key below its subtree bound", t.name, bn)
			}
			if hi != nil && bytes.Compare(c.key, hi) >= 0 {
				return fmt.Errorf("btree %s: leaf %d key at or above its subtree bound", t.name, bn)
			}
		}
		*leaves = append(*leaves, bn)
		return nil
	}
	if len(cells) == 0 {
		return fmt.Errorf("btree %s: interior page %d is empty", t.name, bn)
	}
	for i, c := range cells {
		if i > 0 {
			if lo != nil && bytes.Compare(c.key, lo) < 0 || hi != nil && bytes.Compare(c.key, hi) >= 0 {
				return fmt.Errorf("btree %s: interior page %d separator %d outside its subtree bounds", t.name, bn, i)
			}
		}
		// Child i covers [sep_i, sep_{i+1}); the leftmost child inherits
		// the subtree's own lower bound (childIndex routes any key below
		// sep_1 to it).
		clo := c.key
		if i == 0 {
			clo = lo
		}
		chi := hi
		if i+1 < len(cells) {
			chi = cells[i+1].key
		}
		if err := t.validatePage(childOf(c), int(level)-1, clo, chi, leaves); err != nil {
			return err
		}
	}
	return nil
}
