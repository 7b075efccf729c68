package btree

import (
	"fmt"
	"sync"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/wal"
)

// LeafRun returns, in key order, the block numbers of every leaf whose
// key span may intersect r. It walks only interior pages — this is the
// Disk Process's "advance knowledge of the required key span": the list
// feeds bulk reads and asynchronous pre-fetch before any leaf is read.
//
// Each interior page is latched only while being decoded, so the run is
// advisory under concurrency: a leaf may split or collapse before the
// pre-fetch lands. That is harmless — interior pages are never freed,
// collapsed leaf blocks are never re-allocated, and the latched chain
// scan (Scan) is what provides the consistent view.
func (t *Tree) LeafRun(r keys.Range) ([]disk.BlockNum, error) {
	t.lt.opEnter()
	defer t.lt.opExit()
	return t.leafRun(t.root, r)
}

func (t *Tree) leafRun(bn disk.BlockNum, r keys.Range) ([]disk.BlockNum, error) {
	pl := t.lt.acquire(bn, false)
	v, err := t.view(bn, cache.Keyed)
	if err != nil {
		pl.release()
		return nil, err
	}
	if !v.interior() {
		v.release()
		pl.release()
		return []disk.BlockNum{bn}, nil
	}
	// Child i spans [sep_i, sep_{i+1}); sep_0 is -inf. Start at the child
	// covering r.Low — everything left of it lies entirely below the
	// range — and stop at the first child that starts beyond it.
	var kids []disk.BlockNum
	i := 0
	if r.Low != nil {
		i = v.childIndex(r.Low)
	}
	for n := v.n(); i < n; i++ {
		if sep := v.key(i); len(sep) != 0 && r.AfterHigh(sep) {
			break
		}
		kids = append(kids, v.child(i))
	}
	level := v.level()
	v.release()
	pl.release()
	if level == 1 {
		// Children are leaves: emit block numbers without reading them —
		// the span's leaves stay untouched until bulk I/O or pre-fetch
		// brings them in.
		return kids, nil
	}
	var out []disk.BlockNum
	for _, kid := range kids {
		sub, err := t.leafRun(kid, r)
		if err != nil {
			return nil, err
		}
		out = append(out, sub...)
	}
	return out, nil
}

// ScanFunc receives each record in key order. Returning false stops the
// scan early (e.g. the re-drive limits of a set-oriented request). The
// callback runs under a shared leaf latch and must not re-enter the
// tree.
//
// key and val are BORROWED: they are sub-slices of the leaf where it
// lies in its cache buffer, which the scan keeps pinned and latched for
// the duration of the call. They are valid until the callback returns
// and must never be retained, appended to or written through; a callback
// that keeps a record (a reply row, a collected key) copies it.
type ScanFunc func(key, val []byte) (bool, error)

// RecordFunc is ScanFunc for a file of records (HoldsRecords). starts
// are val's field starts and then len(val), as the file's walk found
// them since the leaf's bytes last changed: the record has been validated
// whole before the callback sees it. starts are borrowed for the
// callback's lifetime, like key and val, and more strictly still: they
// may be a slice of the leaf's record table, which every scanner of the
// leaf shares, so they are read and never written or appended to.
// record.View.Point borrows them as they are, and a View pointed at them
// is not read after the callback returns.
type RecordFunc func(key, val []byte, starts []uint16) (bool, error)

// Scan visits every record in r, in key order. When prefetch is true the
// leaf blocks covering the span are loaded ahead asynchronously with
// bulk I/O; otherwise leaves are demand-read one block at a time.
//
// The scan crabs shared latches down to the leaf covering r.Low, then
// walks the leaf level through the right-sibling links, acquiring the
// next leaf's latch before releasing the current one. It holds at most
// two leaf latches at any instant, so a long range scan never blocks
// writers elsewhere in the tree.
func (t *Tree) Scan(r keys.Range, prefetch bool, fn ScanFunc) error {
	return t.scan(r, prefetch, cache.Keyed, fn, nil, nil)
}

// ScanRecords is Scan over a file of records, handing each record to fn
// with its field starts, and with an explicit cache access class for the
// leaf level. The Disk Process passes Sequential for full-subset scans
// (per its Subset Control Block) so the leaf stream recycles through the
// pool's probation segment; interior pages are still read Keyed — they
// are the index hot set every access shares.
//
// A record is walked once per version of its leaf's bytes, not once per
// visit. A visit that covers more than one of a leaf's records uses the
// leaf's record table, building it first if this version of the leaf has
// none: every record's field starts, kept beside the cell offset table in
// the cache slot (cache.PageIndex.Recs) and dropped with it. A visit that
// covers one record — a keyed UPDATE's point range — uses the table if it
// is there and otherwise walks just that record, so a one-record subset
// never pays for the whole leaf. A record that fails its walk fails the
// scan with ErrCorruptPage: while building a table, naming the file, the
// block and the cell; alone, in the walk's own words. A lone record is
// walked into scratch the scan borrows from a pool for its duration, so a
// caller scanning point after point (a block of index-join probes)
// allocates nothing per point.
func (t *Tree) ScanRecords(r keys.Range, prefetch bool, class cache.AccessClass, fn RecordFunc) error {
	if t.walk == nil {
		return fmt.Errorf("btree: %s does not hold records", t.name)
	}
	one := loneStarts.Get().(*[]uint16)
	err := t.scan(r, prefetch, class, nil, fn, one)
	loneStarts.Put(one)
	return err
}

// loneStarts is the scratch ScanRecords walks a record into when its leaf
// has no record table. The starts are handed to the callback, which only
// borrows them (RecordFunc), so the scratch is free again once the scan
// returns.
var loneStarts = sync.Pool{New: func() any { return new([]uint16) }}

// scan is the one scan loop: Scan passes fn, ScanRecords rfn and the
// scratch a lone record's starts are walked into.
func (t *Tree) scan(r keys.Range, prefetch bool, class cache.AccessClass, fn ScanFunc, rfn RecordFunc, one *[]uint16) error {
	t.lt.opEnter()
	defer t.lt.opExit()
	if prefetch {
		leaves, err := t.leafRun(t.root, r)
		if err != nil {
			return err
		}
		t.pool.Prefetch(leaves, class)
	}
	_, pl, v, err := t.descend(r.Low, latchShared, class)
	if err != nil {
		return err
	}
	// The descent's look at the first leaf ends here and the loop takes
	// its own, like every later leaf's: one view is one counted cache
	// access, and that count travels in replies.
	bn := v.bn()
	v.release()
	low := r.Low
	for {
		v, err := t.view(bn, class)
		if err != nil {
			pl.release()
			return err
		}
		// Only the first leaf can hold records below the range and only
		// the last can hold records above it: search for both edges and
		// visit what lies between without comparing per record.
		i, end, last := 0, v.n(), false
		if low != nil {
			var exact bool
			if i, exact = v.find(low); exact && r.LowExcl {
				i++
			}
			low = nil
		}
		if r.High != nil && end > 0 && r.AfterHigh(v.key(end-1)) {
			var exact bool
			if end, exact = v.find(r.High); exact && r.HighIncl {
				end++
			}
			last = true
		}
		var recs []uint16
		if rfn != nil {
			if recs, err = t.recordTable(&v, end-i > 1); err != nil {
				v.release()
				pl.release()
				return err
			}
		}
		for ; i < end; i++ {
			var cont bool
			switch {
			case rfn == nil:
				key, val := v.cell(i)
				cont, err = fn(key, val)
			case recs != nil:
				from, to := recs[i], recs[i+1]
				starts := recs[from:to:to]
				key, val := v.cellSized(i, int(starts[len(starts)-1]))
				cont, err = rfn(key, val, starts)
			default:
				key, val := v.cell(i)
				if *one, err = t.walk(val, (*one)[:0]); err != nil {
					err = corruptRecord{err}
				} else {
					cont, err = rfn(key, val, *one)
				}
			}
			if err != nil || !cont {
				v.release()
				pl.release()
				return err
			}
		}
		next := v.next()
		v.release()
		if last || next == 0 {
			pl.release()
			return nil
		}
		npl := t.lt.acquire(next, false)
		pl.release()
		pl, bn = npl, next
	}
}

// Count returns the number of records in r.
func (t *Tree) Count(r keys.Range) (int, error) {
	n := 0
	err := t.Scan(r, false, func(_, _ []byte) (bool, error) {
		n++
		return true, nil
	})
	return n, err
}

// BulkLoad fills an EMPTY tree from records already sorted by key. The
// leaves are allocated as one physically contiguous run so later range
// scans can use maximal bulk I/Os — this models a freshly loaded
// key-sequenced file whose physical clustering has not yet been broken
// by splits. The root is held exclusively for the whole load; callers
// must not run BulkLoad concurrently with operations already below the
// root (the Disk Process only bulk-loads quiesced files).
func (t *Tree) BulkLoad(recs []KV, lsn wal.LSN) error {
	t.lt.opEnter()
	defer t.lt.opExit()
	pl := t.lt.acquire(t.root, true)
	defer pl.release()

	if n, _ := t.countFrom(t.root); n != 0 {
		return fmt.Errorf("btree: BulkLoad into non-empty file %s", t.name)
	}
	for i := 1; i < len(recs); i++ {
		if keys.Compare(recs[i-1].Key, recs[i].Key) >= 0 {
			return fmt.Errorf("btree: BulkLoad input not strictly sorted at %d", i)
		}
	}
	if len(recs) == 0 {
		return nil
	}

	// Pack leaves.
	var leafCells [][]cell
	var cur []cell
	sz := 0
	for _, r := range recs {
		c := cell{key: r.Key, val: r.Val}
		csz := cellsSize([]cell{c})
		if csz > usable {
			return fmt.Errorf("btree: record larger than a block (%d bytes)", csz)
		}
		if sz+csz > bulkFill && len(cur) > 0 {
			leafCells = append(leafCells, cur)
			cur, sz = nil, 0
		}
		cur = append(cur, c)
		sz += csz
	}
	leafCells = append(leafCells, cur)

	if len(leafCells) == 1 {
		return t.storePage(t.root, pageLeaf, 0, 0, leafCells[0], lsn)
	}

	// Contiguous leaf run, chained left to right through the sibling
	// links.
	start := t.vol.AllocateRun(len(leafCells))
	entries := make([]cell, len(leafCells)) // separators for the level above
	for i, cs := range leafCells {
		bn := start + disk.BlockNum(i)
		next := disk.BlockNum(0)
		if i+1 < len(leafCells) {
			next = bn + 1
		}
		// One-pass leaf stream: fill through the probation segment so a
		// bulk load doesn't evict the keyed hot set.
		if err := t.storePageClass(bn, pageLeaf, 0, next, cs, lsn, cache.Sequential); err != nil {
			return err
		}
		var sep []byte
		if i > 0 {
			sep = cs[0].key
		}
		entries[i] = childCell(sep, bn)
	}

	// Build interior levels until one page holds everything, then place
	// that page's cells into the fixed root.
	level := byte(1)
	for cellsSize(entries) > usable {
		var nextLevel []cell
		var group []cell
		gsz := 0
		for _, e := range entries {
			esz := cellsSize([]cell{e})
			if gsz+esz > bulkFill && len(group) > 0 {
				nextLevel = append(nextLevel, t.writeInterior(group, level, lsn))
				group, gsz = nil, 0
			}
			group = append(group, e)
			gsz += esz
		}
		nextLevel = append(nextLevel, t.writeInterior(group, level, lsn))
		entries = nextLevel
		level++
	}
	return t.storePage(t.root, pageInterior, level, 0, entries, lsn)
}

// writeInterior materializes one interior page over group and returns
// the parent cell referencing it. The page's own first separator becomes
// -inf; the parent keeps the original first separator.
func (t *Tree) writeInterior(group []cell, level byte, lsn wal.LSN) cell {
	bn := t.vol.Allocate()
	sep := group[0].key
	local := append([]cell{childCell(nil, childOf(group[0]))}, group[1:]...)
	if err := t.storePage(bn, pageInterior, level, 0, local, lsn); err != nil {
		panic(fmt.Sprintf("btree: interior alloc: %v", err))
	}
	return childCell(sep, bn)
}

// KV is one key/record pair for BulkLoad.
type KV struct {
	Key []byte
	Val []byte
}

// countFrom counts all records under bn without latching (used to guard
// BulkLoad while the root is held exclusively).
func (t *Tree) countFrom(bn disk.BlockNum) (int, error) {
	v, err := t.view(bn, cache.Keyed)
	if err != nil {
		return 0, err
	}
	if !v.interior() {
		n := v.n()
		v.release()
		return n, nil
	}
	kids := make([]disk.BlockNum, v.n())
	for i := range kids {
		kids[i] = v.child(i)
	}
	v.release()
	n := 0
	for _, kid := range kids {
		sub, err := t.countFrom(kid)
		if err != nil {
			return 0, err
		}
		n += sub
	}
	return n, nil
}
