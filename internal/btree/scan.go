package btree

import (
	"fmt"
	"sync"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/wal"
)

// AppendLeafRun appends, in key order, the block numbers of every leaf whose
// key span may intersect r. It walks only interior pages — this is the
// Disk Process's "advance knowledge of the required key span": the list
// feeds bulk reads and asynchronous pre-fetch before any leaf is read.
//
// Each interior page is latched only while being decoded, so the run is
// advisory under concurrency: a leaf may split or collapse before the
// pre-fetch lands. That is harmless — interior pages are never freed,
// collapsed leaf blocks are never re-allocated, and the latched chain
// scan (Scan) is what provides the consistent view.
//
// A Disk Process plans a conversation's leaves into its Subset Control
// Block's list, so the run is appended to dst.
func (t *Tree) AppendLeafRun(dst []disk.BlockNum, r keys.Range) ([]disk.BlockNum, error) {
	t.lt.opEnter()
	defer t.lt.opExit()
	return t.leafRun(dst, t.root, r)
}

func (t *Tree) leafRun(dst []disk.BlockNum, bn disk.BlockNum, r keys.Range) ([]disk.BlockNum, error) {
	pl := t.lt.acquire(bn, false)
	v, err := t.view(bn, cache.Keyed)
	if err != nil {
		pl.release()
		return dst, err
	}
	if !v.interior() {
		v.release()
		pl.release()
		return append(dst, bn), nil
	}
	// Child i spans [sep_i, sep_{i+1}); sep_0 is -inf. Start at the child
	// covering r.Low — everything left of it lies entirely below the
	// range — and stop at the first child that starts beyond it. Children
	// that are leaves go straight to dst, without being read — the span's
	// leaves stay untouched until bulk I/O or pre-fetch brings them in;
	// interior children are visited once this page's latch is let go.
	level := v.level()
	kids := dst
	if level > 1 {
		kids = make([]disk.BlockNum, 0, 64)
	}
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
	v.release()
	pl.release()
	if level == 1 {
		return kids, nil
	}
	for _, kid := range kids {
		if dst, err = t.leafRun(dst, kid, r); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// ScanFunc receives each record in key order. Returning false stops the
// scan early. The callback runs under a shared leaf latch and must not
// re-enter the tree.
//
// key and val are BORROWED: they are sub-slices of the leaf where it
// lies in its cache buffer, which the scan keeps pinned and latched for
// the duration of the call. They are valid until the callback returns
// and must never be retained, appended to or written through; a callback
// that keeps a record (a reply row, a collected key) copies it.
type ScanFunc func(key, val []byte) (bool, error)

// A Run is what a scan hands its consumer in one call: the records of one
// pinned leaf that lie in the scan's range, in key order, numbered from 0
// to Len()-1. Everything it hands out is BORROWED, as ScanFunc's key and
// val are: sub-slices of the leaf where it lies in its cache buffer, and
// of the leaf's sidecar beside it (its record table and its scan part),
// valid until the RunFunc returns — the leaf's latch and pin are held
// exactly that long. Whatever must outlive the call (a reply row, a key a
// lock or a re-drive names) is copied before it returns; nothing is
// written through them.
//
// A Run is a few slice headers and a pointer and is passed by value, so
// handing one over allocates nothing.
type Run struct {
	page  []byte   // the leaf's bytes
	cells []uint16 // record j's cell starts at cells[j] and ends at cells[j+1]
	// A file of records (ScanRecords) also lends its record table:
	// record j's field starts, then its length, are
	// table[index[j]:index[j+1]]. A plain Scan leaves both nil.
	index []uint16
	table []uint16
	// ix is the leaf's sidecar when it has a scan part (cache.LeafScan),
	// whose columns hold the leaf's records from cell 0, the run's from
	// cell first; last is its copy of the leaf's last key when the run
	// reaches the leaf's end.
	ix    *cache.PageIndex
	first int
	last  []byte
}

// RunFunc receives each pinned leaf's part of the range, in key order.
// Returning false stops the scan. Like ScanFunc it runs under a shared
// leaf latch and must not re-enter the tree.
type RunFunc func(run Run) (more bool, err error)

// Len returns the number of records in the run.
func (r *Run) Len() int { return len(r.cells) - 1 }

// Cell returns record j's key and value, reading both length prefixes.
func (r *Run) Cell(j int) (key, val []byte) { return cellAt(r.page, int(r.cells[j])) }

// Record returns record j of a file of records and its field starts —
// then its length — as the file's walk found them: the record has been
// validated whole. The starts may be a slice of the leaf's record table,
// which every scanner of the leaf shares: they are read and never written
// or appended to (record.View.Point borrows them as they are). The key
// is not looked at: the value ends where the cell does, and the starts
// say how long it is.
func (r *Run) Record(j int) (val []byte, starts []uint16) {
	from, to := r.index[j], r.index[j+1]
	starts = r.table[from:to:to]
	end := int(r.cells[j+1])
	return r.page[end-int(starts[len(starts)-1]) : end : end], starts
}

// Key returns record j's key, for a file of records: the record table
// gives the value's length, so neither length prefix is decoded — a
// prefix is one byte below 128 and two above. The leaf's last key is read
// from the sidecar's copy when there is one.
func (r *Run) Key(j int) []byte {
	if r.last != nil && j == len(r.cells)-2 {
		return r.last
	}
	start, end := int(r.cells[j]), int(r.cells[j+1])
	valLen := int(r.table[r.index[j+1]-1])
	keyAt, keyEnd := start+1, end-valLen-1
	if r.page[start] >= 0x80 {
		keyAt++
	}
	if valLen >= 0x80 {
		keyEnd--
	}
	return r.page[keyAt:keyEnd:keyEnd]
}

// A FieldDecode reads field f of a record whose field starts, then its
// length, are starts (a RecordWalk's) as a column entry: its type and
// eight bytes of value, or ok false when a column cannot hold the field
// (record.NumericField).
type FieldDecode func(val []byte, starts []uint16, f int) (kind uint8, bits uint64, ok bool)

// Column returns field f of the run's records as a column — record j's
// entry is kinds[j], vals[j] — or ok false when the run's leaf has no
// scan part (cache.LeafScan) or the field is not a column in it: some
// record of the leaf lacks it, or holds a value dec refuses. The first
// scan to ask builds the column for the whole leaf with dec and publishes
// it on the scan part, where it lives as long as the record table does;
// two scanners under the shared latch may both build it, identically.
// The slices are borrowed like everything else a run lends, and shared
// with every scanner of the leaf: they are read and never written.
func (r *Run) Column(f int, dec FieldDecode) (kinds []uint8, vals []uint64, ok bool) {
	if r.ix == nil || uint(f) >= uint(len(r.ix.Scan.Cols)) {
		return nil, nil, false
	}
	at := &r.ix.Scan.Cols[f]
	c := at.Load()
	if c == nil {
		c = buildColumn(r.page, r.ix, f, dec)
		at.Store(c)
	}
	if c.Kinds == nil {
		return nil, nil, false
	}
	end := r.first + r.Len()
	return c.Kinds[r.first:end:end], c.Vals[r.first:end:end], true
}

// Scan visits every record in r, in key order. When prefetch is true the
// leaf blocks covering the span are loaded ahead asynchronously with
// bulk I/O (Prefetch); otherwise leaves are demand-read one block at a
// time. It is a loop over the runs the one scan loop hands over.
func (t *Tree) Scan(r keys.Range, prefetch bool, fn ScanFunc) error {
	if prefetch {
		if _, _, err := t.Prefetch(nil, r, cache.Keyed); err != nil {
			return err
		}
	}
	return t.scan(r, cache.Keyed, nil, func(run Run) (bool, error) {
		for j := range run.Len() {
			if more, err := fn(run.Cell(j)); err != nil || !more {
				return false, err
			}
		}
		return true, nil
	})
}

// Prefetch plans the leaves whose key span may intersect r (AppendLeafRun) and
// has the pool load them ahead asynchronously, with bulk I/O, in the
// given access class, planning them into plan[:0], which it returns. It
// reports whether the pool took the request (cache.Pool.Prefetch): the
// Disk Process plans a subset's leaves once per conversation, into its
// Subset Control Block's list, and again only when the pool dropped the
// plan.
func (t *Tree) Prefetch(plan []disk.BlockNum, r keys.Range, class cache.AccessClass) ([]disk.BlockNum, bool, error) {
	plan, err := t.AppendLeafRun(plan[:0], r)
	if err != nil {
		return plan, false, err
	}
	return plan, t.pool.Prefetch(plan, class), nil
}

// ScanRecords is Scan over a file of records (HoldsRecords), handing each
// leaf's part of the range to fn as a Run that lends the records' field
// starts, with an explicit cache access class for the leaf level. The
// Disk Process passes Sequential for full-subset scans (per its Subset
// Control Block) so the leaf stream recycles through the pool's probation
// segment; interior pages are still read Keyed — they are the index hot
// set every access shares.
//
// A record is walked once per version of its leaf's bytes, not once per
// visit. A run of more than one record lends the leaf's record table,
// building it first if this version of the leaf has none: every record's
// field starts, kept beside the cell offset table in the cache slot
// (cache.PageIndex.Recs) and dropped with it. A run of one record — a
// keyed UPDATE's point range — lends the table if it is there and
// otherwise walks just that record, so a one-record subset never pays for
// the whole leaf. A record that fails its walk fails the scan with
// ErrCorruptPage: while building a table, naming the file, the block and
// the cell; alone, in the walk's own words. A lone record is walked into
// scratch the scan borrows from a pool for its duration, so a caller
// scanning point after point (a block of index-join probes) allocates
// nothing per point.
func (t *Tree) ScanRecords(r keys.Range, class cache.AccessClass, fn RunFunc) error {
	if t.walk == nil {
		return fmt.Errorf("btree: %s does not hold records", t.name)
	}
	one := loneStarts.Get().(*[]uint16)
	err := t.scan(r, class, one, fn)
	loneStarts.Put(one)
	return err
}

// loneStarts is the scratch ScanRecords walks a record into when its leaf
// has no record table: a one-record table, [2, 2+n] and then the n starts.
// The run lends it like a leaf's table, so it is free again once the scan
// returns.
var loneStarts = sync.Pool{New: func() any { return new([]uint16) }}

// scan is the one scan loop. It crabs shared latches down to the leaf
// covering r.Low, then walks the leaf level through the right-sibling
// links, acquiring the next leaf's latch before releasing the current
// one, and hands fn each leaf's part of the range as one Run. It holds at
// most two leaf latches at any instant, so a long range scan never blocks
// writers elsewhere in the tree. one is ScanRecords' scratch: non-nil, the
// runs lend record starts.
func (t *Tree) scan(r keys.Range, class cache.AccessClass, one *[]uint16, fn RunFunc) error {
	t.lt.opEnter()
	defer t.lt.opExit()
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
		// hand over what lies between without comparing per record.
		i, end, last := 0, v.n(), false
		if low != nil {
			var exact bool
			if i, exact = v.find(low); exact && r.LowExcl {
				i++
			}
			low = nil
		}
		if r.High != nil && end > 0 && r.AfterHigh(v.lastKey()) {
			var exact bool
			if end, exact = v.find(r.High); exact && r.HighIncl {
				end++
			}
			last = true
		}
		more := true
		if i < end {
			run := Run{page: v.buf, cells: v.ix.Offs[i : end+1]}
			if one != nil {
				err = t.lendStarts(&v, &run, i, end, one)
			}
			if err == nil {
				more, err = fn(run)
			}
		}
		next := v.next()
		v.release()
		if err != nil || !more || last || next == 0 {
			pl.release()
			return err
		}
		npl := t.lt.acquire(next, false)
		pl.release()
		pl, bn = npl, next
	}
}

// lendStarts gives run, cells [i, end) of a leaf of a record file, the
// records' field starts: the leaf's record table, or — one record, no
// table — that record walked alone into one.
func (t *Tree) lendStarts(v *pageView, run *Run, i, end int, one *[]uint16) error {
	recs, err := t.recordTable(v, end-i > 1)
	if err != nil {
		return err
	}
	if recs != nil {
		run.index, run.table = recs[i:end+1], recs
		if sc := v.ix.Scan; sc != nil {
			run.ix, run.first = v.ix, i
			if end == v.n() {
				run.last = sc.LastKey
			}
		}
		return nil
	}
	_, val := v.cell(i)
	s, err := t.walk(val, append((*one)[:0], 0, 0))
	*one = s
	if err != nil {
		return corruptRecord{err}
	}
	s[0], s[1] = 2, uint16(len(s))
	run.index, run.table = s[:2], s
	return nil
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
