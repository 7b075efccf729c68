// Package btree implements the record management component's file
// structures, shared by ENSCRIBE and NonStop SQL:
//
//   - key-sequenced files (B+-trees physically clustered by primary key),
//   - relative files (direct access by record number),
//   - entry-sequenced files (direct access for reads, insert at EOF).
//
// Trees live entirely on cache pages so every block touched flows
// through the buffer pool's LRU, WAL gate, pre-fetch, and write-behind
// machinery. The root page never moves (splits push the old root's
// contents down), so a file is identified durably by its root block.
//
// Concurrency uses per-page latches with latch crabbing rather than a
// tree-wide mutex, so one Disk Process group can serve many requesters
// against the same file at once:
//
//   - readers descend root-to-leaf with shared latches, releasing the
//     parent as soon as the child is latched;
//   - writers descend optimistically (shared crabbing, exclusive only
//     on the leaf) and restart with a pessimistic full-path exclusive
//     descent when a split or collapse must propagate;
//   - range scans hold one leaf latch at a time, following right-
//     sibling links with the same hand-over-hand coupling.
//
// Pages are read where they lie in their cache buffers (page.go): a
// descent binary-searches in-page keys through a pinned, latched view
// and copies nothing; a scan hands its consumer each leaf's part of the
// range as one Run of sub-slices of the leaf;
// a leaf-local write splices the leaf's bytes. Only structure changes
// decode a page into a cell list.
//
// Latches order strictly root-to-leaf and left-to-right, so descents,
// chain scans, and collapse repairs can never form a cycle. Disk reads
// for a page happen while holding only that page's latch (the buffer
// pool de-duplicates concurrent loads per slot), so a cache miss on one
// page never stalls operations on unrelated pages.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/wal"
)

const (
	pageLeaf     = 1
	pageInterior = 2

	headerSize = 16
	usable     = disk.BlockSize - headerSize
	// splitFill targets ~half-full pages after a split.
	splitFill = usable / 2
	// bulkFill leaves some slack during bulk load so early inserts do not
	// split immediately.
	bulkFill = (usable * 9) / 10
)

// ErrNotFound reports a missing key.
var ErrNotFound = fmt.Errorf("btree: record not found")

// ErrDuplicate reports an insert of an existing key.
var ErrDuplicate = fmt.Errorf("btree: duplicate record key")

type cell struct {
	key []byte
	val []byte // leaf: record bytes; interior: 4-byte child block
}

// A Tree is one key-sequenced file (or one partition, or one secondary
// index — the Disk Process manages each as a single B-tree).
type Tree struct {
	pool *cache.Pool
	vol  disk.BlockDev
	name string
	root disk.BlockNum
	lt   *Latches
	walk RecordWalk // nil unless the file holds records (HoldsRecords)
}

// A RecordWalk is a record file's validating walk (record.FieldStarts):
// it checks val whole and appends to starts where each of its fields
// starts and, last, len(val).
type RecordWalk func(val []byte, starts []uint16) ([]uint16, error)

// HoldsRecords declares that every value stored in the file is a record
// walk validates, which lets ScanRecords hand each one over already
// walked, with its field starts (Run.Record, scan.go). It is called when the tree is created or
// attached, before anyone else can reach it, and returns the tree.
func (t *Tree) HoldsRecords(walk RecordWalk) *Tree {
	t.walk = walk
	return t
}

// New creates an empty key-sequenced file and returns it. lt is the
// volume's shared latch table; nil gets a private one (tests).
func New(pool *cache.Pool, vol disk.BlockDev, name string, lt *Latches) (*Tree, error) {
	if lt == nil {
		lt = NewLatches(nil)
	}
	root := vol.Allocate()
	t := &Tree{pool: pool, vol: vol, name: name, root: root, lt: lt}
	pg, err := pool.Get(root)
	if err != nil {
		return nil, err
	}
	defer pg.Release()
	writePage(pg.Data(), pageLeaf, 0, 0, nil)
	pg.MarkDirty(0)
	return t, nil
}

// Open attaches to an existing file by its root block. lt is the
// volume's shared latch table; nil gets a private one (tests).
func Open(pool *cache.Pool, vol disk.BlockDev, name string, root disk.BlockNum, lt *Latches) *Tree {
	if lt == nil {
		lt = NewLatches(nil)
	}
	return &Tree{pool: pool, vol: vol, name: name, root: root, lt: lt}
}

// Root returns the file's fixed root block.
func (t *Tree) Root() disk.BlockNum { return t.root }

// childOf and childCell convert between a child block number and an
// interior cell's 4-byte value.
func childOf(c cell) disk.BlockNum {
	return disk.BlockNum(binary.LittleEndian.Uint32(c.val))
}

func childCell(key []byte, bn disk.BlockNum) cell {
	v := make([]byte, 4)
	binary.LittleEndian.PutUint32(v, uint32(bn))
	return cell{key: key, val: v}
}

// findCell returns the index of the first cell with key >= k in a
// materialized cell list (the structure-change paths; page reads search
// the page itself, pageView.find).
func findCell(cells []cell, k []byte) (int, bool) {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cells[mid].key, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(cells) && bytes.Equal(cells[lo].key, k)
}

// page access helpers --------------------------------------------------

// readCells views bn with Keyed intent and copies its cells out, for
// the structure changes that rebuild a page from a cell list. The
// caller must hold bn's latch; the cells are copies, so they stay valid
// after both the pin and the latch are gone.
func (t *Tree) readCells(bn disk.BlockNum) (typ, level byte, next disk.BlockNum, cells []cell, err error) {
	v, err := t.view(bn, cache.Keyed)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	typ, level, next, cells = v.typ(), v.level(), v.next(), v.cells()
	v.release()
	return typ, level, next, cells, nil
}

// storePage rewrites bn with Keyed intent. The caller must hold bn's
// latch exclusively (or otherwise guarantee the page is unreachable).
func (t *Tree) storePage(bn disk.BlockNum, typ, level byte, next disk.BlockNum, cells []cell, lsn wal.LSN) error {
	return t.storePageClass(bn, typ, level, next, cells, lsn, cache.Keyed)
}

// storePageClass is storePage with an explicit access class; BulkLoad
// writes its one-pass leaf stream Sequential. MarkDirty drops the
// slot's offset table with the bytes it described.
func (t *Tree) storePageClass(bn disk.BlockNum, typ, level byte, next disk.BlockNum, cells []cell, lsn wal.LSN, class cache.AccessClass) error {
	pg, err := t.pool.GetClass(bn, class)
	if err != nil {
		return err
	}
	writePage(pg.Data(), typ, level, next, cells)
	pg.MarkDirty(lsn)
	pg.Release()
	return nil
}

// the descent ----------------------------------------------------------

// latchMode is how a descent latches the path it walks.
type latchMode int

const (
	// latchShared crabs shared latches down to the leaf and returns it
	// latched shared: reads.
	latchShared latchMode = iota
	// latchLeaf crabs shared latches but takes the leaf exclusively:
	// writes that stay within one leaf.
	latchLeaf
	// latchPath takes every page on the path exclusively and keeps them
	// all: splits and collapses, which propagate upward.
	latchPath
)

// wframe is one exclusively latched ancestor on a latchPath descent.
type wframe struct {
	bn  disk.BlockNum
	pl  pageLatch
	idx int // child index taken during the descent
}

func releaseFrames(path []wframe) {
	for i := len(path) - 1; i >= 0; i-- {
		path[i].pl.release()
	}
}

// descend is the tree's one root-to-leaf walk: it returns the leaf
// covering key (nil = the leftmost leaf) latched as mode asks, and for
// latchPath the exclusively latched ancestors above it. Latches crab:
// a parent is released only once the child is latched, so a concurrent
// split or collapse can never redirect the descent onto a freed page;
// while a parent is latched no structure change can run below it (a
// latchPath writer would need that parent exclusive), so the child
// pointer stays valid until the child's latch is granted. Each page is
// searched where it lies, and its view is dropped before the descent
// waits for the next latch.
//
// Interior pages are viewed Keyed — they are the index hot set every
// access shares; only the look at the leaf itself, reached from a
// level-1 parent, uses class, so each re-drive of a sequential scan
// doesn't promote its first leaf into the protected segment.
//
// latchShared and latchPath must look at the leaf to learn that it is
// one, and return that view for the caller to read through and release.
// latchLeaf stops at the level-1 parent, which names its children as
// leaves without reading them, and returns no view: the writer takes
// its own look.
func (t *Tree) descend(key []byte, mode latchMode, class cache.AccessClass) ([]wframe, pageLatch, pageView, error) {
restart:
	for {
		var path []wframe
		pl := t.lt.acquire(t.root, mode == latchPath)
		bn, cls := t.root, cache.Keyed
		for {
			v, err := t.view(bn, cls)
			if err != nil {
				return failDescent(path, pl, err)
			}
			if !v.interior() {
				if mode != latchLeaf {
					return path, pl, v, nil
				}
				// The root is the leaf (or still the zeroed page of a file
				// whose first write never reached disk — recovery redoes
				// into it as an empty leaf). Upgrade by release-and-
				// reacquire and re-verify: the root may have grown a level
				// in between.
				v.release()
				pl.release()
				pl = t.lt.acquire(bn, true)
				if v, err = t.view(bn, cache.Keyed); err != nil {
					return failDescent(path, pl, err)
				}
				grew := v.interior()
				v.release()
				if grew {
					pl.release()
					continue restart
				}
				return nil, pl, pageView{}, nil
			}
			if v.n() == 0 {
				v.release()
				return failDescent(path, pl, fmt.Errorf("btree: empty interior page %d in %s", bn, t.name))
			}
			idx := v.childIndex(key)
			child, childIsLeaf := v.child(idx), v.level() == 1
			v.release()
			if childIsLeaf {
				cls = class
			}
			if mode == latchPath {
				path = append(path, wframe{bn: bn, pl: pl, idx: idx})
				pl = t.lt.acquire(child, true)
			} else {
				excl := mode == latchLeaf && childIsLeaf
				cpl := t.lt.acquire(child, excl)
				pl.release()
				pl = cpl
				if excl {
					return nil, pl, pageView{}, nil
				}
			}
			bn = child
		}
	}
}

// failDescent releases everything a descent holds and returns err.
func failDescent(path []wframe, pl pageLatch, err error) ([]wframe, pageLatch, pageView, error) {
	pl.release()
	releaseFrames(path)
	return nil, pageLatch{}, pageView{}, err
}

// reads ----------------------------------------------------------------

// Get returns a copy of the record bytes stored under key.
func (t *Tree) Get(key []byte) ([]byte, error) { return t.AppendGet(nil, key) }

// AppendGet appends the record bytes stored under key to dst, copied
// from the leaf while it is pinned and latched: the one copy a point
// read makes, into a buffer of the caller's. Not found leaves dst as it
// was.
func (t *Tree) AppendGet(dst, key []byte) ([]byte, error) {
	t.lt.opEnter()
	defer t.lt.opExit()
	_, pl, v, err := t.descend(key, latchShared, cache.Keyed)
	if err != nil {
		return dst, err
	}
	i, exact := v.find(key)
	if exact {
		_, borrowed := v.cell(i)
		dst = append(dst, borrowed...)
	}
	v.release()
	pl.release()
	if !exact {
		return dst, fmt.Errorf("%w (%s)", ErrNotFound, t.name)
	}
	return dst, nil
}

// writes ---------------------------------------------------------------

type opKind int

const (
	opInsert opKind = iota
	opUpdate
	opUpsert
	opDelete
)

// Insert stores a new record; lsn is the audit record protecting the
// modification (write-ahead-log page stamping).
func (t *Tree) Insert(key, val []byte, lsn wal.LSN) error {
	return t.apply(key, val, lsn, opInsert)
}

// Update replaces an existing record's bytes.
func (t *Tree) Update(key, val []byte, lsn wal.LSN) error {
	return t.apply(key, val, lsn, opUpdate)
}

// Upsert stores the record whether or not the key exists (recovery redo).
func (t *Tree) Upsert(key, val []byte, lsn wal.LSN) error {
	return t.apply(key, val, lsn, opUpsert)
}

// Delete removes a record.
func (t *Tree) Delete(key []byte, lsn wal.LSN) error {
	return t.apply(key, nil, lsn, opDelete)
}

// apply runs one blind write: an Edit whose answer is fixed before it
// sees the record, refused when the key's presence is not what op needs.
func (t *Tree) apply(key, val []byte, lsn wal.LSN, op opKind) error {
	return t.Edit(key, func(_ []byte, found bool) (Edit, error) {
		if err := checkOp(op, found, t.name); err != nil {
			return Edit{}, err
		}
		if op == opDelete {
			return Edit{Op: Remove, LSN: lsn}, nil
		}
		return Edit{Op: Put, Val: val, LSN: lsn}, nil
	})
}

// An EditOp is what an EditFunc decides to do with the record under its
// key.
type EditOp uint8

const (
	Keep   EditOp = iota // leave the leaf as it is
	Put                  // store Val under the key: a replacement, or an insert when absent
	Remove               // delete the record (it must be there)
)

// An Edit is an EditFunc's answer: the operation, the record bytes a Put
// stores — which must not alias the bytes the function was shown — and
// the LSN of the audit record protecting the change.
type Edit struct {
	Op  EditOp
	Val []byte
	LSN wal.LSN
}

// An EditFunc is shown the record stored under the key, borrowed from the
// leaf (valid only until it returns), or found false when there is none,
// and decides what to do with it. It runs with the leaf latched
// exclusively: it must not touch this volume's trees, and whatever it
// waits for holds every reader and writer of the leaf with it.
type EditFunc func(val []byte, found bool) (Edit, error)

// Edit is the tree's read-decide-write: one optimistic descent to the
// leaf's exclusive latch and one look at the leaf, in which fn is shown
// the record and its answer is spliced where the record lies — no read
// before the write, no second descent, no second look. fn runs exactly
// once; its error is Edit's, and nothing is written. When the answer
// does not fit the leaf, or a Remove empties a leaf that must then be
// collapsed, the change is redone on the pessimistic path with the
// answer fn already gave — restart-on-propagate, because with
// variable-length keys no cheap "safe node" bound exists (a promoted
// separator's size depends on the leaf's keys). That redo re-finds the
// key after the leaf's latch was let go, so the caller must keep anyone
// else from writing the key meanwhile (the Disk Process holds its record
// lock); if the key's presence has changed all the same, the redo fails
// as Insert/Update/Delete would.
func (t *Tree) Edit(key []byte, fn EditFunc) error {
	t.lt.opEnter()
	defer t.lt.opExit()
	_, pl, _, err := t.descend(key, latchLeaf, cache.Keyed)
	if err != nil {
		return err
	}
	bn := pl.bn
	v, err := t.view(bn, cache.Keyed)
	if err != nil {
		pl.release()
		return err
	}
	i, exact := v.find(key)
	var cur []byte
	if exact {
		_, cur = v.cell(i)
	}
	e, err := fn(cur, exact)
	if err == nil && e.Op == Remove && !exact {
		err = fmt.Errorf("%w (%s)", ErrNotFound, t.name)
	}
	if err != nil || e.Op == Keep {
		v.release()
		pl.release()
		return err
	}
	op, old, put := opInsert, 0, e.Op == Put
	if exact {
		op, old = opUpdate, 1
	}
	if !put {
		op = opDelete
	}
	// Would the leaf empty out (collapse may propagate) or overflow (split
	// propagates)?
	if !put && v.n() == 1 && bn != t.root || v.endAfter(i, old, put, key, e.Val) > disk.BlockSize {
		v.release()
		pl.release()
		return t.applyPessimistic(key, e.Val, e.LSN, op)
	}
	v.splice(i, old, put, key, e.Val)
	v.markSpliced(e.LSN)
	v.release()
	pl.release()
	return nil
}

// checkOp reports the key-existence error op raises, if any, given
// whether its key is present.
func checkOp(op opKind, exact bool, name string) error {
	switch {
	case exact && op == opInsert:
		return fmt.Errorf("%w (%s)", ErrDuplicate, name)
	case !exact && (op == opUpdate || op == opDelete):
		return fmt.Errorf("%w (%s)", ErrNotFound, name)
	}
	return nil
}

// applyPessimistic redoes op holding every page on the root-to-leaf
// path exclusively, so splits and collapses propagate upward with no
// further latch acquisition above the current page.
func (t *Tree) applyPessimistic(key, val []byte, lsn wal.LSN, op opKind) error {
	path, pl, v, err := t.descend(key, latchPath, cache.Keyed)
	if err != nil {
		return err
	}
	bn, next, cells := v.bn(), v.next(), v.cells()
	v.release()
	i, exact := findCell(cells, key)
	if err := checkOp(op, exact, t.name); err != nil {
		pl.release()
		releaseFrames(path)
		return err
	}
	if op == opDelete {
		cells = append(cells[:i], cells[i+1:]...)
		return t.finishDelete(path, pl, bn, next, cells, lsn)
	}
	if exact {
		cells[i].val = val
	} else {
		cells = append(cells, cell{})
		copy(cells[i+1:], cells[i:])
		cells[i] = cell{key: key, val: val}
	}
	return t.finishStore(path, pl, bn, pageLeaf, 0, next, cells, lsn)
}

// finishStore writes cells into bn, splitting upward along the held
// path as long as pages overflow, and releases every latch.
func (t *Tree) finishStore(path []wframe, pl pageLatch, bn disk.BlockNum, typ, level byte, next disk.BlockNum, cells []cell, lsn wal.LSN) error {
	for {
		if cellsSize(cells) <= usable {
			err := t.storePage(bn, typ, level, next, cells, lsn)
			pl.release()
			releaseFrames(path)
			return err
		}
		if bn == t.root {
			err := t.splitRoot(typ, level, cells, lsn)
			pl.release()
			releaseFrames(path)
			return err
		}
		sep, rightBn, err := t.splitPage(bn, typ, level, next, cells, lsn)
		pl.release()
		if err != nil {
			releaseFrames(path)
			return err
		}
		// Insert the new separator into the parent (still latched).
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		_, plevel, _, pcells, err := t.readCells(parent.bn)
		if err != nil {
			parent.pl.release()
			releaseFrames(path)
			return err
		}
		i, _ := findCell(pcells, sep)
		pcells = append(pcells, cell{})
		copy(pcells[i+1:], pcells[i:])
		pcells[i] = childCell(sep, rightBn)
		pl, bn, typ, level, next, cells = parent.pl, parent.bn, pageInterior, plevel, 0, pcells
	}
}

// splitCells distributes an oversized cell list at the byte midpoint;
// interior splits promote the first right separator to the parent.
func splitCells(typ byte, cells []cell) (left, right []cell, sep []byte) {
	splitAt, sz := 0, 0
	for i, c := range cells {
		sz += cellsSize([]cell{c})
		if sz > splitFill {
			splitAt = i
			break
		}
	}
	if splitAt == 0 {
		splitAt = 1
	}
	if splitAt >= len(cells) {
		splitAt = len(cells) - 1
	}
	left, right = cells[:splitAt], cells[splitAt:]
	sep = append([]byte(nil), right[0].key...)
	if typ == pageInterior {
		right = append([]cell{childCell(nil, childOf(right[0]))}, right[1:]...)
	}
	return left, right, sep
}

// splitPage splits bn into itself plus a newly allocated right sibling
// and returns the separator and the new block. The right page is
// written before the left one links to it: a chain scanner entering the
// left leaf from its own left sibling may follow the new link the
// moment the left page is rewritten, and must find the sibling
// complete. The sibling is unreachable from above until the caller
// posts the separator into the (exclusively latched) parent.
func (t *Tree) splitPage(bn disk.BlockNum, typ, level byte, next disk.BlockNum, cells []cell, lsn wal.LSN) ([]byte, disk.BlockNum, error) {
	leftCells, rightCells, sep := splitCells(typ, cells)
	rightBn := t.vol.Allocate()
	var leftNext, rightNext disk.BlockNum
	if typ == pageLeaf {
		leftNext, rightNext = rightBn, next
	}
	if err := t.storePage(rightBn, typ, level, rightNext, rightCells, lsn); err != nil {
		return nil, 0, err
	}
	if err := t.storePage(bn, typ, level, leftNext, leftCells, lsn); err != nil {
		return nil, 0, err
	}
	return sep, rightBn, nil
}

// splitRoot handles overflow of the root itself. The root block never
// moves: its contents split into two fresh children and the root is
// rewritten as an interior page over {left, right}. The caller holds
// the root latched exclusively throughout.
func (t *Tree) splitRoot(typ, level byte, cells []cell, lsn wal.LSN) error {
	leftCells, rightCells, sep := splitCells(typ, cells)
	leftBn := t.vol.Allocate()
	rightBn := t.vol.Allocate()
	var leftNext disk.BlockNum
	if typ == pageLeaf {
		leftNext = rightBn
	}
	if err := t.storePage(rightBn, typ, level, 0, rightCells, lsn); err != nil {
		return err
	}
	if err := t.storePage(leftBn, typ, level, leftNext, leftCells, lsn); err != nil {
		return err
	}
	rootCells := []cell{
		childCell(nil, leftBn),
		childCell(sep, rightBn),
	}
	return t.storePage(t.root, pageInterior, level+1, 0, rootCells, lsn)
}

// finishDelete writes the leaf back after a removal, collapsing it out
// of the tree when it emptied ("B-tree splits and collapses"). Only a
// leaf with a left sibling under the same parent is freed: that
// sibling's chain pointer can be repaired under latches taken
// left-to-right — the same order chain scanners use — so no cycle is
// possible. A leaf at child index 0 stays in place empty; interior
// pages therefore never empty and collapses never propagate upward.
func (t *Tree) finishDelete(path []wframe, pl pageLatch, bn, next disk.BlockNum, cells []cell, lsn wal.LSN) error {
	if len(cells) > 0 || len(path) == 0 {
		// Non-empty leaf, or the root itself: rewrite in place.
		err := t.storePage(bn, pageLeaf, 0, next, cells, lsn)
		pl.release()
		releaseFrames(path)
		return err
	}
	parent := path[len(path)-1]
	_, plevel, _, pcells, err := t.readCells(parent.bn)
	if err != nil {
		pl.release()
		releaseFrames(path)
		return err
	}
	leftBn := disk.BlockNum(0)
	if parent.idx > 0 {
		leftBn = childOf(pcells[parent.idx-1])
	}
	if leftBn == 0 {
		// Leftmost child: keep the empty leaf so the parent never empties.
		err := t.storePage(bn, pageLeaf, 0, next, nil, lsn)
		pl.release()
		releaseFrames(path)
		return err
	}
	// Free the leaf. The neighbor's latch must come before the leaf's
	// (left-to-right); release the leaf and re-latch both in order. The
	// parent stays exclusively latched, so nothing can descend into
	// either page meanwhile — the leaf is still empty when re-latched,
	// and chain scanners already past the neighbor drain out under the
	// latches we are about to wait for.
	pl.release()
	lpl := t.lt.acquire(leftBn, true)
	pl = t.lt.acquire(bn, true)
	_, _, lnext, lcells, err := t.readCells(leftBn)
	if err == nil && lnext != bn {
		err = fmt.Errorf("btree: leaf chain of %s skips page %d (neighbor %d links to %d)", t.name, bn, leftBn, lnext)
	}
	if err == nil {
		// Bypass the empty leaf in the chain, then unhook it from the
		// parent. Removing a non-first child just drops its separator;
		// the neighbor's span absorbs the gap.
		err = t.storePage(leftBn, pageLeaf, 0, next, lcells, lsn)
	}
	if err == nil {
		pcells = append(pcells[:parent.idx], pcells[parent.idx+1:]...)
		err = t.storePage(parent.bn, pageInterior, plevel, 0, pcells, lsn)
	}
	if err == nil {
		// Drop the cached page. The block is NOT returned to the
		// allocator: an asynchronous pre-fetch planned from a stale leaf
		// run may still read it, and a re-used block could then be
		// installed in the cache with dead contents. Simulated volumes
		// are plentiful (same policy as dp.dropFile).
		t.pool.Discard(bn)
	}
	pl.release()
	lpl.release()
	releaseFrames(path)
	return err
}
