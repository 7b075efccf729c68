package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/wal"
)

// The page image. header: [0] type, [1:3] cell count, [3] level (leaf =
// 0), [4:8] right sibling block for leaves (0 = none; block 0 is never
// allocated), [8:15] spare. The level lets an interior page at level 1
// hand out its children's block numbers as *leaf* numbers without
// reading them — the basis of the Disk Process's pre-fetch planning. The
// sibling link lets range scans walk the leaf level holding one latch at
// a time. The cells follow the header back to back, each a length-
// prefixed key then a length-prefixed value (leaf: record bytes;
// interior: 4-byte child block), and the rest of the block is zero.
//
// The image has no slot directory, so finding cell i means knowing where
// it starts. Those offsets are kept OFF the page, in the cache slot's
// sidecar (cache.PageIndex): built by one checked walk on the first
// visit after the slot's bytes change, then shared by every later
// visit. Keeping them off the page is what lets file-backed volumes,
// recovery replay and every counted block and byte stay exactly where
// they were when pages were decoded by copying.

// ErrCorruptPage reports a block whose bytes are not a well-formed
// B-tree page: a torn or bit-rotted read from a file-backed volume. It
// is raised by the walk that builds the page's offset table and, for a
// leaf of a record file, by the walk that builds its record table, and
// wraps the file name and block number; page and record access past those
// walks do not re-check.
var ErrCorruptPage = errors.New("btree: corrupt page")

// maxCells bounds a page's cell count: the smallest cell is two empty
// length prefixes.
const maxCells = usable / 2

func writePage(buf []byte, typ byte, level byte, next disk.BlockNum, cells []cell) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = typ
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(cells)))
	buf[3] = level
	binary.LittleEndian.PutUint32(buf[4:8], uint32(next))
	off := headerSize
	for _, c := range cells {
		off += putCell(buf[off:], c.key, c.val)
	}
}

// putCell encodes one cell at the front of buf and returns its size.
func putCell(buf []byte, key, val []byte) int {
	off := binary.PutUvarint(buf, uint64(len(key)))
	off += copy(buf[off:], key)
	off += binary.PutUvarint(buf[off:], uint64(len(val)))
	off += copy(buf[off:], val)
	return off
}

func cellSize(keyLen, valLen int) int {
	return uvarintLen(keyLen) + keyLen + uvarintLen(valLen) + valLen
}

func cellsSize(cells []cell) int {
	sz := 0
	for _, c := range cells {
		sz += cellSize(len(c.key), len(c.val))
	}
	return sz
}

func uvarintLen(v int) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// cellLen decodes the length prefix at the front of b and returns it
// with the prefix's own size; size 0 means b holds no acceptable
// prefix. A length inside a 4 KB block takes at most two bytes, and
// only the shortest encoding is accepted, so a page that passes
// indexPage re-encodes to the same bytes.
func cellLen(b []byte) (n, size int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return int(b[0]), 1
	}
	if len(b) < 2 || b[1] >= 0x80 || b[1] == 0 {
		return 0, 0
	}
	return int(b[0]&0x7f) | int(b[1])<<7, 2
}

// indexPage walks a page image once and returns its cell offset table:
// the start of every cell, then the end of the last. It checks
// everything later page access relies on — the type, the count, every
// length prefix, every extent against the end of the block, and the
// 4-byte child pointers of an interior page — so nothing downstream
// re-checks. A never-written block (all zero) indexes as a page with no
// cells; the tree treats it as an empty leaf.
func indexPage(buf []byte) ([]uint16, error) {
	typ, n := buf[0], int(binary.LittleEndian.Uint16(buf[1:3]))
	switch {
	case typ == pageLeaf, typ == pageInterior, typ == 0 && n == 0:
	default:
		return nil, fmt.Errorf("type %d with %d cells", typ, n)
	}
	if n > maxCells {
		return nil, fmt.Errorf("cell count %d", n)
	}
	offs := make([]uint16, n+1)
	off := headerSize
	for i := 0; i < n; i++ {
		offs[i] = uint16(off)
		for field := 0; field < 2; field++ { // key, then value
			l, sz := cellLen(buf[off:])
			if sz == 0 || l > len(buf)-off-sz {
				return nil, fmt.Errorf("cell %d runs off the block at offset %d", i, off)
			}
			if field == 1 && typ == pageInterior && l != 4 {
				return nil, fmt.Errorf("interior cell %d has a %d-byte child pointer", i, l)
			}
			off += sz + l
		}
	}
	offs[n] = uint16(off)
	return offs, nil
}

// A pageView is one B-tree page read where it lies in its cache buffer:
// the pinned slot, its bytes, and its offset table. Keys and values it
// hands out are sub-slices of the buffer — borrowed, valid only while
// the view is held and the page's latch with it. Whatever must outlive
// that copies. A view is released before its latch is (pin ⊂ latch), and
// never held across a wait for another latch.
type pageView struct {
	pg  *cache.Page
	buf []byte
	ix  *cache.PageIndex
}

// view pins bn and returns it viewed; one view is one counted cache
// access. The caller must hold bn's latch (or otherwise know the page is
// quiescent). The first view after the slot's bytes changed builds the
// offset table and publishes it on the slot; two readers under a shared
// latch may both build it, identically.
func (t *Tree) view(bn disk.BlockNum, class cache.AccessClass) (pageView, error) {
	pg, err := t.pool.GetClass(bn, class)
	if err != nil {
		return pageView{}, err
	}
	ix := pg.Index()
	if ix == nil {
		offs, err := indexPage(pg.Data())
		if err != nil {
			pg.Release()
			return pageView{}, fmt.Errorf("%w: %s block %d: %v", ErrCorruptPage, t.name, bn, err)
		}
		ix = &cache.PageIndex{Offs: offs}
		pg.SetIndex(ix)
	}
	return pageView{pg: pg, buf: pg.Data(), ix: ix}, nil
}

// recordTable returns the leaf's record table (cache.PageIndex.Recs), or
// nil when this version of the leaf has none and build is unset. With
// build set, a missing table is built by walking every record of the leaf
// with the file's RecordWalk and is published on the slot together with
// the cell table and the scan part (cache.LeafScan: a copy of the leaf's
// last key, and room for its columns), in a new PageIndex: the one it
// replaces may be in use by other holders of the shared latch, who may be
// building the same table from the same bytes. Like the cell table it is
// dropped whenever the slot's bytes change (and by splice, which keeps
// only the cell table in step), so a table always describes the bytes it
// was built from. Building one is not a look at the page: no cache access
// is counted.
func (t *Tree) recordTable(v *pageView, build bool) ([]uint16, error) {
	if v.ix.Recs != nil || !build {
		return v.ix.Recs, nil
	}
	recs, width, bad, err := v.buildRecords(t.walk)
	if err != nil {
		return nil, fmt.Errorf("%w: %s block %d: cell %d: %v", ErrCorruptPage, t.name, v.bn(), bad, err)
	}
	// The index and its scan part are one allocation.
	parts := &struct {
		ix   cache.PageIndex
		scan cache.LeafScan
	}{ix: cache.PageIndex{Offs: v.ix.Offs, Recs: recs}}
	last := v.key(v.n() - 1)
	parts.scan.LastKey = append(make([]byte, 0, len(last)), last...)
	if width > 0 {
		parts.scan.Cols = make([]atomic.Pointer[cache.Column], width)
	}
	parts.ix.Scan = &parts.scan
	v.ix = &parts.ix
	v.pg.SetIndex(v.ix)
	return recs, nil
}

// buildRecords walks every record of the leaf, which has at least one
// cell, and returns its record table (cache.PageIndex.Recs) and the
// fewest fields a record of it has — or the first cell whose record fails
// the walk, and the walk's error.
func (v pageView) buildRecords(walk RecordWalk) (recs []uint16, width, bad int, err error) {
	// Room for the index and the first record (it has fewer fields than
	// bytes), then for n records as wide as the first: a leaf of like
	// records costs two allocations here.
	n := v.n()
	_, first := v.cell(0)
	recs = make([]uint16, n+1, n+1+len(first)+1)
	width = math.MaxInt
	for i := 0; i < n; i++ {
		_, val := v.cell(i)
		recs[i] = uint16(len(recs))
		if recs, err = walk(val, recs); err != nil {
			return nil, 0, i, err
		}
		width = min(width, len(recs)-int(recs[i])-1)
		if i == 0 {
			recs = slices.Grow(recs, (n-1)*(len(recs)-n-1))
		}
	}
	recs[n] = uint16(len(recs))
	return recs, width, 0, nil
}

// buildColumn decodes field f of every record of the leaf whose bytes are
// page and whose index (Offs, Recs) is ix into a column, or returns
// notColumn when some record's field is one dec refuses. f is below every
// record's field count (cache.LeafScan.Cols).
func buildColumn(page []byte, ix *cache.PageIndex, f int, dec FieldDecode) *cache.Column {
	offs, recs := ix.Offs, ix.Recs
	n := len(offs) - 1
	c := &cache.Column{Kinds: make([]uint8, n), Vals: make([]uint64, n)}
	for i := range n {
		from, to := recs[i], recs[i+1]
		starts := recs[from:to:to]
		end := int(offs[i+1])
		var ok bool
		if c.Kinds[i], c.Vals[i], ok = dec(page[end-int(starts[len(starts)-1]):end:end], starts, f); !ok {
			return notColumn
		}
	}
	return c
}

// notColumn is the column of a field that is not one in its leaf version.
var notColumn = &cache.Column{}

// corruptRecord is how a record that fails its walk outside a record
// table fails a scan (ScanRecords): with the walk's own error, word for
// word, that errors.Is also reports as ErrCorruptPage.
type corruptRecord struct{ error }

func (e corruptRecord) Is(target error) bool { return target == ErrCorruptPage }
func (e corruptRecord) Unwrap() error        { return e.error }

// release unpins the page; every slice the view handed out dies here.
func (v pageView) release() { v.pg.Release() }

func (v pageView) bn() disk.BlockNum   { return v.pg.BlockNum() }
func (v pageView) interior() bool      { return v.buf[0] == pageInterior }
func (v pageView) typ() byte           { return v.buf[0] }
func (v pageView) level() byte         { return v.buf[3] }
func (v pageView) next() disk.BlockNum { return disk.BlockNum(binary.LittleEndian.Uint32(v.buf[4:8])) }

// lastKey returns the last cell's key, borrowed: the scan part's copy
// when the leaf has one (cache.LeafScan), which a range scan's edge test
// reads instead of the far end of the leaf. The page has a cell.
func (v pageView) lastKey() []byte {
	if sc := v.ix.Scan; sc != nil {
		return sc.LastKey
	}
	return v.key(v.n() - 1)
}

// n returns the number of cells.
func (v pageView) n() int { return len(v.ix.Offs) - 1 }

// end returns the offset one past the last cell.
func (v pageView) end() int { return int(v.ix.Offs[v.n()]) }

// key returns cell i's key, borrowed.
func (v pageView) key(i int) []byte {
	off := int(v.ix.Offs[i])
	l, sz := cellLen(v.buf[off:])
	off += sz
	return v.buf[off : off+l : off+l]
}

// cell returns cell i's key and value, borrowed.
func (v pageView) cell(i int) (key, val []byte) { return cellAt(v.buf, int(v.ix.Offs[i])) }

// cellAt returns the key and value of the cell at off in buf, borrowed.
func cellAt(buf []byte, off int) (key, val []byte) {
	l, sz := cellLen(buf[off:])
	off += sz
	key = buf[off : off+l : off+l]
	off += l
	l, sz = cellLen(buf[off:])
	off += sz
	return key, buf[off : off+l : off+l]
}

// child returns the block interior cell i points at.
func (v pageView) child(i int) disk.BlockNum {
	_, val := v.cell(i)
	return disk.BlockNum(binary.LittleEndian.Uint32(val))
}

// find returns the index of the first cell with key >= k, and whether
// an exact match exists there.
func (v pageView) find(k []byte) (int, bool) {
	lo, hi := 0, v.n()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(v.key(mid), k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < v.n() && bytes.Equal(v.key(lo), k)
}

// childIndex returns the interior cell whose subtree covers k: the last
// cell with separator <= k (cell 0's empty separator stands for -inf).
func (v pageView) childIndex(k []byte) int {
	i, exact := v.find(k)
	if exact || i == 0 {
		return i
	}
	return i - 1
}

// cells copies the page's cells out, for the structure changes that
// rebuild pages from a cell list (split, collapse): one copy of the
// cell bytes, every key and value a sub-slice of it.
func (v pageView) cells() []cell {
	shadow := pageView{buf: append([]byte(nil), v.buf[:v.end()]...), ix: v.ix}
	cells := make([]cell, v.n())
	for i := range cells {
		cells[i].key, cells[i].val = shadow.cell(i)
	}
	return cells
}

// endAfter returns where the cells would end after splice(i, old, put,
// key, val) — the sizes writePage would produce — so the caller can
// tell whether the result still fits the block.
func (v pageView) endAfter(i, old int, put bool, key, val []byte) int {
	end := v.end() - int(v.ix.Offs[i+old]-v.ix.Offs[i])
	if put {
		end += cellSize(len(key), len(val))
	}
	return end
}

// splice rewrites cells [i, i+old) — old is 0 or 1 — as the one cell
// (key, val) when put is set, as nothing otherwise: an insert (old 0), a
// replacement (old 1) or a removal (old 1, !put) done where the page
// lies. It moves the tail, fixes the count, zeroes what the tail
// vacated, and keeps the offset table in step, leaving byte for byte
// the image writePage builds from the same cells. The caller holds the
// page's latch exclusively and has checked that the result fits.
func (v pageView) splice(i, old int, put bool, key, val []byte) {
	n := v.n()
	offs := v.ix.Offs
	start, oldEnd, end := int(offs[i]), int(offs[i+old]), int(offs[n])
	size := 0
	if put {
		size = cellSize(len(key), len(val))
	}
	d := size - (oldEnd - start)
	if d != 0 {
		copy(v.buf[oldEnd+d:], v.buf[oldEnd:end])
	}
	if put {
		putCell(v.buf[start:], key, val)
	}
	if d < 0 {
		clear(v.buf[end+d : end])
	}

	// The table: one entry more or fewer, and every cell after i moved by d.
	moved := i + 1
	switch {
	case put && old == 0:
		offs = append(offs, 0)
		copy(offs[i+1:], offs[i:n+1])
	case !put:
		copy(offs[i:], offs[i+1:])
		offs = offs[:n]
		moved = i
	}
	for j := moved; j < len(offs); j++ {
		offs[j] = uint16(int(offs[j]) + d)
	}
	v.ix.Offs = offs
	v.ix.Recs, v.ix.Scan = nil, nil // they described the bytes before the splice

	v.buf[0] = pageLeaf // a never-written root becomes a leaf on its first write
	binary.LittleEndian.PutUint16(v.buf[1:3], uint16(len(offs)-1))
}

// markSpliced marks the page dirty under lsn after a splice. MarkDirty
// drops the slot's offset table, as it must for any other write; splice
// kept the cell table in step with the bytes (and dropped the record
// table), so it is published again.
func (v pageView) markSpliced(lsn wal.LSN) {
	v.pg.MarkDirty(lsn)
	v.pg.SetIndex(v.ix)
}
