package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// viewOf views a bare page image, without a tree or a pool.
func viewOf(t testing.TB, buf []byte) pageView {
	t.Helper()
	offs, err := indexPage(buf)
	if err != nil {
		t.Fatalf("indexPage: %v", err)
	}
	return pageView{buf: buf, ix: &cache.PageIndex{Offs: offs}}
}

// TestCorruptPageFailsTheRequest damages a cached-out leaf three ways —
// a cell count the bytes cannot back, a key length past the end of the
// block, a length prefix cut off by the end of the block — and drives
// each through Get, Scan and Update: a typed error naming the file and
// block, never an index-out-of-range panic in a Disk Process worker.
func TestCorruptPageFailsTheRequest(t *testing.T) {
	damage := map[string]func(buf []byte){
		"truncated count": func(buf []byte) {
			// Claims far more cells than the block can hold: the walk reads
			// the zeroed tail as empty cells until it falls off the end.
			binary.LittleEndian.PutUint16(buf[1:3], 2000)
		},
		"over-long key length": func(buf []byte) {
			binary.PutUvarint(buf[headerSize:], disk.BlockSize) // first key "is" 4096 bytes
		},
		"varint running off the page": func(buf []byte) {
			// One cell whose value ends one byte short of the block, then a
			// second cell whose two-byte key length starts on that last byte.
			clear(buf)
			buf[0] = pageLeaf
			binary.LittleEndian.PutUint16(buf[1:3], 2)
			off := headerSize
			off += binary.PutUvarint(buf[off:], 1)
			buf[off] = 'k'
			off++
			binary.PutUvarint(buf[off:], uint64(disk.BlockSize-off-3))
			buf[disk.BlockSize-1] = 0x80
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			tr, pool, vol := newTestTree(t, 64)
			for i := 0; i < 20; i++ {
				if err := tr.Insert(ik(int64(i)), []byte("value"), 1); err != nil {
					t.Fatal(err)
				}
			}
			// Rot the block on disk and drop the cached copy, as a torn
			// read from a file-backed volume would present it.
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, disk.BlockSize)
			if err := vol.Read(tr.Root(), buf); err != nil {
				t.Fatal(err)
			}
			corrupt(buf)
			if err := vol.Write(tr.Root(), buf); err != nil {
				t.Fatal(err)
			}
			pool.Crash()

			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, ErrCorruptPage) {
					t.Errorf("%s: got %v, want ErrCorruptPage", op, err)
				} else if want := fmt.Sprintf("EMP block %d", tr.Root()); !bytes.Contains([]byte(err.Error()), []byte(want)) {
					t.Errorf("%s: error %q does not name %q", op, err, want)
				}
			}
			_, err := tr.Get(ik(3))
			check("Get", err)
			check("Scan", tr.Scan(keys.All(), false, func(_, _ []byte) (bool, error) { return true, nil }))
			check("ScanRecords", tr.HoldsRecords(record.FieldStarts).ScanRecords(keys.All(), cache.Keyed,
				func(Run) (bool, error) { return true, nil }))
			check("Update", tr.Update(ik(3), []byte("other"), 2))
			if n := tr.lt.Live(); n != 0 {
				t.Errorf("%d latches leaked on the error paths", n)
			}
		})
	}
}

// TestEmptyInteriorIsStructural pins the one descent's verdict on an
// interior page with no cells: a structural error from every entry
// point, not "record not found" from some of them.
func TestEmptyInteriorIsStructural(t *testing.T) {
	tr, pool, _ := newTestTree(t, 64)
	pg, err := pool.Get(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	writePage(pg.Data(), pageInterior, 1, 0, nil)
	pg.MarkDirty(1)
	pg.Release()

	_, getErr := tr.Get(ik(1))
	scanErr := tr.Scan(keys.All(), false, func(_, _ []byte) (bool, error) { return true, nil })
	for op, err := range map[string]error{
		"Get": getErr, "Scan": scanErr,
		"Insert": tr.Insert(ik(1), []byte("v"), 2),
		"Delete": tr.Delete(ik(1), 3),
	} {
		if err == nil || errors.Is(err, ErrNotFound) || !bytes.Contains([]byte(err.Error()), []byte("empty interior page")) {
			t.Errorf("%s: got %v, want the empty-interior structural error", op, err)
		}
	}
}

// randCell makes a cell small enough that a few dozen fit a page, with
// the occasional value long enough for a two-byte length prefix.
func randCell(rng *rand.Rand, id int) cell {
	val := make([]byte, rng.Intn(60))
	if rng.Intn(8) == 0 {
		val = make([]byte, 128+rng.Intn(200))
	}
	rng.Read(val)
	return cell{key: ik(int64(id)), val: val}
}

// TestSpliceMatchesWritePage applies a random sequence of leaf-local
// inserts, updates and deletes twice: in place with splice, and by
// decode-modify-writePage on a twin buffer. After every step the two
// 4096-byte images must be identical, and the offset table splice kept
// in step must equal one built fresh from the bytes.
func TestSpliceMatchesWritePage(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inPlace := make([]byte, disk.BlockSize)
		twin := make([]byte, disk.BlockSize)
		// Odd seeds start from a written empty leaf, even seeds from the
		// never-written (all zero) root a file's first insert lands in.
		var next disk.BlockNum
		if seed%2 == 1 {
			next = disk.BlockNum(rng.Intn(1000))
			writePage(inPlace, pageLeaf, 0, next, nil)
		}
		var cells []cell // the twin's decoded form
		v := viewOf(t, inPlace)
		for step := 0; step < 400; step++ {
			c := randCell(rng, rng.Intn(60))
			i, exact := findCell(cells, c.key)
			switch op := rng.Intn(3); {
			case op == 0 && exact: // delete
				v.splice(i, 1, false, nil, nil)
				cells = append(cells[:i], cells[i+1:]...)
			case exact: // update: same length half the time
				if rng.Intn(2) == 0 {
					c.val = bytes.Repeat([]byte{byte(step)}, len(cells[i].val))
				}
				grown := cellSize(len(c.key), len(c.val)) - cellSize(len(c.key), len(cells[i].val))
				if cellsSize(cells)+grown > usable {
					continue
				}
				v.splice(i, 1, true, c.key, c.val)
				cells[i] = c
			default: // insert
				if cellsSize(cells)+cellSize(len(c.key), len(c.val)) > usable {
					continue
				}
				v.splice(i, 0, true, c.key, c.val)
				cells = append(cells, cell{})
				copy(cells[i+1:], cells[i:])
				cells[i] = c
			}
			writePage(twin, pageLeaf, 0, next, cells)
			if !bytes.Equal(inPlace, twin) {
				t.Fatalf("seed %d step %d: spliced image differs from writePage's", seed, step)
			}
			fresh, err := indexPage(inPlace)
			if err != nil {
				t.Fatalf("seed %d step %d: spliced image does not index: %v", seed, step, err)
			}
			if !slices.Equal(fresh, v.ix.Offs) {
				t.Fatalf("seed %d step %d: kept table %v, fresh table %v", seed, step, v.ix.Offs, fresh)
			}
		}
	}
}

// FuzzPageView feeds arbitrary 4 KiB blocks to the walk every page
// access rests on. It must never panic; and when it accepts a block,
// viewing every cell must stay inside the block and re-encoding the
// viewed cells with writePage must reproduce the accepted prefix — the
// header fields and the cell bytes — byte for byte. Then the second walk:
// building the leaf's record table either fails, at the first cell that
// record.Decode refuses and with Decode's error, or yields starts through
// which a View reads every field of every cell as Decode reads it, and
// whose last entry, the record's length, finds the cell's key and value
// as the length prefixes do (Run.Key and Run.Record).
func FuzzPageView(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seed := func(typ, level byte, cells []cell) {
		buf := make([]byte, disk.BlockSize)
		writePage(buf, typ, level, 7, cells)
		f.Add(buf)
	}
	seed(pageLeaf, 0, nil)
	var leaf, interior []cell
	for i := 0; i < 30; i++ {
		leaf = append(leaf, randCell(rng, i))
		interior = append(interior, childCell(ik(int64(i)), disk.BlockNum(100+i)))
	}
	interior[0].key = nil
	seed(pageLeaf, 0, leaf)
	seed(pageInterior, 1, interior)
	f.Add(make([]byte, disk.BlockSize)) // a never-written block
	var recs []cell
	for i := 0; i < 30; i++ {
		recs = append(recs, cell{key: ik(int64(i)), val: acctRow(i)})
	}
	seed(pageLeaf, 0, recs)
	recs = recs[:0] // keys and records on both sides of a one-byte length prefix
	for i := 0; i < 12; i++ {
		key := ik(int64(i))
		if i%3 == 0 {
			key = append(key, bytes.Repeat([]byte{'k'}, 120)...)
		}
		recs = append(recs, cell{key: key, val: record.Encode(record.Row{record.Int(int64(i)), record.String(strings.Repeat("p", 100+10*i))})})
	}
	seed(pageLeaf, 0, recs)

	f.Fuzz(func(t *testing.T, in []byte) {
		buf := make([]byte, disk.BlockSize)
		copy(buf, in)
		offs, err := indexPage(buf)
		if err != nil {
			return
		}
		v := pageView{buf: buf, ix: &cache.PageIndex{Offs: offs}}
		cells := v.cells()
		for i := range cells {
			if k, val := v.cell(i); !bytes.Equal(k, cells[i].key) || !bytes.Equal(val, cells[i].val) {
				t.Fatalf("cell %d: view and copy disagree", i)
			}
			if v.interior() {
				_ = v.child(i)
			}
		}
		_, _ = v.find(buf[100:108])
		again := make([]byte, disk.BlockSize)
		writePage(again, v.typ(), v.level(), v.next(), cells)
		if !bytes.Equal(again[:8], buf[:8]) || !bytes.Equal(again[headerSize:v.end()], buf[headerSize:v.end()]) {
			t.Fatalf("accepted page does not re-encode to itself")
		}
		if v.interior() || len(cells) == 0 {
			return
		}
		checkRecordTable(t, v, cells)
	})
}

// checkRecordTable builds v's record table and holds it to record.Decode
// of every cell (FuzzPageView's second property).
func checkRecordTable(t *testing.T, v pageView, cells []cell) {
	t.Helper()
	table, width, bad, err := v.buildRecords(record.FieldStarts)
	if err != nil {
		for i := 0; i < bad; i++ {
			if _, derr := record.Decode(cells[i].val); derr != nil {
				t.Fatalf("the table failed at cell %d, but cell %d does not decode either: %v", bad, i, derr)
			}
		}
		if _, derr := record.Decode(cells[bad].val); derr == nil || derr.Error() != err.Error() {
			t.Fatalf("the table refuses cell %d with %v, Decode says %v", bad, err, derr)
		}
		return
	}
	var rec record.View
	run := Run{page: v.buf, cells: v.ix.Offs, index: table[:len(cells)+1], table: table}
	ix := &cache.PageIndex{Offs: v.ix.Offs, Recs: table}
	fewest := math.MaxInt
	for _, c := range cells {
		row, _ := record.Decode(c.val)
		fewest = min(fewest, len(row))
	}
	if width != fewest {
		t.Fatalf("the table says every record has %d fields, the fewest decoded are %d", width, fewest)
	}
	for f := range width {
		checkColumn(t, buildColumn(v.buf, ix, f, numericField), f, cells)
	}
	for i, c := range cells {
		row, err := record.Decode(c.val)
		if err != nil {
			t.Fatalf("the table accepted cell %d, Decode refuses it: %v", i, err)
		}
		val, starts := run.Record(i)
		if k := run.Key(i); !bytes.Equal(k, c.key) || !bytes.Equal(val, c.val) {
			t.Fatalf("cell %d: the record's length finds key %x and value %x, the prefixes %x and %x", i, k, val, c.key, c.val)
		}
		if k, val := run.Cell(i); !bytes.Equal(k, c.key) || !bytes.Equal(val, c.val) {
			t.Fatalf("cell %d: the run's prefixes find key %x and value %x, not %x and %x", i, k, val, c.key, c.val)
		}
		rec.Point(c.val, starts)
		if rec.Len() != len(row) {
			t.Fatalf("cell %d: %d fields through the table, %d decoded", i, rec.Len(), len(row))
		}
		for j := range row {
			if rec.Kind(j) != row[j].Kind || !bytes.Equal(rec.AppendField(nil, j), record.AppendValue(nil, row[j])) {
				t.Fatalf("cell %d field %d: %v through the table, %v decoded", i, j, rec.Value(j), row[j])
			}
		}
	}
}

// numericField is record.NumericField as a column decoder.
func numericField(val []byte, starts []uint16, f int) (uint8, uint64, bool) {
	k, b, ok := record.NumericField(val, starts, f)
	return uint8(k), b, ok
}

// checkColumn holds field f's column to record.Decode of every cell: a
// column when every record's field is an INTEGER, a FLOAT or NULL, with
// each entry the decoded value's type and bits, and notColumn otherwise.
func checkColumn(t *testing.T, c *cache.Column, f int, cells []cell) {
	t.Helper()
	numeric := true
	for _, cl := range cells {
		row, _ := record.Decode(cl.val)
		if k := row[f].Kind; k == record.TypeString || k == record.TypeBool {
			numeric = false
		}
	}
	if numeric != (c.Kinds != nil) {
		t.Fatalf("field %d: a column is built %v, every record's field is a number or NULL %v", f, c.Kinds != nil, numeric)
	}
	if !numeric {
		return
	}
	for i, cl := range cells {
		row, _ := record.Decode(cl.val)
		v := row[f]
		bits := uint64(v.I)
		if v.Kind == record.TypeFloat {
			bits = math.Float64bits(v.F)
		}
		if record.Type(c.Kinds[i]) != v.Kind || c.Vals[i] != bits {
			t.Fatalf("cell %d field %d: column entry %d %#x, decoded %v", i, f, c.Kinds[i], c.Vals[i], v)
		}
	}
}
