package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// aliasVal builds a record (key, version, padding) that names its own key
// and version and whose padding is a run of one version-derived byte, so
// a reader handed a half-spliced record — old header with new padding, a
// tail mid-move, a neighbour's bytes — can tell.
func aliasVal(key int64, ver, pad int) []byte {
	return record.Encode(record.Row{record.Int(key), record.Int(int64(ver)),
		record.String(strings.Repeat(string(rune('a'+ver%26)), pad))})
}

func checkAliasVal(k, v []byte) error {
	row, err := record.Decode(v)
	if err != nil || len(row) != 3 {
		return fmt.Errorf("unreadable record %q: %v", v, err)
	}
	key, ver, pad := row[0].I, int(row[1].I), len(row[2].S)
	if !bytes.Equal(k, ik(key)) {
		return fmt.Errorf("record of key %d stored under another key", key)
	}
	if want := aliasVal(key, ver, pad); !bytes.Equal(v, want) {
		return fmt.Errorf("torn record for key %d: %q", key, v)
	}
	return nil
}

// eachRecord hands fn a run's records one at a time, each with its key
// and field starts: the shape a test checks a record in.
func eachRecord(fn func(key, val []byte, starts []uint16) (bool, error)) RunFunc {
	return func(run Run) (bool, error) {
		for j := range run.Len() {
			val, starts := run.Record(j)
			if more, err := fn(run.Key(j), val, starts); err != nil || !more {
				return false, err
			}
		}
		return true, nil
	}
}

// checkAliasStarts is checkAliasVal for a record handed over with its
// field starts (ScanRecords): the starts must be exactly what a fresh walk
// of these bytes finds — a table built from another version of the leaf
// would not be — and the fields read through them must be the record's.
func checkAliasStarts(k, v []byte, starts []uint16) error {
	if fresh, err := record.FieldStarts(v, nil); err != nil || !slices.Equal(fresh, starts) {
		return fmt.Errorf("starts %v do not describe the record they came with (a fresh walk: %v, %v)", starts, fresh, err)
	}
	var rec record.View
	rec.Point(v, starts)
	if rec.Len() != 3 || !bytes.Equal(k, ik(rec.Int(0))) || !bytes.Equal(v, aliasVal(rec.Int(0), int(rec.Int(1)), len(rec.Str(2)))) {
		return fmt.Errorf("fields read through the starts are not the record's: %q", v)
	}
	return checkAliasVal(k, v)
}

// TestViewsUnderConcurrentSplices runs scanners and point reads through
// zero-copy views of a three-level tree while writers rewrite the same
// leaves underneath them every way a leaf-local write can: same-length
// overwrite, growing update (tail moves right), delete (tail moves
// left), insert. Readers check every record they are shown where it
// lies; the race detector checks the latch and pin discipline; Validate
// checks the tree at the end.
//
// Half the scanners read through ScanRecords, so they build and publish
// the contended leaves' record tables while the writers' splices drop
// them, and one-record scans take a published table or walk alone: every
// record must arrive with starts that describe exactly its bytes.
func TestViewsUnderConcurrentSplices(t *testing.T) {
	tr, _, _ := newTestTree(t, 2048)
	tr.HoldsRecords(record.FieldStarts)
	const rows = 12000
	recs := make([]KV, rows)
	for i := range recs {
		recs[i] = KV{Key: ik(int64(i)), Val: aliasVal(int64(i), 0, 80)}
	}
	if err := tr.BulkLoad(recs, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := tr.view(tr.Root(), cache.Keyed); err != nil || v.level() < 2 {
		t.Fatalf("want a three-level tree, root at level %d (%v)", v.level(), err)
	} else {
		v.release()
	}

	var lsn atomic.Int64
	nextLSN := func() wal.LSN { return wal.LSN(lsn.Add(1)) }
	const writers, opsPerWriter = 4, 4000

	withDeadlockWatchdog(t, 120*time.Second, func() {
		var writersWG, readersWG sync.WaitGroup
		stop := make(chan struct{})

		// Writer w owns the keys ≡ w (mod writers) of a narrow band, so
		// every writer hits the same few leaves as the others while still
		// knowing what its own keys hold.
		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func(w int) {
				defer writersWG.Done()
				for i := 0; i < opsPerWriter; i++ {
					key := int64(5000 + w + writers*(i%150))
					ver := i/150 + 1
					var err error
					switch (i / 150) % 4 {
					case 0:
						err = tr.Update(ik(key), aliasVal(key, ver, 80), nextLSN()) // same length
					case 1:
						err = tr.Update(ik(key), aliasVal(key, ver, 95), nextLSN()) // grows
					case 2:
						err = tr.Delete(ik(key), nextLSN())
					case 3:
						err = tr.Insert(ik(key), aliasVal(key, ver, 80), nextLSN())
					}
					if err != nil {
						t.Errorf("writer %d op %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		band := keys.Range{Low: ik(4900), High: ik(5800)}
		for r := 0; r < 2; r++ {
			readersWG.Add(4)
			go func() { // scanner over the contended band and its neighbours
				defer readersWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := tr.Scan(band, false, func(k, v []byte) (bool, error) {
						return true, checkAliasVal(k, v)
					})
					if err != nil {
						t.Errorf("scanner: %v", err)
						return
					}
				}
			}()
			go func() { // the same band through the leaves' record tables
				defer readersWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := tr.ScanRecords(band, cache.Keyed, eachRecord(func(k, v []byte, starts []uint16) (bool, error) {
						return true, checkAliasStarts(k, v, starts)
					}))
					if err != nil {
						t.Errorf("record scanner: %v", err)
						return
					}
				}
			}()
			go func(r int) { // one-record scans: a published table, or a walk alone
				defer readersWG.Done()
				for i := r; ; i += 5 {
					select {
					case <-stop:
						return
					default:
					}
					k := ik(int64(5000 + i%600))
					err := tr.ScanRecords(keys.Range{Low: k, High: k, HighIncl: true}, cache.Keyed, eachRecord(func(k, v []byte, starts []uint16) (bool, error) {
						return true, checkAliasStarts(k, v, starts)
					}))
					if err != nil {
						t.Errorf("one-record scanner: %v", err)
						return
					}
				}
			}(r)
			go func(r int) { // point reads
				defer readersWG.Done()
				for i := r; ; i += 3 {
					select {
					case <-stop:
						return
					default:
					}
					k := ik(int64(5000 + i%600))
					v, err := tr.Get(k)
					if errors.Is(err, ErrNotFound) {
						continue
					}
					if err == nil {
						err = checkAliasVal(k, v)
					}
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
				}
			}(r)
		}
		writersWG.Wait()
		close(stop)
		readersWG.Wait()
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := tr.lt.Live(); n != 0 {
		t.Fatalf("%d latches still live", n)
	}
}

// TestScansNeverWriteTheRecordTable checks the loan ScanRecords makes: the
// starts a callback gets are a slice of the leaf's shared record table,
// capacity-clipped, so a callback that appends to them and writes what it
// appended to, and one that points a View at them, leave every leaf's table
// as it was built. And a table is built once per version of a leaf: a
// second pass over unchanged leaves publishes no new one.
func TestScansNeverWriteTheRecordTable(t *testing.T) {
	tr := benchTree(t).HoldsRecords(record.FieldStarts)
	scan := func(fn func(key, val []byte, starts []uint16) (bool, error)) {
		t.Helper()
		if err := tr.ScanRecords(keys.All(), cache.Keyed, eachRecord(fn)); err != nil {
			t.Fatal(err)
		}
	}
	index := func(bn disk.BlockNum) *cache.PageIndex {
		pg, err := tr.pool.Get(bn)
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Release()
		return pg.Index()
	}
	var rec record.View
	scan(func(_, v []byte, starts []uint16) (bool, error) {
		rec.Point(v, starts)
		return true, nil
	})
	leaves, err := tr.AppendLeafRun(nil, keys.All())
	if err != nil {
		t.Fatal(err)
	}
	built := make(map[disk.BlockNum]*cache.PageIndex, len(leaves))
	kept := make(map[disk.BlockNum][]uint16, len(leaves))
	for _, bn := range leaves {
		ix := index(bn)
		if ix == nil || ix.Recs == nil {
			t.Fatalf("leaf %d has no record table after a scan", bn)
		}
		built[bn], kept[bn] = ix, slices.Clone(ix.Recs)
	}
	scan(func(_, v []byte, starts []uint16) (bool, error) {
		grown := append(starts, 0xffff)
		grown[len(starts)-1] = 0xffff
		rec.Point(v, starts)
		return true, nil
	})
	for _, bn := range leaves {
		ix := index(bn)
		if ix != built[bn] {
			t.Fatalf("leaf %d: a scan of unchanged bytes published a new index", bn)
		}
		if !slices.Equal(ix.Recs, kept[bn]) {
			t.Fatalf("leaf %d: a scan wrote its record table", bn)
		}
	}
}

// TestColumnsUnderConcurrentSplices has scanners build and publish the
// contended leaves' columns (Run.Column) while writers splice the same
// leaves every way TestViewsUnderConcurrentSplices's do, and drop their
// sidecars with every splice. Every column entry a scanner is lent must be
// what a fresh decode of its record's bytes finds, the VARCHAR field must
// never be a column, a run of more than one record must have columns for
// the two INTEGER fields, and every record must lie in the scanned range,
// whose upper edge each leaf tests against its sidecar's copy of its last
// key — and every record of a key no writer touches must be met.
func TestColumnsUnderConcurrentSplices(t *testing.T) {
	tr, _, _ := newTestTree(t, 2048)
	tr.HoldsRecords(record.FieldStarts)
	const rows = 12000
	recs := make([]KV, rows)
	for i := range recs {
		recs[i] = KV{Key: ik(int64(i)), Val: aliasVal(int64(i), 0, 80)}
	}
	if err := tr.BulkLoad(recs, 1); err != nil {
		t.Fatal(err)
	}
	var lsn atomic.Int64
	const writers, opsPerWriter = 4, 1200
	withDeadlockWatchdog(t, 120*time.Second, func() {
		var writersWG, readersWG sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func(w int) {
				defer writersWG.Done()
				for i := 0; i < opsPerWriter; i++ {
					key, ver, at := int64(5000+w+writers*(i%150)), i/150+1, wal.LSN(lsn.Add(1))
					var err error
					switch (i / 150) % 4 {
					case 0:
						err = tr.Update(ik(key), aliasVal(key, ver, 80), at)
					case 1:
						err = tr.Update(ik(key), aliasVal(key, ver, 95), at)
					case 2:
						err = tr.Delete(ik(key), at)
					case 3:
						err = tr.Insert(ik(key), aliasVal(key, ver, 80), at)
					}
					if err != nil {
						t.Errorf("writer %d op %d: %v", w, i, err)
						return
					}
				}
			}(w)
		}
		for r := 0; r < 3; r++ {
			readersWG.Add(1)
			go func(r int) {
				defer readersWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					lo, hi := int64(4900+r*37+i%50), int64(5300+r*101+i%300)
					band := keys.Range{Low: ik(lo), High: ik(hi)}
					stable := 0 // records of keys no writer touches
					err := tr.ScanRecords(band, cache.Keyed, func(run Run) (bool, error) {
						for j := range run.Len() {
							if k := run.Key(j); bytes.Compare(k, ik(5000)) < 0 || bytes.Compare(k, ik(5600)) >= 0 {
								stable++
							}
						}
						return true, checkColumns(&run, lo, hi)
					})
					if err != nil {
						t.Errorf("column scanner: %v", err)
						return
					}
					if want := max(0, min(hi, 5000)-lo) + max(0, hi-max(lo, 5600)); stable != int(want) {
						t.Errorf("a scan of [%d, %d) met %d records of keys no writer touches, want %d", lo, hi, stable, want)
						return
					}
				}
			}(r)
		}
		writersWG.Wait()
		close(stop)
		readersWG.Wait()
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// checkColumns holds one run's columns to a fresh decode of its records,
// which must lie in [lo, hi).
func checkColumns(run *Run, lo, hi int64) error {
	if _, _, ok := run.Column(2, numericField); ok {
		return fmt.Errorf("the VARCHAR field is a column")
	}
	for f := range 2 {
		kinds, vals, ok := run.Column(f, numericField)
		if !ok {
			if run.Len() > 1 {
				return fmt.Errorf("a run of %d records has no column %d", run.Len(), f)
			}
			continue
		}
		if len(kinds) != run.Len() || len(vals) != run.Len() {
			return fmt.Errorf("column %d has %d and %d entries for %d records", f, len(kinds), len(vals), run.Len())
		}
		for j := range run.Len() {
			val, starts := run.Record(j)
			if err := checkAliasStarts(run.Key(j), val, starts); err != nil {
				return err
			}
			row, _ := record.Decode(val)
			if record.Type(kinds[j]) != record.TypeInt || int64(vals[j]) != row[f].I {
				return fmt.Errorf("record %d field %d: column entry %d %d, the record holds %v", j, f, kinds[j], int64(vals[j]), row[f])
			}
			if row[0].I < lo || row[0].I >= hi {
				return fmt.Errorf("record %d lies outside [%d, %d)", row[0].I, lo, hi)
			}
		}
	}
	return nil
}

// TestScanPartFollowsTheLeaf pins the sidecar's scan part to the bytes it
// was built from: a multi-record scan builds it with a copy of the leaf's
// last key, a splice drops it, and a range scan whose upper bound lies
// between the leaf's old last key and a key spliced in after it stops at
// the bound — an edge test against a stale copy would hand the new key
// over.
func TestScanPartFollowsTheLeaf(t *testing.T) {
	tr, pool, _ := newTestTree(t, 256)
	tr.HoldsRecords(record.FieldStarts)
	recs := make([]KV, 3000)
	for i := range recs {
		recs[i] = KV{Key: ik(int64(2 * i)), Val: aliasVal(int64(2*i), 0, 20)}
	}
	if err := tr.BulkLoad(recs, 1); err != nil {
		t.Fatal(err)
	}
	count := func(r keys.Range) (n int) {
		t.Helper()
		if err := tr.ScanRecords(r, cache.Keyed, eachRecord(func(k, v []byte, starts []uint16) (bool, error) {
			n++
			return true, checkAliasStarts(k, v, starts)
		})); err != nil {
			t.Fatal(err)
		}
		return n
	}
	index := func(bn disk.BlockNum) *cache.PageIndex {
		pg, err := pool.Get(bn)
		if err != nil {
			t.Fatal(err)
		}
		defer pg.Release()
		return pg.Index()
	}
	count(keys.All())
	leaves, err := tr.AppendLeafRun(nil, keys.All())
	if err != nil || len(leaves) < 5 {
		t.Fatalf("%d leaves, %v", len(leaves), err)
	}
	bn := leaves[3]
	ix := index(bn)
	if ix.Scan == nil || len(ix.Scan.Cols) != 3 {
		t.Fatalf("leaf %d: no scan part, or not one column slot per field, after a scan: %+v", bn, ix.Scan)
	}
	pg, _ := pool.Get(bn)
	v := pageView{pg: pg, buf: pg.Data(), ix: ix}
	last := slices.Clone(v.key(v.n() - 1))
	v.release()
	if !bytes.Equal(ix.Scan.LastKey, last) {
		t.Fatalf("leaf %d: the scan part's last key %x, the leaf's %x", bn, ix.Scan.LastKey, last)
	}
	var lastID int64
	for i, r := range recs {
		if bytes.Equal(r.Key, last) {
			lastID = int64(2 * i)
		}
	}
	// Room first, then a key after the leaf's last: both splices.
	if err := tr.Delete(ik(lastID-2), 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(ik(lastID+1), aliasVal(lastID+1, 0, 20), 3); err != nil {
		t.Fatal(err)
	}
	if ix := index(bn); ix == nil || ix.Scan != nil || ix.Recs != nil {
		t.Fatalf("leaf %d: the splices left a record table or a scan part: %+v", bn, ix)
	}
	// [last-10, last+1) holds last-10, -8, -6, -4 and last.
	if n := count(keys.Range{Low: ik(lastID - 10), High: ik(lastID + 1)}); n != 5 {
		t.Fatalf("[%d, %d) holds 5 records, the scan met %d", lastID-10, lastID+1, n)
	}
	if n := count(keys.Range{Low: ik(lastID - 10), High: ik(lastID + 1), HighIncl: true}); n != 6 {
		t.Fatalf("[%d, %d] holds 6 records, the scan met %d", lastID-10, lastID+1, n)
	}
}
