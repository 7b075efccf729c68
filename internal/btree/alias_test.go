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
	if n := tr.Latches().Live(); n != 0 {
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
	leaves, err := tr.LeafRun(keys.All())
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
