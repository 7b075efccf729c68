package btree

import (
	"math/rand"
	"strings"
	"testing"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// The micro rung for the tree: one resident three-level file of rows
// shaped like the wall-clock benchmark's acct table (id, grp, bal,
// 64-byte pad), and the four calls the Disk Process makes on it. Run
// with -benchtime=Nx to compare two commits at the same tree size:
// BenchmarkInsert grows the file as it goes.
const benchRows = 40000

// benchKey spreads the loaded rows 1<<24 apart so inserts have gaps to
// fill all over the key space.
func benchKey(i int) []byte { return ik(int64(i) << 24) }

func acctRow(id int) []byte {
	return record.Encode(record.Row{
		record.Int(int64(id)), record.Int(int64(id % 100)), record.Float(1000),
		record.String(strings.Repeat("p", 64)),
	})
}

func benchTree(tb testing.TB) *Tree {
	tb.Helper()
	tr, _, _ := newTestTree(tb, 1<<14)
	recs := make([]KV, benchRows)
	for i := range recs {
		recs[i] = KV{Key: benchKey(i), Val: acctRow(i)}
	}
	if err := tr.BulkLoad(recs, 0); err != nil {
		tb.Fatal(err)
	}
	v, err := tr.view(tr.Root(), cache.Keyed)
	if err != nil {
		tb.Fatal(err)
	}
	if v.level() != 2 {
		tb.Fatalf("bench tree has its root at level %d, want 2 (three levels)", v.level())
	}
	v.release()
	return tr
}

var benchSink int

func BenchmarkGet(b *testing.B) {
	tr := benchTree(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := tr.Get(benchKey(rng.Intn(benchRows)))
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(v)
	}
}

// BenchmarkScanRow reports time and allocations per record visited by
// full scans.
func BenchmarkScanRow(b *testing.B) {
	tr := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		err := tr.Scan(keys.All(), false, func(k, v []byte) (bool, error) {
			benchSink += len(v)
			done++
			return done < b.N, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateSameLen(b *testing.B) {
	tr := benchTree(b)
	rng := rand.New(rand.NewSource(1))
	val := acctRow(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Update(benchKey(rng.Intn(benchRows)), val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := benchTree(b)
	rng := rand.New(rand.NewSource(1))
	val := acctRow(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh key in a random gap: unique for the first 1<<24 inserts.
		key := ik(int64(rng.Intn(benchRows))<<24 + int64(i) + 1)
		if err := tr.Insert(key, val, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllocationCeilings pins what reading pages in place bought: on a
// warm three-level tree a descent allocates nothing, a point read
// allocates only the copy it returns, a scan allocates nothing however
// many records it visits, and a same-length update allocates nothing. A
// point read into a buffer of the caller's (AppendGet: the Disk
// Process's service slot) allocates nothing at all.
// A record scan over warm leaves allocates nothing either — their record
// tables are built — and after a write to one of its leaves it pays for
// that leaf's new table and nothing per record: a table costs a constant
// per version of a leaf, none per visit. A regression here is a copy (or
// a boxed value, or a closure) that crept back onto the Disk Process's
// hottest paths.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tr := benchTree(t).HoldsRecords(record.FieldStarts)
	key := benchKey(benchRows / 3)
	val := acctRow(7)
	var into []byte
	scanned := 0
	scanRecords := func() {
		n := 0
		err := tr.ScanRecords(keys.Range{Low: key}, cache.Keyed, func(run Run) (bool, error) {
			for j := 0; j < run.Len() && n < 1000; j++ {
				_, starts := run.Record(j)
				scanned += len(starts) + len(run.Key(j))
				n++
			}
			return n < 1000, nil
		})
		if err != nil || n != 1000 {
			t.Fatal(n, err)
		}
	}
	scanColumn := func() {
		n := 0
		err := tr.ScanRecords(keys.Range{Low: key}, cache.Keyed, func(run Run) (bool, error) {
			kinds, vals, ok := run.Column(0, numericField)
			if run.Len() > 1 && !ok {
				t.Fatal("field 0 is no column")
			}
			for j := 0; j < len(kinds) && n < 1000; j++ {
				scanned += int(kinds[j]) + int(vals[j]&1)
				n++
			}
			return n < 1000, nil
		})
		if err != nil || n < 1000 {
			t.Fatal(n, err)
		}
	}
	ceilings := []struct {
		name string
		max  float64
		op   func()
	}{
		{"warm descent", 0, func() {
			_, pl, v, err := tr.descend(key, latchShared, cache.Keyed)
			if err != nil {
				t.Fatal(err)
			}
			v.release()
			pl.release()
		}},
		{"Get", 1, func() {
			if _, err := tr.Get(key); err != nil {
				t.Fatal(err)
			}
		}},
		{"AppendGet into a buffer of the caller's", 0, func() {
			var err error
			if into, err = tr.AppendGet(into[:0], key); err != nil {
				t.Fatal(err)
			}
		}},
		{"Scan of 1000 records", 0, func() {
			n := 0
			err := tr.Scan(keys.Range{Low: key}, false, func(k, v []byte) (bool, error) {
				n++
				scanned += len(v)
				return n < 1000, nil
			})
			if err != nil || n != 1000 {
				t.Fatal(n, err)
			}
		}},
		{"same-length Update", 0, func() {
			if err := tr.Update(key, val, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"ScanRecords of 1000 records", 0, scanRecords},
		// Two slices (the table is sized after its first record), the
		// PageIndex that publishes them with its scan part in one
		// allocation, the scan part's copy of the last key and its column
		// slots.
		{"ScanRecords of 1000 records after a write to one of their leaves", 5, func() {
			if err := tr.Update(key, val, 0); err != nil {
				t.Fatal(err)
			}
			scanRecords()
		}},
		{"ScanRecords of 1000 records reading a column", 0, scanColumn},
		// And the column of that leaf: its entries' two slices and the
		// Column that publishes them.
		{"ScanRecords of 1000 records reading a column after a write to one of their leaves", 8, func() {
			if err := tr.Update(key, val, 0); err != nil {
				t.Fatal(err)
			}
			scanColumn()
		}},
	}
	for _, c := range ceilings {
		c.op() // warm: build the offset tables this path visits
		if got := testing.AllocsPerRun(200, c.op); got > c.max {
			t.Errorf("%s: %.1f allocations per run, ceiling %.0f", c.name, got, c.max)
		}
	}
}
