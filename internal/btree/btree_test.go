package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/keys"
)

func newTestTree(t testing.TB, cap int) (*Tree, *cache.Pool, *disk.Volume) {
	t.Helper()
	v := disk.NewVolume("$DATA", false)
	p := cache.NewPool(v, cap, nil)
	tr, err := New(p, v, "EMP", nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p, v
}

func ik(v int64) []byte { return keys.AppendInt64(nil, v) }

func TestInsertGet(t *testing.T) {
	tr, _, _ := newTestTree(t, 64)
	if err := tr.Insert(ik(1), []byte("one"), 1); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(ik(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one" {
		t.Errorf("got %q", got)
	}
	if _, err := tr.Get(ik(2)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: %v", err)
	}
}

func TestDuplicateInsert(t *testing.T) {
	tr, _, _ := newTestTree(t, 64)
	tr.Insert(ik(1), []byte("a"), 1)
	if err := tr.Insert(ik(1), []byte("b"), 2); !errors.Is(err, ErrDuplicate) {
		t.Errorf("got %v", err)
	}
}

func TestUpdate(t *testing.T) {
	tr, _, _ := newTestTree(t, 64)
	tr.Insert(ik(1), []byte("a"), 1)
	if err := tr.Update(ik(1), []byte("bb"), 2); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Get(ik(1))
	if string(got) != "bb" {
		t.Errorf("got %q", got)
	}
	if err := tr.Update(ik(9), []byte("x"), 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("got %v", err)
	}
}

func TestUpsert(t *testing.T) {
	tr, _, _ := newTestTree(t, 64)
	if err := tr.Upsert(ik(1), []byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Upsert(ik(1), []byte("b"), 2); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.Get(ik(1))
	if string(got) != "b" {
		t.Errorf("got %q", got)
	}
}

func TestDelete(t *testing.T) {
	tr, _, _ := newTestTree(t, 64)
	tr.Insert(ik(1), []byte("a"), 1)
	if err := tr.Delete(ik(1), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(ik(1)); !errors.Is(err, ErrNotFound) {
		t.Errorf("got %v", err)
	}
	if err := tr.Delete(ik(1), 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestManyInsertsWithSplits(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	const n = 5000
	val := bytes.Repeat([]byte("v"), 40)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(ik(int64(i)), val, 1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Get(ik(int64(i))); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	c, err := tr.Count(keys.All())
	if err != nil || c != n {
		t.Fatalf("count %d err %v", c, err)
	}
}

func TestScanOrderAndRange(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	for i := 0; i < 1000; i++ {
		tr.Insert(ik(int64(i)), []byte(fmt.Sprintf("v%d", i)), 1)
	}
	var got []int64
	r := keys.Range{Low: ik(100), High: ik(199), HighIncl: true}
	err := tr.Scan(r, false, func(k, v []byte) (bool, error) {
		vals, err := keys.Decode(k)
		if err != nil {
			return false, err
		}
		got = append(got, vals[0].(int64))
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("scan returned %d records", len(got))
	}
	for i, v := range got {
		if v != int64(100+i) {
			t.Fatalf("scan out of order at %d: %d", i, v)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	for i := 0; i < 100; i++ {
		tr.Insert(ik(int64(i)), []byte("v"), 1)
	}
	n := 0
	tr.Scan(keys.All(), false, func(_, _ []byte) (bool, error) {
		n++
		return n < 10, nil
	})
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestModelComparison(t *testing.T) {
	// Property-style test: random ops vs a map+sorted-slice model.
	tr, _, _ := newTestTree(t, 512)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 20000; op++ {
		k := ik(int64(rng.Intn(800)))
		ks := string(k)
		switch rng.Intn(4) {
		case 0: // insert
			v := fmt.Sprintf("val-%d", op)
			err := tr.Insert(k, []byte(v), 1)
			if _, exists := model[ks]; exists {
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("op %d: dup insert err=%v", op, err)
				}
			} else {
				if err != nil {
					t.Fatalf("op %d: insert: %v", op, err)
				}
				model[ks] = v
			}
		case 1: // update
			v := fmt.Sprintf("upd-%d", op)
			err := tr.Update(k, []byte(v), 1)
			if _, exists := model[ks]; exists {
				if err != nil {
					t.Fatalf("op %d: update: %v", op, err)
				}
				model[ks] = v
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: update missing err=%v", op, err)
			}
		case 2: // delete
			err := tr.Delete(k, 1)
			if _, exists := model[ks]; exists {
				if err != nil {
					t.Fatalf("op %d: delete: %v", op, err)
				}
				delete(model, ks)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: delete missing err=%v", op, err)
			}
		case 3: // get
			got, err := tr.Get(k)
			if want, exists := model[ks]; exists {
				if err != nil || string(got) != want {
					t.Fatalf("op %d: get=%q,%v want %q", op, got, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: get missing err=%v", op, err)
			}
		}
	}
	// Final full-scan comparison.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	var gotKeys []string
	tr.Scan(keys.All(), false, func(k, v []byte) (bool, error) {
		gotKeys = append(gotKeys, string(k))
		if model[string(k)] != string(v) {
			t.Fatalf("scan value mismatch at %x", k)
		}
		return true, nil
	})
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("scan found %d keys, model has %d", len(gotKeys), len(wantKeys))
	}
	for i := range gotKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key order diverges at %d", i)
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Insert(ik(int64(i)), bytes.Repeat([]byte("x"), 30), 1)
	}
	for i := 0; i < n; i++ {
		if err := tr.Delete(ik(int64(i)), 1); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	c, _ := tr.Count(keys.All())
	if c != 0 {
		t.Fatalf("count %d after deleting all", c)
	}
	// Tree is reusable after total collapse.
	if err := tr.Insert(ik(5), []byte("again"), 1); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(ik(5))
	if err != nil || string(got) != "again" {
		t.Fatalf("reuse failed: %q %v", got, err)
	}
}

func TestRootNeverMoves(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	root := tr.Root()
	for i := 0; i < 3000; i++ {
		tr.Insert(ik(int64(i)), bytes.Repeat([]byte("y"), 50), 1)
	}
	if tr.Root() != root {
		t.Error("root block moved")
	}
}

func TestPersistenceThroughPool(t *testing.T) {
	// Write through one pool, flush, crash the pool, reopen: data must
	// come back from the volume.
	v := disk.NewVolume("$DATA", false)
	p := cache.NewPool(v, 64, nil)
	tr, err := New(p, v, "EMP", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tr.Insert(ik(int64(i)), []byte(fmt.Sprintf("v%d", i)), 1)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	tr2 := Open(p, v, "EMP", tr.Root(), nil)
	for i := 0; i < 500; i++ {
		got, err := tr2.Get(ik(int64(i)))
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopen get %d: %q %v", i, got, err)
		}
	}
}

func TestBulkLoadContiguousLeaves(t *testing.T) {
	tr, _, _ := newTestTree(t, 512)
	var recs []KV
	for i := 0; i < 3000; i++ {
		recs = append(recs, KV{Key: ik(int64(i)), Val: bytes.Repeat([]byte("z"), 60)})
	}
	if err := tr.BulkLoad(recs, 1); err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Count(keys.All())
	if c != 3000 {
		t.Fatalf("count %d", c)
	}
	leaves, err := tr.AppendLeafRun(nil, keys.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) < 10 {
		t.Fatalf("expected many leaves, got %d", len(leaves))
	}
	contiguous := 0
	for i := 1; i < len(leaves); i++ {
		if leaves[i] == leaves[i-1]+1 {
			contiguous++
		}
	}
	if contiguous < len(leaves)-2 {
		t.Errorf("leaves not contiguous: %d/%d adjacent", contiguous, len(leaves)-1)
	}
	// Point lookups still work.
	if _, err := tr.Get(ik(1234)); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadValidation(t *testing.T) {
	tr, _, _ := newTestTree(t, 64)
	tr.Insert(ik(1), []byte("x"), 1)
	if err := tr.BulkLoad([]KV{{Key: ik(2), Val: []byte("y")}}, 1); err == nil {
		t.Error("bulk load into non-empty tree accepted")
	}
	tr2, _, _ := newTestTree(t, 64)
	if err := tr2.BulkLoad([]KV{{Key: ik(2), Val: []byte("y")}, {Key: ik(1), Val: []byte("x")}}, 1); err == nil {
		t.Error("unsorted bulk load accepted")
	}
	tr3, _, _ := newTestTree(t, 64)
	if err := tr3.BulkLoad(nil, 1); err != nil {
		t.Errorf("empty bulk load: %v", err)
	}
	tr4, _, _ := newTestTree(t, 64)
	if err := tr4.BulkLoad([]KV{{Key: ik(1), Val: bytes.Repeat([]byte("q"), disk.BlockSize)}}, 1); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestLeafRunRangePruning(t *testing.T) {
	tr, _, _ := newTestTree(t, 512)
	var recs []KV
	for i := 0; i < 3000; i++ {
		recs = append(recs, KV{Key: ik(int64(i)), Val: bytes.Repeat([]byte("z"), 60)})
	}
	tr.BulkLoad(recs, 1)
	all, _ := tr.AppendLeafRun(nil, keys.All())
	narrow, err := tr.AppendLeafRun(nil, keys.Range{Low: ik(100), High: ik(150), HighIncl: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) >= len(all)/4 {
		t.Errorf("range pruning weak: %d of %d leaves for 51/3000 keys", len(narrow), len(all))
	}
	// The narrow run must still cover the range.
	var count int
	tr.Scan(keys.Range{Low: ik(100), High: ik(150), HighIncl: true}, false, func(_, _ []byte) (bool, error) {
		count++
		return true, nil
	})
	if count != 51 {
		t.Errorf("scan over pruned range found %d", count)
	}
}

func TestScanWithPrefetchUsesBulkReads(t *testing.T) {
	v := disk.NewVolume("$DATA", false)
	p := cache.NewPool(v, 2048, nil)
	tr, _ := New(p, v, "EMP", nil)
	var recs []KV
	for i := 0; i < 3000; i++ {
		recs = append(recs, KV{Key: ik(int64(i)), Val: bytes.Repeat([]byte("z"), 60)})
	}
	tr.BulkLoad(recs, 1)
	p.FlushAll()
	p.Crash() // cold cache
	v.ResetStats()
	n := 0
	if err := tr.Scan(keys.All(), true, func(_, _ []byte) (bool, error) {
		n++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	p.WaitPrefetch()
	if n != 3000 {
		t.Fatalf("scanned %d", n)
	}
	s := v.Stats()
	if s.BulkReads == 0 {
		t.Error("prefetching scan issued no bulk reads")
	}
	if s.BlocksRead < 10 {
		t.Errorf("suspiciously few blocks: %+v", s)
	}
	// Bulk factor: I/Os should be well under blocks read.
	if s.Reads*3 > s.BlocksRead {
		t.Errorf("weak coalescing: %d reads for %d blocks", s.Reads, s.BlocksRead)
	}
}

func TestLargeValuesAcrossSplit(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	big := bytes.Repeat([]byte("B"), 1500)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(ik(int64(i)), big, 1); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		got, err := tr.Get(ik(int64(i)))
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("get %d failed", i)
		}
	}
}

func TestStringKeys(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	names := []string{"smith", "jones", "o'neill", "", "zzz", "aardvark"}
	for _, n := range names {
		k := keys.AppendString(nil, n)
		if err := tr.Insert(k, []byte("r:"+n), 1); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	tr.Scan(keys.All(), false, func(k, v []byte) (bool, error) {
		vals, _ := keys.Decode(k)
		got = append(got, vals[0].(string))
		return true, nil
	})
	want := append([]string(nil), names...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch: %v vs %v", got, want)
		}
	}
}

func TestRandomRangeScansAgainstModel(t *testing.T) {
	// Property: every random range scan returns exactly the model's keys
	// in that range, in order — after a random mutation history.
	tr, _, _ := newTestTree(t, 512)
	model := map[int64]string{}
	rng := rand.New(rand.NewSource(77))
	for op := 0; op < 5000; op++ {
		k := int64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0:
			v := fmt.Sprintf("v%d", op)
			if _, ok := model[k]; !ok {
				if err := tr.Insert(ik(k), []byte(v), 1); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
		case 1:
			if _, ok := model[k]; ok {
				if err := tr.Delete(ik(k), 1); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			}
		case 2:
			lo := int64(rng.Intn(2000))
			hi := lo + int64(rng.Intn(400))
			var want []int64
			for mk := range model {
				if mk >= lo && mk <= hi {
					want = append(want, mk)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			var got []int64
			err := tr.Scan(keys.Range{Low: ik(lo), High: ik(hi), HighIncl: true}, false,
				func(k, v []byte) (bool, error) {
					vals, err := keys.Decode(k)
					if err != nil {
						return false, err
					}
					kk := vals[0].(int64)
					if model[kk] != string(v) {
						return false, fmt.Errorf("value mismatch at %d", kk)
					}
					got = append(got, kk)
					return true, nil
				})
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if len(got) != len(want) {
				t.Fatalf("op %d: range [%d,%d] got %d keys want %d", op, lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("op %d: order mismatch at %d", op, i)
				}
			}
		}
	}
}
