package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/keys"
	"nonstopsql/internal/wal"
)

// withDeadlockWatchdog fails the test if fn does not return in time —
// the latch-crabbing protocol must never cycle, and a hang here is a
// latch-ordering bug, not a slow machine.
func withDeadlockWatchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("deadlock: concurrent tree operations did not finish")
	}
}

// TestConcurrentMixed runs readers, writers, and scanners against one
// tree at once. Each writer owns a disjoint key stripe so the final
// contents are exactly predictable; scanners assert ordering and
// stripe-consistency on every pass.
func TestConcurrentMixed(t *testing.T) {
	tr, _, _ := newTestTree(t, 128)
	var lsn atomic.Int64
	nextLSN := func() wal.LSN { return wal.LSN(lsn.Add(1)) }

	const (
		writers = 4
		stripe  = 1 << 20 // key space per writer
		perW    = 400
	)
	val := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%04d", w, i)) }

	withDeadlockWatchdog(t, 60*time.Second, func() {
		var writersWG, auxWG sync.WaitGroup
		stop := make(chan struct{})

		// Writers: insert their stripe, update the first half, delete
		// every third key — splits and collapses both happen.
		for w := 0; w < writers; w++ {
			writersWG.Add(1)
			go func(w int) {
				defer writersWG.Done()
				base := int64(w * stripe)
				for i := 0; i < perW; i++ {
					if err := tr.Insert(ik(base+int64(i)), val(w, i), nextLSN()); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < perW/2; i++ {
					if err := tr.Update(ik(base+int64(i)), val(w, i+perW), nextLSN()); err != nil {
						t.Error(err)
						return
					}
				}
				for i := 0; i < perW; i += 3 {
					if err := tr.Delete(ik(base+int64(i)), nextLSN()); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}

		// Readers: point-get random keys from every stripe. ErrNotFound
		// is expected (the key may not be inserted yet, or already
		// deleted); anything else is a bug.
		for r := 0; r < 2; r++ {
			auxWG.Add(1)
			go func(r int) {
				defer auxWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := ik(int64((i%writers)*stripe + (i*7)%perW))
					if _, err := tr.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("reader: %v", err)
						return
					}
				}
			}(r)
		}

		// Scanner: full-range scans must always yield strictly
		// increasing keys, and every record's value must match its
		// stripe (no torn pages, no cross-stripe bleed).
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev []byte
				err := tr.Scan(keys.Range{}, false, func(k, v []byte) (bool, error) {
					if prev != nil && keys.Compare(prev, k) >= 0 {
						return false, fmt.Errorf("scan out of order")
					}
					prev = append(prev[:0], k...)
					dec, _, err := keys.DecodeNext(k)
					if err != nil {
						return false, err
					}
					kv := dec.(int64)
					if w := int(kv) / stripe; !bytes.HasPrefix(v, []byte(fmt.Sprintf("w%d-", w))) {
						return false, fmt.Errorf("key %d has foreign value %q", kv, v)
					}
					return true, nil
				})
				if err != nil {
					t.Errorf("scanner: %v", err)
					return
				}
			}
		}()

		writersWG.Wait()
		close(stop) // readers and the scanner loop until told to stop
		auxWG.Wait()
	})
	if t.Failed() {
		return
	}

	// Final state: each stripe holds exactly the non-deleted keys with
	// the last written value.
	for w := 0; w < writers; w++ {
		base := int64(w * stripe)
		for i := 0; i < perW; i++ {
			got, err := tr.Get(ik(base + int64(i)))
			if i%3 == 0 {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("w%d key %d: expected deleted, got %q err %v", w, i, got, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("w%d key %d: %v", w, i, err)
			}
			want := val(w, i)
			if i < perW/2 {
				want = val(w, i+perW)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("w%d key %d: got %q want %q", w, i, got, want)
			}
		}
	}
	n, err := tr.Count(keys.Range{})
	if err != nil {
		t.Fatal(err)
	}
	deleted := (perW + 2) / 3
	if want := writers * (perW - deleted); n != want {
		t.Fatalf("count %d, want %d", n, want)
	}

	st := tr.lt.Stats()
	if st.SharedGrants == 0 || st.ExclusiveGrants == 0 {
		t.Fatalf("latch stats not collected: %+v", st)
	}
	if st.MaxOps < 2 {
		t.Errorf("expected overlapping tree ops, max in-flight %d", st.MaxOps)
	}
}

// TestConcurrentAdjacentSplits is the latch-ordering regression for two
// writers driving splits in adjacent leaves at the same time. Split
// propagation takes the full path exclusively top-down, so the two
// propagations serialize at the shared parent instead of deadlocking
// against each other's leaf latches.
func TestConcurrentAdjacentSplits(t *testing.T) {
	tr, _, _ := newTestTree(t, 128)
	var lsn atomic.Int64
	nextLSN := func() wal.LSN { return wal.LSN(lsn.Add(1)) }

	// Seed two adjacent leaves: a left run and a right run split by a
	// bulk of mid keys, then fatten until the root has split at least
	// once so the two hot leaves share an interior parent.
	pad := bytes.Repeat([]byte("x"), 64)
	for i := int64(0); i < 200; i++ {
		if err := tr.Insert(ik(i*10), pad, nextLSN()); err != nil {
			t.Fatal(err)
		}
	}

	withDeadlockWatchdog(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		// Writer A fills the gaps in the low half, writer B in the high
		// half; both halves keep splitting and posting separators into
		// the same parents.
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := int64(w) * 1000
				for i := lo; i < lo+1000; i++ {
					if i%10 == 0 {
						continue // seeded
					}
					if err := tr.Insert(ik(i), pad, nextLSN()); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})

	n, err := tr.Count(keys.Range{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("count %d, want 2000", n)
	}
}

// TestScanDuringCollapse runs chain scans while a writer empties and
// collapses leaves out of the chain. Scans must keep returning a sorted
// snapshot-free but well-formed view, and the collapser must not
// deadlock against scanners holding leaf latches in chain order.
func TestScanDuringCollapse(t *testing.T) {
	tr, _, _ := newTestTree(t, 128)
	var lsn atomic.Int64
	nextLSN := func() wal.LSN { return wal.LSN(lsn.Add(1)) }

	pad := bytes.Repeat([]byte("y"), 100)
	const n = 1500
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(ik(i), pad, nextLSN()); err != nil {
			t.Fatal(err)
		}
	}

	withDeadlockWatchdog(t, 60*time.Second, func() {
		var wg sync.WaitGroup
		stop := make(chan struct{})

		wg.Add(1)
		go func() { // scanner
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var prev []byte
				count := 0
				err := tr.Scan(keys.Range{}, true, func(k, _ []byte) (bool, error) {
					if prev != nil && keys.Compare(prev, k) >= 0 {
						return false, fmt.Errorf("scan out of order during collapse")
					}
					prev = append(prev[:0], k...)
					count++
					return true, nil
				})
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if count > n {
					t.Errorf("scan saw %d records, max %d", count, n)
					return
				}
			}
		}()

		// Collapser: delete everything back-to-front so leaves empty
		// and get unlinked from the chain while scans traverse it.
		for i := int64(n - 1); i >= 0; i-- {
			if err := tr.Delete(ik(i), nextLSN()); err != nil {
				t.Errorf("delete %d: %v", i, err)
				break
			}
		}
		close(stop)
		wg.Wait()
	})

	left, err := tr.Count(keys.Range{})
	if err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("tree not empty after full delete: %d", left)
	}
}
