package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/wal"
)

// aliasVal builds a record that names its own key and version and whose
// padding is a run of one version-derived byte, so a reader handed a
// half-spliced record — old header with new padding, a tail mid-move, a
// neighbour's bytes — can tell.
func aliasVal(key int64, ver, pad int) []byte {
	b := fmt.Appendf(nil, "%08d|%06d|%03d|", key, ver, pad)
	return append(b, bytes.Repeat([]byte{byte('a' + ver%26)}, pad)...)
}

func checkAliasVal(k, v []byte) error {
	var key int64
	var ver, pad int
	if _, err := fmt.Sscanf(string(v[:min(len(v), 20)]), "%08d|%06d|%03d|", &key, &ver, &pad); err != nil {
		return fmt.Errorf("unparseable record %q: %v", v, err)
	}
	if !bytes.Equal(k, ik(key)) {
		return fmt.Errorf("record of key %d stored under another key", key)
	}
	if want := aliasVal(key, ver, pad); !bytes.Equal(v, want) {
		return fmt.Errorf("torn record for key %d: %q", key, v)
	}
	return nil
}

// TestViewsUnderConcurrentSplices runs scanners and point reads through
// zero-copy views of a three-level tree while writers rewrite the same
// leaves underneath them every way a leaf-local write can: same-length
// overwrite, growing update (tail moves right), delete (tail moves
// left), insert. Readers check every record they are shown where it
// lies; the race detector checks the latch and pin discipline; Validate
// checks the tree at the end.
func TestViewsUnderConcurrentSplices(t *testing.T) {
	tr, _, _ := newTestTree(t, 2048)
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
		for r := 0; r < 2; r++ {
			readersWG.Add(2)
			go func() { // scanner over the contended band and its neighbours
				defer readersWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := tr.Scan(keys.Range{Low: ik(4900), High: ik(5800)}, false, func(k, v []byte) (bool, error) {
						return true, checkAliasVal(k, v)
					})
					if err != nil {
						t.Errorf("scanner: %v", err)
						return
					}
				}
			}()
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
