package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/keys"
	"nonstopsql/internal/wal"
)

// editVal is a record of the Edit property test: the key, a tag byte and
// the tag repeated pad times — so a reader can tell a whole record from a
// torn one without knowing which version it should see.
func editVal(key []byte, tag byte, pad int) []byte {
	v := append(append([]byte(nil), key...), tag)
	return append(v, bytes.Repeat([]byte{tag}, pad)...)
}

// wellFormed reports whether val is a whole editVal record of key.
func wellFormed(key, val []byte) bool {
	if len(val) < len(key)+1 || !bytes.Equal(val[:len(key)], key) {
		return false
	}
	tag := val[len(key)]
	for _, b := range val[len(key)+1:] {
		if b != tag {
			return false
		}
	}
	return true
}

var errRefused = errors.New("refused by the edit function")

// TestEditProperty runs Tree.Edit against a reference map while point
// readers and range scanners run over the same leaves. Each writer owns
// the keys that are its number modulo the writer count — the key lock a
// Disk Process holds — and checks every look Edit gives it against its
// map: the record it was shown, borrowed from the leaf, is the one it
// last stored, and the function runs exactly once per Edit. Its answers
// are random: keep, refuse with an error, remove, or store a record small
// or large. The test runs in three phases, and checks that each exercised
// what it is for: filling with small records; then only rewriting records
// that are there, small to large and back, so that every leaf split is a
// found record that outgrew its leaf — Edit's split fallback, with the
// value it was given; then removing every record, so that leaves empty
// and collapse — its collapse fallback. Readers check that every record
// they meet is whole and in its key's place, and scanners that keys come
// in order. At the end the tree validates and holds exactly the union of
// the maps.
func TestEditProperty(t *testing.T) {
	tr, _, _ := newTestTree(t, 1024)
	const (
		writers = 4
		perW    = 250
		steps   = 1500
	)
	var lsn atomic.Int64
	nextLSN := func() wal.LSN { return wal.LSN(lsn.Add(1)) }
	refs := make([]map[string][]byte, writers)
	for w := range refs {
		refs[w] = make(map[string][]byte)
	}

	// edit runs one Edit for writer w on key k with the answer decide
	// gives, checking the look against the writer's map and applying the
	// outcome to it.
	edit := func(w int, k []byte, decide func(found bool) (Edit, error)) error {
		ref := refs[w]
		want, there := ref[string(k)]
		calls := 0
		var ans Edit
		err := tr.Edit(k, func(val []byte, found bool) (Edit, error) {
			calls++
			if found != there || found && !bytes.Equal(val, want) {
				return Edit{}, fmt.Errorf("key %x: shown %q (found %v), stored %q (there %v)", k, val, found, want, there)
			}
			var err error
			ans, err = decide(found)
			return ans, err
		})
		if calls != 1 {
			return fmt.Errorf("key %x: edit function ran %d times", k, calls)
		}
		switch {
		case errors.Is(err, errRefused):
			return nil
		case err != nil:
			return err
		case ans.Op == Put:
			ref[string(k)] = ans.Val
		case ans.Op == Remove:
			delete(ref, string(k))
		}
		return nil
	}
	keyOf := func(w, i int) []byte { return ik(int64(i*writers + w)) }
	leaves := func() int {
		run, err := tr.AppendLeafRun(nil, keys.All())
		if err != nil {
			t.Error(err)
		}
		return len(run)
	}
	phase := func(name string, step func(w int, r *rand.Rand, i int) error, n int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < n; i++ {
					if err := step(w, r, i); err != nil {
						t.Errorf("%s, writer %d: %v", name, w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	withDeadlockWatchdog(t, 120*time.Second, func() {
		stop := make(chan struct{})
		var aux sync.WaitGroup
		for g := 0; g < 2; g++ {
			aux.Add(2)
			go func(g int) { // point reads
				defer aux.Done()
				r := rand.New(rand.NewSource(int64(100 + g)))
				var buf []byte
				for {
					select {
					case <-stop:
						return
					default:
					}
					k := ik(int64(r.Intn(perW * writers)))
					var err error
					buf, err = tr.AppendGet(buf[:0], k)
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("get %x: %v", k, err)
						return
					}
					if err == nil && !wellFormed(k, buf) {
						t.Errorf("get %x: torn record %q", k, buf)
						return
					}
				}
			}(g)
			go func() { // scans
				defer aux.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					var last []byte
					err := tr.Scan(keys.All(), false, func(k, v []byte) (bool, error) {
						if last != nil && bytes.Compare(last, k) >= 0 {
							return false, fmt.Errorf("scan: key %x after %x", k, last)
						}
						if !wellFormed(k, v) {
							return false, fmt.Errorf("scan: torn record %q under %x", v, k)
						}
						last = append(last[:0], k...)
						return true, nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}

		// Fill: small records, now and then a refusal or a keep.
		phase("fill", func(w int, r *rand.Rand, i int) error {
			k := keyOf(w, i)
			return edit(w, k, func(found bool) (Edit, error) {
				switch r.Intn(10) {
				case 0:
					return Edit{}, errRefused
				case 1:
					return Edit{Op: Keep}, nil
				}
				return Edit{Op: Put, Val: editVal(k, byte('a'+r.Intn(26)), r.Intn(16)), LSN: nextLSN()}, nil
			})
		}, perW)
		filled := leaves()

		// Rewrite what is there, small to large and back.
		phase("rewrite", func(w int, r *rand.Rand, _ int) error {
			k := keyOf(w, r.Intn(perW))
			return edit(w, k, func(found bool) (Edit, error) {
				if !found || r.Intn(8) == 0 {
					return Edit{Op: Keep}, nil
				}
				pad := r.Intn(16)
				if r.Intn(2) == 0 {
					pad = 200 + r.Intn(500)
				}
				return Edit{Op: Put, Val: editVal(k, byte('a'+r.Intn(26)), pad), LSN: nextLSN()}, nil
			})
		}, steps)
		grown := leaves()
		if grown <= filled {
			t.Errorf("rewriting records in place left %d leaves from %d: no found record outgrew its leaf", grown, filled)
		}

		// Remove everything.
		phase("remove", func(w int, r *rand.Rand, i int) error {
			k := keyOf(w, i)
			return edit(w, k, func(found bool) (Edit, error) {
				if !found {
					return Edit{Op: Keep}, nil
				}
				return Edit{Op: Remove, LSN: nextLSN()}, nil
			})
		}, perW)
		if emptied := leaves(); emptied >= grown {
			t.Errorf("removing every record left %d leaves of %d: no emptied leaf collapsed", emptied, grown)
		}
		close(stop)
		aux.Wait()
	})

	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := tr.Count(keys.All())
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("%d records left after removing them all", n)
	}
	if !t.Failed() {
		for w := range refs {
			if len(refs[w]) != 0 {
				t.Errorf("writer %d's map still holds %d records", w, len(refs[w]))
			}
		}
	}
}

// TestEditFallbackRunsTheAnswer pins the single-call contract on the two
// fallbacks deterministically: a record rewritten to a size that no
// longer fits its full leaf, and the removal of the last record of a
// leaf that is not the first under its parent, each go the pessimistic
// way with the answer the function already gave — it runs once — and
// land as given.
func TestEditFallbackRunsTheAnswer(t *testing.T) {
	tr, _, _ := newTestTree(t, 256)
	for i := int64(0); i < 400; i++ {
		if err := tr.Insert(ik(i), bytes.Repeat([]byte{'s'}, 40), wal.LSN(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	before := len(mustLeafRun(t, tr))
	big := bytes.Repeat([]byte{'B'}, 3000)
	calls := 0
	if err := tr.Edit(ik(200), func(val []byte, found bool) (Edit, error) {
		calls++
		return Edit{Op: Put, Val: big, LSN: 1000}, nil
	}); err != nil || calls != 1 {
		t.Fatalf("growing edit: %v, %d calls", err, calls)
	}
	if got, err := tr.Get(ik(200)); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("grown record reads %d bytes, %v", len(got), err)
	}
	after := len(mustLeafRun(t, tr))
	if after <= before {
		t.Errorf("the grown record split nothing: %d leaves, %d before", after, before)
	}
	// Empty the last leaf record by record: its final removal collapses it.
	last := mustLeafRun(t, tr)
	lastLeaf := last[len(last)-1]
	for i := int64(399); i >= 0; i-- {
		run := mustLeafRun(t, tr)
		if run[len(run)-1] != lastLeaf {
			break // the leaf is gone
		}
		calls = 0
		if err := tr.Edit(ik(i), func(val []byte, found bool) (Edit, error) {
			calls++
			return Edit{Op: Remove, LSN: wal.LSN(2000 + i)}, nil
		}); err != nil || calls != 1 {
			t.Fatalf("removing %d: %v, %d calls", i, err, calls)
		}
	}
	if run := mustLeafRun(t, tr); run[len(run)-1] == lastLeaf {
		t.Error("emptying the last leaf did not collapse it")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Removing what is not there is refused, and nothing changes.
	if err := tr.Edit(ik(399), func([]byte, bool) (Edit, error) { return Edit{Op: Remove, LSN: 3000}, nil }); !errors.Is(err, ErrNotFound) {
		t.Errorf("removing an absent key: %v", err)
	}
}

func mustLeafRun(t *testing.T, tr *Tree) []uint32 {
	t.Helper()
	run, err := tr.AppendLeafRun(nil, keys.All())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(run))
	for i, bn := range run {
		out[i] = uint32(bn)
	}
	return out
}
