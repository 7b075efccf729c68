package lock

import (
	"errors"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nonstopsql/internal/keys"
)

// TestRelockAddsNoGrant: a transaction that locks a key it already holds,
// in the same mode or a weaker one, holds one grant however often it asks;
// an S→X upgrade adds the exclusive grant, and waits while another
// transaction shares the key.
func TestRelockAddsNoGrant(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 50 * time.Millisecond
	for i := 0; i < 5; i++ {
		if err := m.LockRecord(1, "EMP", k(5), Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.LockRecord(1, "EMP", k(5), Shared); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.HeldBy(1); n != 1 {
		t.Fatalf("HeldBy = %d after re-locking one key, want 1", n)
	}
	if err := m.LockRecord(2, "EMP", k(5), Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("shared lock beside a re-locked exclusive one: %v", err)
	}

	if err := m.LockRecord(3, "EMP", k(7), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(4, "EMP", k(7), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(3, "EMP", k(7), Shared); err != nil || m.HeldBy(3) != 1 {
		t.Fatalf("shared re-lock: %v, HeldBy %d", err, m.HeldBy(3))
	}
	// The upgrade conflicts with the other reader, and waits for it.
	if err := m.LockRecord(3, "EMP", k(7), Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade beside another reader: %v", err)
	}
	m.ReleaseTx(4)
	if err := m.LockRecord(3, "EMP", k(7), Exclusive); err != nil {
		t.Fatal(err)
	}
	if n := m.HeldBy(3); n != 2 {
		t.Fatalf("HeldBy = %d after an upgrade, want 2 (S and X)", n)
	}
	if err := m.LockRecord(3, "EMP", k(7), Exclusive); err != nil || m.HeldBy(3) != 2 {
		t.Fatalf("re-lock after the upgrade: %v, HeldBy %d", err, m.HeldBy(3))
	}
	if err := m.LockRecord(5, "EMP", k(7), Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("reader beside the upgraded lock: %v", err)
	}
	m.ReleaseTx(3)
	if err := m.LockRecord(5, "EMP", k(7), Shared); err != nil {
		t.Fatal(err)
	}
	if n := m.Held(); n != 2 {
		t.Fatalf("Held = %d, want tx 1's and tx 5's", n)
	}
}

// TestReleaseWakesOnlyItsWaiters: a waiter parked behind transaction A
// stays parked, not woken to look again, when an unrelated transaction B
// ends, and is granted when A ends.
func TestReleaseWakesOnlyItsWaiters(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 5 * time.Second
	const a, b, c = 1, 2, 3
	if err := m.LockRecord(a, "EMP", k(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(b, "EMP", k(2), Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.LockRecord(c, "EMP", k(1), Exclusive) }()
	parked := func() *waiter {
		m.mu.Lock()
		defer m.mu.Unlock()
		for w := range m.waiters {
			return w
		}
		return nil
	}
	var w *waiter
	for w = parked(); w == nil; w = parked() {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseTx(b)
	time.Sleep(20 * time.Millisecond)
	m.mu.Lock()
	_, still := m.waiters[w]
	signalled := len(w.ch)
	m.mu.Unlock()
	if !still || signalled != 0 {
		t.Fatalf("B's release woke a waiter behind A (parked %v, signalled %d)", still, signalled)
	}
	select {
	case err := <-got:
		t.Fatalf("granted before A ended: %v", err)
	default:
	}
	m.ReleaseTx(a)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A's release did not wake its waiter")
	}
}

// held is one grant as the reference model keeps it: every request ever
// granted and not released, re-locks included.
type held struct {
	tx   TxID
	file string
	r    keys.Range
	kind int
	mode Mode
}

// TestConflictSetProperty: over random sequences of record, prefix, range
// and file locks — a record's point taken as a record lock and as a range
// — and transaction releases, the table's conflict set for a request is
// the brute-force one, every other transaction with a grant on the file
// that overlaps the request in a conflicting mode, and a record lock the
// transaction holds at least as strongly is reported held.
func TestConflictSetProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	key := func() []byte {
		return keys.AppendInt64(keys.AppendInt64(nil, r.Int63n(4)), r.Int63n(4))
	}
	request := func() (keys.Range, int) {
		switch r.Intn(6) {
		case 0, 1:
			return keys.Point(key()), points
		case 2:
			return keys.Point(key()), ranges
		case 3:
			return keys.Prefix(keys.AppendInt64(nil, r.Int63n(4))), ranges
		case 4:
			lo, hi := key(), key()
			var rg keys.Range
			if r.Intn(4) > 0 {
				rg.Low, rg.LowExcl = lo, r.Intn(2) == 0
			}
			if r.Intn(4) > 0 {
				rg.High, rg.HighIncl = hi, r.Intn(2) == 0
			}
			return rg, ranges
		}
		return keys.All(), ranges
	}
	for round := 0; round < 200; round++ {
		m := NewManager()
		var ref []held
		for step := 0; step < 60; step++ {
			tx := TxID(1 + r.Intn(5))
			if r.Intn(8) == 0 {
				m.ReleaseTx(tx)
				ref = slices.DeleteFunc(ref, func(h held) bool { return h.tx == tx })
				continue
			}
			file := []string{"A", "B"}[r.Intn(2)]
			rg, kind := request()
			mode := Mode(1 + r.Intn(2))

			var want []TxID
			wantHeld := false
			for _, h := range ref {
				if h.file != file {
					continue
				}
				if h.tx == tx {
					wantHeld = wantHeld || kind == points && h.kind == points && string(h.r.Low) == string(rg.Low) && h.mode >= mode
					continue
				}
				if h.mode.conflicts(mode) && h.r.Overlaps(rg) && !slices.Contains(want, h.tx) {
					want = append(want, h.tx)
				}
			}
			m.mu.Lock()
			f := m.files[file]
			if f == nil {
				f = new(fileLocks)
			}
			var h uint64
			if kind == points {
				h = maphash.Bytes(m.seed, rg.Low)
			}
			got, gotHeld := m.conflictsLocked(tx, f, rg, kind, h, mode)
			got = slices.Clone(got)
			m.mu.Unlock()
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) || gotHeld != wantHeld {
				t.Fatalf("round %d step %d: tx %d %v %v on %s: conflicts %v held %v, brute force %v held %v",
					round, step, tx, mode, rg, file, got, gotHeld, want, wantHeld)
			}
			if len(want) == 0 {
				if _, err := m.acquire(tx, file, rg, kind, mode); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, held{tx: tx, file: file, r: rg, kind: kind, mode: mode})
			}
		}
	}
}

// BenchmarkLockAcquireRelease: one transaction's record lock and release
// while 24 others hold three record locks each on the same two files, as
// on a Disk Process serving txn-file's transactions.
func BenchmarkLockAcquireRelease(b *testing.B) {
	m := NewManager()
	for tx := TxID(1); tx <= 24; tx++ {
		for _, f := range []string{"acct", "acct", "hist"} {
			if err := m.LockRecord(tx, f, k(int64(tx)*1000+int64(len(f))+int64(m.HeldBy(tx))), Exclusive); err != nil {
				b.Fatal(err)
			}
		}
	}
	key := k(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := TxID(100 + i)
		if err := m.LockRecord(tx, "acct", key, Exclusive); err != nil {
			b.Fatal(err)
		}
		m.ReleaseTx(tx)
	}
}
