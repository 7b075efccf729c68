package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nonstopsql/internal/keys"
)

func k(v int64) []byte { return keys.AppendInt64(nil, v) }

func TestSharedCompatible(t *testing.T) {
	m := NewManager()
	if err := m.LockRecord(1, "EMP", k(5), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(2, "EMP", k(5), Shared); err != nil {
		t.Fatal(err)
	}
	if m.HeldBy(1) != 1 || m.HeldBy(2) != 1 {
		t.Error("grants missing")
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 50 * time.Millisecond
	if err := m.LockRecord(1, "EMP", k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(2, "EMP", k(5), Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want timeout", err)
	}
	if err := m.LockRecord(2, "EMP", k(5), Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want timeout", err)
	}
	// Different record: no conflict.
	if err := m.LockRecord(2, "EMP", k(6), Exclusive); err != nil {
		t.Fatal(err)
	}
	// Different file: no conflict.
	if err := m.LockRecord(2, "DEPT", k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestReacquireBySameTx(t *testing.T) {
	m := NewManager()
	if err := m.LockRecord(1, "EMP", k(5), Shared); err != nil {
		t.Fatal(err)
	}
	// Upgrade by the same tx with no other holders must succeed.
	if err := m.LockRecord(1, "EMP", k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 5 * time.Second
	if err := m.LockRecord(1, "EMP", k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- m.LockRecord(2, "EMP", k(5), Exclusive) }()
	time.Sleep(20 * time.Millisecond)
	m.ReleaseTx(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken")
	}
	if m.Stats().Waits == 0 {
		t.Error("wait not counted")
	}
}

// TestAcquireReportsTheWait: Acquire says whether the grant had to wait —
// what tells the Disk Process to read a group-locked range again.
func TestAcquireReportsTheWait(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 5 * time.Second
	block := keys.Range{Low: k(10), High: k(20), HighIncl: true}
	if waited, err := m.Acquire(1, "EMP", block, Shared); err != nil || waited {
		t.Fatalf("uncontended: waited %v, %v", waited, err)
	}
	if err := m.LockRecord(2, "EMP", k(30), Exclusive); err != nil {
		t.Fatal(err)
	}
	type result struct {
		waited bool
		err    error
	}
	got := make(chan result, 1)
	go func() {
		waited, err := m.Acquire(3, "EMP", keys.Range{Low: k(25), High: k(35)}, Shared)
		got <- result{waited, err}
	}()
	for m.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	m.ReleaseTx(2)
	if r := <-got; r.err != nil || !r.waited {
		t.Fatalf("behind an exclusive lock: waited %v, %v", r.waited, r.err)
	}
	m.DefaultTimeout = 20 * time.Millisecond
	if waited, err := m.Acquire(4, "EMP", keys.Point(k(15)), Exclusive); !errors.Is(err, ErrTimeout) || !waited {
		t.Fatalf("timed out: waited %v, %v", waited, err)
	}
}

func TestFileLockBlocksRecordLock(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 50 * time.Millisecond
	if err := m.LockFile(1, "EMP", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(2, "EMP", k(1), Shared); !errors.Is(err, ErrTimeout) {
		t.Fatalf("record lock under file X lock: %v", err)
	}
	m.ReleaseTx(1)
	if err := m.LockRecord(2, "EMP", k(1), Shared); err != nil {
		t.Fatal(err)
	}
}

func TestGenericPrefixLock(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 50 * time.Millisecond
	// Generic lock on key prefix CUSTNO=7 covers all (7, *) records.
	prefix := keys.AppendInt64(nil, 7)
	if err := m.LockGeneric(1, "ORDERS", prefix, Exclusive); err != nil {
		t.Fatal(err)
	}
	inside := keys.AppendInt64(keys.AppendInt64(nil, 7), 3)
	outside := keys.AppendInt64(keys.AppendInt64(nil, 8), 3)
	if err := m.LockRecord(2, "ORDERS", inside, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("record within generic prefix granted: %v", err)
	}
	if err := m.LockRecord(2, "ORDERS", outside, Exclusive); err != nil {
		t.Fatalf("record outside prefix blocked: %v", err)
	}
}

func TestVirtualBlockGroupLock(t *testing.T) {
	// VSBB locks the records of the virtual block as a group: one range
	// lock covering [first,last] keys.
	m := NewManager()
	m.DefaultTimeout = 50 * time.Millisecond
	blockRange := keys.Range{Low: k(10), High: k(20), HighIncl: true}
	if _, err := m.Acquire(1, "EMP", blockRange, Shared); err != nil {
		t.Fatal(err)
	}
	// Readers of members coexist.
	if err := m.LockRecord(2, "EMP", k(15), Shared); err != nil {
		t.Fatal(err)
	}
	// Writers inside the block wait.
	if err := m.LockRecord(3, "EMP", k(15), Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer inside virtual block granted: %v", err)
	}
	// Writers OUTSIDE the block proceed — the improvement over ENSCRIBE
	// SBB, which required a file lock.
	if err := m.LockRecord(3, "EMP", k(25), Exclusive); err != nil {
		t.Fatalf("writer outside virtual block blocked: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 5 * time.Second
	if err := m.LockRecord(1, "T", k(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.LockRecord(2, "T", k(2), Exclusive); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.LockRecord(1, "T", k(2), Exclusive) }()
	time.Sleep(30 * time.Millisecond)
	go func() { errs <- m.LockRecord(2, "T", k(1), Exclusive) }()

	var deadlocks, ok int
	for i := 0; i < 1; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				deadlocks++
				// Victim aborts, releasing its locks; survivor proceeds.
				if deadlocks == 1 {
					m.ReleaseTx(2)
				}
			} else if err == nil {
				ok++
			} else {
				t.Fatalf("unexpected %v", err)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if deadlocks == 0 {
		t.Fatal("no deadlock detected")
	}
	if m.Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 5 * time.Second
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(tx TxID) {
			defer wg.Done()
			for i := int64(0); i < 50; i++ {
				if err := m.LockRecord(tx, "T", k(i%7), Exclusive); err != nil {
					t.Error(err)
					return
				}
				m.ReleaseTx(tx)
			}
		}(TxID(g + 1))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stress deadlocked")
	}
}

func TestStatsCounting(t *testing.T) {
	m := NewManager()
	m.DefaultTimeout = 20 * time.Millisecond
	m.LockRecord(1, "T", k(1), Exclusive)
	m.LockRecord(2, "T", k(1), Exclusive) // times out
	s := m.Stats()
	if s.Acquires != 2 || s.Timeouts != 1 {
		t.Errorf("stats %+v", s)
	}
}
