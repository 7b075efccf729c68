// Package lock implements the Disk Process's lock management component:
// concurrency control via locking at the file, record, or generic (key
// prefix) level, extended for NonStop SQL with virtual-block group locks
// — the records of a virtual sequential block buffer locked as a group.
//
// All four granularities are represented uniformly as key *ranges* over
// one file: a record lock is a point range, a generic lock is a prefix
// range, a file lock is the full range, and a virtual-block lock is the
// key span of the block's records. Two requests conflict when they come
// from different transactions, their ranges overlap, and at least one is
// exclusive. Waits are queued; deadlocks are detected on the wait-for
// graph and broken by rejecting the requester.
package lock

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"nonstopsql/internal/keys"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota + 1
	// Exclusive permits a single owner.
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// conflicts reports whether two modes are incompatible.
func (m Mode) conflicts(o Mode) bool { return m == Exclusive || o == Exclusive }

// TxID identifies a transaction.
type TxID = uint64

// Errors returned by Acquire.
var (
	ErrDeadlock = errors.New("lock: deadlock detected, request rejected")
	ErrTimeout  = errors.New("lock: wait timed out")
)

// Stats counts lock manager activity.
type Stats struct {
	Acquires  uint64
	Waits     uint64 // acquisitions that had to queue at least once
	Deadlocks uint64
	Timeouts  uint64
}

type grant struct {
	tx   TxID
	file string
	r    keys.Range
	mode Mode
}

type waiter struct {
	tx TxID
	ch chan struct{}
}

// A Manager is one Disk Process's lock table.
type Manager struct {
	// DefaultTimeout bounds lock waits; zero means 2 s.
	DefaultTimeout time.Duration

	mu      sync.Mutex
	grants  map[string][]*grant // by file
	byTx    map[TxID][]*grant
	waiters map[*waiter]struct{}
	waitFor map[TxID]map[TxID]bool
	stats   Stats
}

// NewManager creates an empty lock table.
func NewManager() *Manager {
	return &Manager{
		grants:  make(map[string][]*grant),
		byTx:    make(map[TxID][]*grant),
		waiters: make(map[*waiter]struct{}),
		waitFor: make(map[TxID]map[TxID]bool),
	}
}

// LockRecord acquires a record (point) lock.
func (m *Manager) LockRecord(tx TxID, file string, key []byte, mode Mode) error {
	_, err := m.Acquire(tx, file, keys.Point(key), mode)
	return err
}

// LockGeneric acquires a generic (key-prefix) lock.
func (m *Manager) LockGeneric(tx TxID, file string, prefix []byte, mode Mode) error {
	_, err := m.Acquire(tx, file, keys.Prefix(prefix), mode)
	return err
}

// LockFile acquires a whole-file lock.
func (m *Manager) LockFile(tx TxID, file string, mode Mode) error {
	_, err := m.Acquire(tx, file, keys.All(), mode)
	return err
}

// Acquire obtains a range lock, waiting if necessary, and reports whether
// it had to: a caller that read under r before locking it (the Disk
// Process's virtual-block group lock) must read again once a wait is
// over, since what it read may have been another transaction's
// uncommitted change. It returns ErrDeadlock when granting would require
// waiting on a cycle, and ErrTimeout when the wait exceeds DefaultTimeout.
func (m *Manager) Acquire(tx TxID, file string, r keys.Range, mode Mode) (waited bool, err error) {
	// The wait's deadline is armed by the first wait: most acquisitions
	// never queue, and they pay no timer.
	var deadline *time.Timer
	m.mu.Lock()
	m.stats.Acquires++
	for {
		blockers := m.conflictingLocked(tx, file, r, mode)
		if len(blockers) == 0 {
			g := &grant{tx: tx, file: file, r: r, mode: mode}
			m.grants[file] = append(m.grants[file], g)
			m.byTx[tx] = append(m.byTx[tx], g)
			delete(m.waitFor, tx)
			m.mu.Unlock()
			return waited, nil
		}
		if !waited {
			waited = true
			m.stats.Waits++
			timeout := m.DefaultTimeout
			if timeout == 0 {
				timeout = 2 * time.Second
			}
			deadline = time.NewTimer(timeout)
			defer deadline.Stop()
		}
		// Record wait-for edges and look for a cycle through tx.
		edges := make(map[TxID]bool, len(blockers))
		for _, b := range blockers {
			edges[b] = true
		}
		m.waitFor[tx] = edges
		if m.cycleFromLocked(tx) {
			m.stats.Deadlocks++
			delete(m.waitFor, tx)
			m.mu.Unlock()
			return waited, fmt.Errorf("%w (tx %d on %s %v)", ErrDeadlock, tx, file, r)
		}
		w := &waiter{tx: tx, ch: make(chan struct{}, 1)}
		m.waiters[w] = struct{}{}
		m.mu.Unlock()

		select {
		case <-w.ch:
			m.mu.Lock()
			delete(m.waiters, w)
		case <-deadline.C:
			m.mu.Lock()
			delete(m.waiters, w)
			delete(m.waitFor, tx)
			m.stats.Timeouts++
			m.mu.Unlock()
			return waited, fmt.Errorf("%w (tx %d on %s %v)", ErrTimeout, tx, file, r)
		}
	}
}

// conflictingLocked lists distinct transactions holding conflicting
// grants.
func (m *Manager) conflictingLocked(tx TxID, file string, r keys.Range, mode Mode) []TxID {
	var out []TxID
	seen := make(map[TxID]bool)
	for _, g := range m.grants[file] {
		if g.tx == tx || seen[g.tx] {
			continue
		}
		if g.mode.conflicts(mode) && g.r.Overlaps(r) {
			seen[g.tx] = true
			out = append(out, g.tx)
		}
	}
	return out
}

// cycleFromLocked reports whether the wait-for graph has a cycle
// reachable from start.
func (m *Manager) cycleFromLocked(start TxID) bool {
	visited := make(map[TxID]bool)
	var dfs func(t TxID) bool
	dfs = func(t TxID) bool {
		for next := range m.waitFor[t] {
			if next == start {
				return true
			}
			if !visited[next] {
				visited[next] = true
				if dfs(next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// ReleaseTx drops every lock held by tx and wakes waiters. Called at
// commit and abort (strict two-phase locking).
func (m *Manager) ReleaseTx(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.byTx[tx] {
		list := m.grants[g.file]
		for i, h := range list {
			if h == g {
				m.grants[g.file] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(m.grants[g.file]) == 0 {
			delete(m.grants, g.file)
		}
	}
	delete(m.byTx, tx)
	delete(m.waitFor, tx)
	m.wakeAllLocked()
}

// ReleaseRange drops tx's grants fully contained in r on file; used when
// a VSBB group lock is narrowed after a re-drive under read-committed
// semantics.
func (m *Manager) ReleaseRange(tx TxID, file string, r keys.Range) {
	m.mu.Lock()
	defer m.mu.Unlock()
	list := m.grants[file]
	kept := list[:0]
	var dropped []*grant
	for _, g := range list {
		if g.tx == tx && contains(r, g.r) {
			dropped = append(dropped, g)
			continue
		}
		kept = append(kept, g)
	}
	m.grants[file] = kept
	if len(dropped) > 0 {
		byTx := m.byTx[tx][:0]
		for _, g := range m.byTx[tx] {
			found := false
			for _, d := range dropped {
				if d == g {
					found = true
					break
				}
			}
			if !found {
				byTx = append(byTx, g)
			}
		}
		m.byTx[tx] = byTx
		m.wakeAllLocked()
	}
}

// contains reports whether outer covers all of inner.
func contains(outer, inner keys.Range) bool {
	if outer.Low != nil {
		if inner.Low == nil {
			return false
		}
		c := bytes.Compare(inner.Low, outer.Low)
		if c < 0 || (c == 0 && outer.LowExcl && !inner.LowExcl) {
			return false
		}
	}
	if outer.High != nil {
		if inner.High == nil {
			return false
		}
		c := bytes.Compare(inner.High, outer.High)
		if c > 0 || (c == 0 && inner.HighIncl && !outer.HighIncl) {
			return false
		}
	}
	return true
}

// HeldBy returns the number of grants tx currently holds (diagnostics).
func (m *Manager) HeldBy(tx TxID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byTx[tx])
}

// Held returns the total number of live grants across all transactions.
// A quiesced Disk Process must report zero — anything else is a lock a
// finished or crashed transaction leaked.
func (m *Manager) Held() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, gs := range m.byTx {
		n += len(gs)
	}
	return n
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) wakeAllLocked() {
	for w := range m.waiters {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}
