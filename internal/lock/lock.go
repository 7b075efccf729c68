// Package lock implements the Disk Process's lock management component:
// concurrency control via locking at the file, record, or generic (key
// prefix) level, extended for NonStop SQL with virtual-block group locks
// — the records of a virtual sequential block buffer locked as a group.
//
// All four granularities mean key *ranges* over one file: a record lock
// is a point range, a generic lock is a prefix range, a file lock is the
// full range, and a virtual-block lock is the key span of the block's
// records. Two requests conflict when they come from different
// transactions, their ranges overlap, and at least one is exclusive.
// Waits are queued; deadlocks are detected on the wait-for graph and
// broken by rejecting the requester.
//
// A file's record locks are held apart from its ranges, with their keys'
// hashes, so a record lock compares the bytes only where the hashes agree.
// Grants are pooled and copy what they lock: an acquisition that does not
// wait allocates nothing and keeps nothing of its caller's.
package lock

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"time"

	"nonstopsql/internal/keys"
	"nonstopsql/internal/poison"
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

// A grant is one lock held.
type grant struct {
	tx   TxID
	mode Mode
	kind int        // points or ranges: the list of its file that holds it
	hash uint64     // a point's key hash under the Manager's seed
	r    keys.Range // its bounds lie in buf, which the grant owns
	buf  []byte
	file *fileLocks
	at   int    // its index in that list
	next *grant // the transaction's next grant
}

// A file's grants: its record locks (points) and its other ranges.
type fileLocks [2][]*grant

const points, ranges = 0, 1

type waiter struct {
	tx TxID
	on map[TxID]bool // the transactions it waits for: a release by one wakes it
	ch chan struct{}
}

// A Manager is one Disk Process's lock table.
type Manager struct {
	// DefaultTimeout bounds lock waits; zero means 2 s.
	DefaultTimeout time.Duration

	mu       sync.Mutex
	seed     maphash.Seed
	files    map[string]*fileLocks // kept when emptied: a file's lists are reused
	byTx     map[TxID]*grant       // each transaction's grants, linked through next
	grants   sync.Pool             // *grant
	waiters  map[*waiter]struct{}  // the wait-for graph's edges
	blockers []TxID                // conflictsLocked's answer, reused
	stats    Stats
}

// NewManager creates an empty lock table.
func NewManager() *Manager {
	return &Manager{
		seed:    maphash.MakeSeed(),
		files:   make(map[string]*fileLocks),
		byTx:    make(map[TxID]*grant),
		waiters: make(map[*waiter]struct{}),
	}
}

// LockRecord acquires a record (point) lock. A transaction that already
// holds the key in mode or a stronger one is granted at once, no new grant.
func (m *Manager) LockRecord(tx TxID, file string, key []byte, mode Mode) error {
	kind := points
	if key == nil {
		kind = ranges // keys.Point(nil) is the whole file
	}
	_, err := m.acquire(tx, file, keys.Point(key), kind, mode)
	return err
}

// Acquire obtains a range lock, waiting if necessary, and reports whether
// it had to: a caller that read under r before locking it (the Disk
// Process's virtual-block group lock) must read again once a wait is
// over, since what it read may have been another transaction's
// uncommitted change. It returns ErrDeadlock when granting would require
// waiting on a cycle, and ErrTimeout when the wait exceeds DefaultTimeout.
func (m *Manager) Acquire(tx TxID, file string, r keys.Range, mode Mode) (waited bool, err error) {
	return m.acquire(tx, file, r, ranges, mode)
}

func (m *Manager) acquire(tx TxID, file string, r keys.Range, kind int, mode Mode) (waited bool, err error) {
	var h uint64
	if kind == points {
		h = maphash.Bytes(m.seed, r.Low)
	}
	// The wait's deadline is armed by the first wait: most acquisitions
	// never queue, and they pay no timer.
	var deadline *time.Timer
	m.mu.Lock()
	m.stats.Acquires++
	f := m.files[file]
	if f == nil {
		f = new(fileLocks)
		m.files[file] = f
	}
	for {
		blockers, held := m.conflictsLocked(tx, f, r, kind, h, mode)
		if len(blockers) == 0 {
			if !held {
				m.grantLocked(tx, f, r, kind, h, mode)
			}
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
		// Add the wait-for edges and look for a cycle through tx.
		w := &waiter{tx: tx, on: make(map[TxID]bool, len(blockers)), ch: make(chan struct{}, 1)}
		for _, b := range blockers {
			w.on[b] = true
		}
		m.waiters[w] = struct{}{}
		if m.cycleFromLocked(tx) {
			delete(m.waiters, w)
			m.stats.Deadlocks++
			m.mu.Unlock()
			return waited, fmt.Errorf("%w (tx %d on %s %v)", ErrDeadlock, tx, file, r)
		}
		m.mu.Unlock()

		select {
		case <-w.ch:
			m.mu.Lock()
			delete(m.waiters, w)
		case <-deadline.C:
			m.mu.Lock()
			delete(m.waiters, w)
			m.stats.Timeouts++
			m.mu.Unlock()
			return waited, fmt.Errorf("%w (tx %d on %s %v)", ErrTimeout, tx, file, r)
		}
	}
}

// conflictsLocked lists, once each, the transactions other than tx whose
// grants on f conflict with a request of kind for r in mode (the list is
// reused by the next call), and reports whether tx holds a record request
// already: the same key, in mode or a stronger one.
func (m *Manager) conflictsLocked(tx TxID, f *fileLocks, r keys.Range, kind int, h uint64, mode Mode) (blockers []TxID, held bool) {
	out := m.blockers[:0]
	add := func(t TxID) {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	for _, g := range f[points] {
		switch {
		case kind == points && (g.hash != h || !bytes.Equal(g.r.Low, r.Low)):
		case kind == ranges && !r.Contains(g.r.Low):
		case g.tx == tx:
			held = held || kind == points && g.mode >= mode
		case g.mode.conflicts(mode):
			add(g.tx)
		}
	}
	for _, g := range f[ranges] {
		if g.tx != tx && g.mode.conflicts(mode) && g.r.Overlaps(r) {
			add(g.tx)
		}
	}
	m.blockers = out
	return out, held
}

// grantLocked adds tx's grant of r on f, with a copy of r's bounds.
func (m *Manager) grantLocked(tx TxID, f *fileLocks, r keys.Range, kind int, h uint64, mode Mode) {
	g, _ := m.grants.Get().(*grant)
	if g == nil {
		g = new(grant)
	}
	// Room for both bounds, and never nil: a bound may be empty, not nil.
	g.buf = slices.Grow(g.buf[:0], len(r.Low)+len(r.High)+1)
	g.tx, g.mode, g.kind, g.hash, g.file = tx, mode, kind, h, f
	g.r = keys.Range{Low: g.own(r.Low), High: g.own(r.High), LowExcl: r.LowExcl, HighIncl: r.HighIncl}
	g.at = len(f[kind])
	f[kind] = append(f[kind], g)
	g.next, m.byTx[tx] = m.byTx[tx], g
}

// own copies a bound into g's buffer; nil, unbounded, stays nil.
func (g *grant) own(b []byte) []byte {
	if b == nil {
		return nil
	}
	g.buf = append(g.buf, b...)
	n := len(g.buf)
	return g.buf[n-len(b) : n : n]
}

// ReleaseTx drops every lock held by tx and wakes the waiters waiting
// for tx: nothing else frees what a waiter waits for. Called at commit
// and abort (strict two-phase locking).
func (m *Manager) ReleaseTx(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for g := m.byTx[tx]; g != nil; {
		next := g.next
		m.dropLocked(g)
		g = next
	}
	delete(m.byTx, tx)
	for w := range m.waiters {
		if w.on[tx] {
			select {
			case w.ch <- struct{}{}:
			default:
			}
		}
	}
}

// dropLocked takes g out of its file's list and gives it back to the pool.
func (m *Manager) dropLocked(g *grant) {
	list := &g.file[g.kind]
	last := (*list)[len(*list)-1]
	(*list)[g.at], last.at = last, g.at
	(*list)[len(*list)-1] = nil
	*list = (*list)[:len(*list)-1]
	poison.Fill(g.buf)
	m.grants.Put(g)
}

// cycleFromLocked reports whether the wait-for graph has a cycle through start.
func (m *Manager) cycleFromLocked(start TxID) bool {
	visited := map[TxID]bool{}
	for todo := []TxID{start}; len(todo) > 0; {
		t := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for w := range m.waiters {
			for next := range w.on {
				if w.tx != t || visited[next] {
					continue
				}
				if next == start {
					return true
				}
				visited[next] = true
				todo = append(todo, next)
			}
		}
	}
	return false
}

// Held returns the total number of live grants across all transactions.
// A quiesced Disk Process must report zero — anything else is a lock a
// finished or crashed transaction leaked.
func (m *Manager) Held() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, f := range m.files {
		n += len(f[points]) + len(f[ranges])
	}
	return n
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
