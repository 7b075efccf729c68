package btree

import (
	"sync"
	"sync/atomic"

	"nonstopsql/internal/disk"
)

// A Waiter observes latch-wait episodes. The Disk Process plugs its
// concurrency meter in here so time a handler spends blocked on a page
// latch is not credited as useful parallelism.
type Waiter interface {
	LatchWaitStart()
	LatchWaitEnd()
}

// LatchStats is a snapshot of latch-table activity.
type LatchStats struct {
	SharedGrants    uint64
	ExclusiveGrants uint64
	Waits           uint64 // grants that had to block behind another holder
	MaxOps          int64  // high-water mark of concurrent tree operations
}

// Latches is the page-latch table for one volume's trees: a refcounted
// reader/writer lock per block number, alive only while some operation
// holds or awaits it. Latches are short-term physical locks protecting
// page consistency during one descent — unlike transaction locks they
// are never held across messages, and unlike the old tree-wide mutex
// they let operations on disjoint pages of the same file proceed in
// parallel. One table is shared by every tree of a Disk Process, since
// block numbers identify pages volume-wide.
type Latches struct {
	waiter Waiter

	mu   sync.Mutex
	m    map[disk.BlockNum]*latch
	free []*latch // retired entries, reused so a warm descent allocates nothing

	shared atomic.Uint64
	excl   atomic.Uint64
	waits  atomic.Uint64

	ops    atomic.Int64
	maxOps atomic.Int64
}

type latch struct {
	refs int
	rw   sync.RWMutex
}

// NewLatches creates an empty latch table. w may be nil.
func NewLatches(w Waiter) *Latches {
	return &Latches{waiter: w, m: make(map[disk.BlockNum]*latch)}
}

// pageLatch is one granted latch; release exactly once.
type pageLatch struct {
	lt   *Latches
	l    *latch
	bn   disk.BlockNum
	excl bool
}

// acquire latches bn, blocking until compatible. A failed try-lock is
// counted as a wait and reported to the Waiter around the blocking
// acquisition.
func (lt *Latches) acquire(bn disk.BlockNum, excl bool) pageLatch {
	lt.mu.Lock()
	l := lt.m[bn]
	if l == nil {
		if n := len(lt.free); n > 0 {
			l, lt.free = lt.free[n-1], lt.free[:n-1]
		} else {
			l = &latch{}
		}
		lt.m[bn] = l
	}
	l.refs++
	lt.mu.Unlock()

	if excl {
		lt.excl.Add(1)
		if !l.rw.TryLock() {
			lt.waits.Add(1)
			if lt.waiter != nil {
				lt.waiter.LatchWaitStart()
			}
			l.rw.Lock()
			if lt.waiter != nil {
				lt.waiter.LatchWaitEnd()
			}
		}
	} else {
		lt.shared.Add(1)
		if !l.rw.TryRLock() {
			lt.waits.Add(1)
			if lt.waiter != nil {
				lt.waiter.LatchWaitStart()
			}
			l.rw.RLock()
			if lt.waiter != nil {
				lt.waiter.LatchWaitEnd()
			}
		}
	}
	return pageLatch{lt: lt, l: l, bn: bn, excl: excl}
}

func (pl pageLatch) release() {
	if pl.excl {
		pl.l.rw.Unlock()
	} else {
		pl.l.rw.RUnlock()
	}
	pl.lt.mu.Lock()
	pl.l.refs--
	if pl.l.refs == 0 {
		// Nobody holds or awaits it: the RWMutex is idle and safe to reuse.
		delete(pl.lt.m, pl.bn)
		pl.lt.free = append(pl.lt.free, pl.l)
	}
	pl.lt.mu.Unlock()
}

// opEnter/opExit bracket one tree operation for the in-flight
// high-water mark.
func (lt *Latches) opEnter() {
	n := lt.ops.Add(1)
	for {
		max := lt.maxOps.Load()
		if n <= max || lt.maxOps.CompareAndSwap(max, n) {
			return
		}
	}
}

func (lt *Latches) opExit() { lt.ops.Add(-1) }

// Live returns the number of latch-table entries currently held or
// awaited. A quiesced Disk Process must report zero — anything else is
// a leaked latch.
func (lt *Latches) Live() int {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return len(lt.m)
}

// Stats returns a snapshot of the counters.
func (lt *Latches) Stats() LatchStats {
	return LatchStats{
		SharedGrants:    lt.shared.Load(),
		ExclusiveGrants: lt.excl.Load(),
		Waits:           lt.waits.Load(),
		MaxOps:          lt.maxOps.Load(),
	}
}

// ResetStats zeroes the counters; the high-water mark restarts from the
// currently in-flight operation count.
func (lt *Latches) ResetStats() {
	lt.shared.Store(0)
	lt.excl.Store(0)
	lt.waits.Store(0)
	lt.maxOps.Store(lt.ops.Load())
}
