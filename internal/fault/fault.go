// Package fault is the crash-point fault-injection registry: named
// points threaded through the storage engine's write paths (disk block
// and bulk writes, audit trail flushes, cache cleaning and write-behind,
// Disk Process audit-append/tree-mutation windows, and the TMF commit
// protocol). A test driver arms one point with a one-shot action —
// typically "freeze the volumes", simulating the instant of a power
// failure — and the recovery invariant checker then proves the durable
// state recoverable no matter which point fired.
//
// The package is a leaf (stdlib only) so every layer can call Inject
// without import cycles. Injection is disabled by default; production
// paths pay a single atomic load.
package fault

import (
	"sync"
	"sync/atomic"
)

// Crash points, grouped by subsystem. Every name here is swept by the
// recovery torture test (experiments.E14); add new write paths to this
// list so they are covered automatically.
const (
	// DiskRead fires before a single-block or bulk read is served. It is
	// both a crash point (freeze mid-read: reads keep working, every
	// later write is lost) and the registry's only ERROR point: ArmErr
	// makes the read fail with an injected I/O error, exercising the
	// paths — transaction abort, audit-trail scan — that must survive a
	// flaky drive rather than a dead one.
	DiskRead = "disk/read"
	// DiskWrite fires before a single-block write lands (cache cleaning,
	// eviction). Crashing here loses the block write.
	DiskWrite = "disk/write"
	// DiskBulkWrite fires before EACH block of a bulk write lands.
	// Crashing mid-run tears the write: a prefix of the blocks is
	// durable, the rest never happened — the torn audit-trail tail.
	DiskBulkWrite = "disk/bulk-write/torn"

	// WALFlushBeforeWrite fires after a trail flush has claimed its
	// pending bytes but before any of them reach the volume.
	WALFlushBeforeWrite = "wal/flush/before-write"
	// WALFlushAfterWrite fires after the flush's blocks are on disk but
	// before the in-memory durable LSN advances and waiters wake:
	// transactions whose commit records just became durable crash
	// without ever learning they committed.
	WALFlushAfterWrite = "wal/flush/after-write"

	// CacheCleanBeforeWrite fires between a dirty page's WAL-gate check
	// and its write to disk (eviction and FlushAll path).
	CacheCleanBeforeWrite = "cache/clean/before-write"
	// CacheWriteBehind fires after a write-behind pass has claimed its
	// aged dirty pages, before any bulk write is issued. A pass that
	// claimed none writes nothing and does not reach it.
	CacheWriteBehind = "cache/write-behind"

	// DPInsertAfterAudit / DPUpdateAfterAudit / DPDeleteAfterAudit fire
	// in the window between the operation's audit append and the B-tree
	// mutation it protects.
	DPInsertAfterAudit = "dp/insert/after-audit"
	DPUpdateAfterAudit = "dp/update/after-audit"
	DPDeleteAfterAudit = "dp/delete/after-audit"
	// DPAbortMidUndo fires before each compensation step of a
	// transaction abort.
	DPAbortMidUndo = "dp/abort/mid-undo"
	// DPCommitBeforeFinish fires after the commit is durable (or phase 2
	// arrived) but before the participant releases locks and tx state.
	DPCommitBeforeFinish = "dp/commit/before-finish"

	// TMFAfterPrepare fires after every participant voted yes, before
	// the commit record is appended: the in-doubt window, resolved by
	// presumed abort.
	TMFAfterPrepare = "tmf/commit/after-prepare"
	// TMFCommitAppended fires after the commit record is appended but
	// before the coordinator waits for it to be durable.
	TMFCommitAppended = "tmf/commit/appended"
	// TMFCommitDurable fires after the commit record is durable, before
	// any phase-2 release message is sent.
	TMFCommitDurable = "tmf/commit/after-durable"

	// CheckpointShip fires in the primary's checkpoint shipper, after a
	// batch of audit records has been claimed for shipping but before it
	// is sent to the backup. Crashing here loses the primary with records
	// the backup never saw — takeover must still preserve every
	// transaction the primary confirmed.
	CheckpointShip = "checkpoint-ship"
	// TakeoverPromote fires inside the backup's promotion: once at the
	// start and again before each in-flight-transaction undo step.
	// Crashing mid-promote leaves a half-promoted replica whose own trail
	// must be sufficient to recover the partition.
	TakeoverPromote = "takeover-promote"
)

// FSConvFailed fires in a File System scan worker whose partition
// conversation failed, before the worker records the failure on its
// operation. It is not a crash point, and Points leaves it out: a test
// arms it to hold that window open, where the consumer of an ordered
// parallel scan must already see the failure.
const FSConvFailed = "fs/conv/failed"

// DPBeforeUndo fires in a Disk Process write whose change is in the tree,
// after its audit record is flushed and shipped and before its undo entry
// joins the transaction's undo chain. It is not a crash point, and Points
// leaves it out: a test arms it to hold that window open while the write's
// transaction ends.
const DPBeforeUndo = "dp/before-undo"

// Points lists every crash point in sweep order.
func Points() []string {
	return []string{
		DiskRead,
		DiskWrite,
		DiskBulkWrite,
		WALFlushBeforeWrite,
		WALFlushAfterWrite,
		CacheCleanBeforeWrite,
		CacheWriteBehind,
		DPInsertAfterAudit,
		DPUpdateAfterAudit,
		DPDeleteAfterAudit,
		DPAbortMidUndo,
		DPCommitBeforeFinish,
		TMFAfterPrepare,
		TMFCommitAppended,
		TMFCommitDurable,
		CheckpointShip,
		TakeoverPromote,
	}
}

// arming is one armed one-shot action: a crash function, an injected
// error, or both.
type arming struct {
	skip  int // remaining hits to let pass before firing
	fn    func()
	err   error // returned by InjectErr at the firing hit
	fired bool
}

var reg struct {
	enabled atomic.Bool

	mu    sync.Mutex
	hits  map[string]uint64
	armed map[string]*arming
}

// Enable turns injection on. Until enabled, Inject is a no-op beyond
// one atomic load and nothing is counted.
func Enable() { reg.enabled.Store(true) }

// Disable turns injection off without clearing counters or armings.
func Disable() { reg.enabled.Store(false) }

// Reset disables injection, disarms every point, and zeroes all hit
// counters. Call between sweep iterations.
func Reset() {
	reg.enabled.Store(false)
	reg.mu.Lock()
	reg.hits = nil
	reg.armed = nil
	reg.mu.Unlock()
}

// Arm schedules fn to run exactly once, on the (skip+1)-th enabled hit
// of point. fn runs on the goroutine that hits the point, possibly while
// that goroutine holds low-level mutexes — it must confine itself to
// lock-free work (atomic flags, Volume.Freeze).
func Arm(point string, skip int, fn func()) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.armed == nil {
		reg.armed = make(map[string]*arming)
	}
	reg.armed[point] = &arming{skip: skip, fn: fn}
}

// ArmErr schedules err to be returned exactly once, on the (skip+1)-th
// enabled hit of an InjectErr call at point. Points instrumented with
// plain Inject ignore an armed error; only error points (fault.DiskRead)
// call InjectErr.
func ArmErr(point string, skip int, err error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.armed == nil {
		reg.armed = make(map[string]*arming)
	}
	reg.armed[point] = &arming{skip: skip, err: err}
}

// Hits returns how many times point was reached while enabled.
func Hits(point string) uint64 {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.hits[point]
}

// Fired reports whether point's armed action has run.
func Fired(point string) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	a := reg.armed[point]
	return a != nil && a.fired
}

// Inject marks execution passing through the named crash point. When the
// registry is enabled the hit is counted, and an armed action whose skip
// count is exhausted fires (outside the registry lock).
func Inject(point string) { _ = InjectErr(point) }

// InjectErr is Inject for error points: at the firing hit it also
// returns the armed error (nil for crash-only armings), which the
// instrumented path propagates as a failed I/O.
func InjectErr(point string) error {
	if !reg.enabled.Load() {
		return nil
	}
	var fn func()
	var err error
	reg.mu.Lock()
	if reg.hits == nil {
		reg.hits = make(map[string]uint64)
	}
	reg.hits[point]++
	if a := reg.armed[point]; a != nil && !a.fired {
		if a.skip > 0 {
			a.skip--
		} else {
			a.fired = true
			fn = a.fn
			err = a.err
		}
	}
	reg.mu.Unlock()
	if fn != nil {
		fn()
	}
	return err
}
