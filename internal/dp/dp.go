// Package dp implements the Disk Process: the low-level disk file
// server that owns one volume and serves FS-DP requests from its shared
// message input queue. It combines the record management (btree), cache
// management (cache), lock management (lock), and transaction/audit
// (tmf, wal) components exactly as the paper lays them out, and adds the
// SQL-specific server-side function that is the paper's contribution:
//
//   - single-variable predicate evaluation and field projection at the
//     data source (VSBB),
//   - set-oriented and keyed update/delete with DP-side update
//     expressions and CHECK constraint enforcement,
//   - the continuation re-drive protocol with Subset Control Blocks,
//   - bulk I/O + asynchronous pre-fetch over a request's key span, and
//     asynchronous write-behind of aged dirty block strings,
//   - field-compressed audit records for SQL files.
package dp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// Config configures one Disk Process.
type Config struct {
	Name       string        // process name, e.g. "$DATA1"
	Volume     disk.BlockDev // the managed volume
	CacheSlots int           // buffer pool capacity in pages (default 1024)
	Audit      *tmf.AuditPort

	LockTimeout time.Duration // lock wait bound (default 2s)

	// MaxReplyBytes bounds the data in one set-oriented reply: the size
	// of one sequential block buffer (default disk.BlockSize). Exceeding
	// it triggers a continuation re-drive ("full sequential block buffer
	// condition").
	MaxReplyBytes int
	// MaxRowsPerMsg bounds records processed per set-oriented request
	// (the deterministic stand-in for the paper's elapsed/processor time
	// limits; default 4096).
	MaxRowsPerMsg int
	// TimeLimit optionally re-creates the paper's elapsed-time re-drive
	// trigger (0 = disabled; tests use it).
	TimeLimit time.Duration

	Prefetch    bool // asynchronous pre-fetch over subset key spans
	WriteBehind bool // background write-behind of aged dirty block strings

	// CacheShards overrides the buffer pool's shard count (0 = derive
	// from CacheSlots). CachePlainLRU disables scan-resistant
	// replacement — the E15 ablation.
	CacheShards   int
	CachePlainLRU bool

	// Ship and ShipFlush wire the real replicated-partition checkpoint
	// stream. Ship is invoked with every audit record after it is
	// appended to the trail (plus synthesized commit markers and file
	// create/drop markers that never pass through the trail append);
	// the cluster's shipper buffers the framed records. ShipFlush sends
	// the buffer to the backup and waits for it to be applied and
	// durable there — called before a commit is acknowledged, so every
	// confirmed transaction is on the backup's own trail. A ShipFlush
	// error means the backup does not have the buffered records (the
	// shipper retains them for catch-up); the DP still answers — a dead
	// backup must not take the partition down — but counts the
	// degraded acknowledgement (ShipDegradedAcks).
	Ship      func(*wal.Record)
	ShipFlush func() error
}

func (c *Config) setDefaults() {
	if c.CacheSlots == 0 {
		c.CacheSlots = 1024
	}
	if c.MaxReplyBytes == 0 {
		c.MaxReplyBytes = disk.BlockSize
	}
	if c.MaxRowsPerMsg == 0 {
		c.MaxRowsPerMsg = 4096
	}
	if c.LockTimeout == 0 {
		c.LockTimeout = 2 * time.Second
	}
}

// Stats counts Disk Process activity relevant to the experiments.
type Stats struct {
	Requests       uint64
	SetRequests    uint64 // set-oriented requests (incl. re-drives)
	Redrives       uint64 // continuation replies (not Done)
	RowsScanned    uint64 // records visited by set requests and READs
	RowsReturned   uint64 // records sent back to the File System
	RowsFiltered   uint64 // records rejected by a DP-side predicate
	RowsUpdated    uint64
	RowsDeleted    uint64
	RowsInserted   uint64
	PredicateEvals uint64
	CheckEvals     uint64
	// CorruptRefusals counts requests refused because a page they read,
	// or a record on it, is not well-formed (btree.ErrCorruptPage).
	CorruptRefusals uint64

	// Intra-DP concurrency: how hard the process group's handlers
	// actually drove the trees in parallel.
	LatchShared    uint64 // shared page-latch grants
	LatchExclusive uint64 // exclusive page-latch grants
	LatchWaits     uint64 // latch grants that had to block
	MaxTreeOps     int64  // high-water mark of concurrent tree operations
	MaxInFlight    int    // high-water mark of requests in service at once

	// Buffer pool: hit rates by access class, WAL stalls, and shard
	// mutex contention (see cache.Stats).
	CacheHits           uint64
	CacheMisses         uint64
	CacheKeyedHits      uint64
	CacheKeyedMisses    uint64
	CacheSeqHits        uint64
	CacheSeqMisses      uint64
	CachePromotions     uint64
	CacheWALStalls      uint64
	CacheShardWaits     uint64
	CacheShardWaitNanos uint64
	CacheShards         int

	// Service time vs. queue wait: how long handlers spent doing the
	// work, and how long requests waited for one of the process group's
	// service slots first. Queue wait is measured by the msg server and
	// wired in via SetQueueWait (the DP never sees the queue itself).
	ServiceOps     uint64
	ServiceNanos   uint64
	QueueWaitOps   uint64
	QueueWaitNanos uint64
}

// CacheHitRate returns CacheHits/(CacheHits+CacheMisses), or 0.
func (s Stats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// counters is the internal atomic form of Stats: the serve hot path
// must not take any DP-wide lock just to count.
type counters struct {
	requests        atomic.Uint64
	setRequests     atomic.Uint64
	redrives        atomic.Uint64
	rowsScanned     atomic.Uint64
	rowsReturned    atomic.Uint64
	rowsFiltered    atomic.Uint64
	rowsUpdated     atomic.Uint64
	rowsDeleted     atomic.Uint64
	rowsInserted    atomic.Uint64
	predicateEvals  atomic.Uint64
	checkEvals      atomic.Uint64
	corruptRefusals atomic.Uint64
}

// fileState is one file fragment managed by this DP as a single B-tree.
type fileState struct {
	schema     *record.Schema
	check      expr.Expr
	tree       *btree.Tree
	fieldAudit bool // SQL field-compressed audit vs ENSCRIBE full images
}

// scb is a Subset Control Block: server-side state created at GET^FIRST
// / UPDATE^SUBSET^FIRST time so re-drives need not re-send the
// predicate, projection, or update expression. kind, tx and file name
// the conversation it belongs to; a ^NEXT must match all three.
type scb struct {
	kind    fsdp.Kind // the conversation's ^FIRST kind
	tx      uint64
	file    string
	pred    *expr.Program // the selection predicate, compiled at ^FIRST; nil accepts every record
	proj    []int
	assigns []expr.Assignment
	agg     *fsdp.AggSpec // partial-aggregate program (AGG^FIRST/NEXT)
	aggMem  aggMem        // the groups folded so far and not yet shipped
	// class is the cache access class derived once at ^FIRST time and
	// reused by every re-drive: a re-drive's range always has Low set
	// (the continuation key), so re-deriving from the range would
	// misclassify every full scan after its first message.
	class cache.AccessClass
	// planned: the pool took the pre-fetch of the range's leaves (the
	// plan runs to the range's end, which no ^NEXT moves).
	planned bool
	// limit/delivered implement the conversation-wide qualifying-row
	// budget (Request.ScanLimit): once delivered reaches limit the
	// subset ends early with Done=true, whatever remains in the range.
	limit     uint32
	delivered uint32
}

// classFor derives a subset's cache access class at ^FIRST time: an
// explicit File System hint wins; otherwise an unbounded key range is a
// full scan (Sequential) and anything bounded is treated as keyed
// working-set access.
func classFor(req *fsdp.Request) cache.AccessClass {
	switch req.Hint {
	case fsdp.HintSequential:
		return cache.Sequential
	case fsdp.HintKeyed:
		return cache.Keyed
	}
	if req.Range.Low == nil && req.Range.High == nil {
		return cache.Sequential
	}
	return cache.Keyed
}

// A DP is one Disk Process (group).
type DP struct {
	cfg     Config
	pool    *cache.Pool
	locks   *lock.Manager
	latches *btree.Latches // one page-latch table for all the volume's trees

	// filesMu guards the file map on a read-mostly path: every record
	// operation looks its file up, but files are created rarely.
	filesMu sync.RWMutex
	files   map[string]*fileState

	// mu guards transaction and subset-control state only; it is never
	// held across I/O or tree operations.
	mu      sync.Mutex
	scbs    map[uint32]*scb
	nextSCB uint32
	txs     map[uint64]*txState

	// rep is the backup-role state: created on the first shipped
	// checkpoint batch, it tracks in-flight transactions so promotion
	// can resolve them. nil on a DP that was never shipped to.
	// fenceActive is set once promotion fences any transaction, so the
	// per-request fence check costs one atomic load everywhere else.
	rep         *replicaState
	fenceActive atomic.Bool

	// shipDegraded counts acknowledgements (commit, prepare, abort)
	// returned while the backup had NOT applied the checkpoint stream —
	// the flush before the ack failed. The durability guarantee
	// "confirmed ⊆ backup-durable" is suspended for these until the
	// retained buffer catches up; TakeoverReplica refuses to promote a
	// backup whose catch-up flush still fails.
	shipDegraded atomic.Uint64

	stats counters
	meter concMeter

	serviceOps   atomic.Uint64
	serviceNanos atomic.Uint64

	// queueWait reports the msg server's input-queue wait counters for
	// this DP's process group (ops, nanos). Wired by the cluster after
	// StartServer; guarded by qwMu because takeover/restart rewires it.
	qwMu      sync.Mutex
	queueWait func() (uint64, uint64)

	// slots holds what a READ in service decodes into and replies from
	// (*slot): as many are in use as READs are in service.
	slots sync.Pool
}

// A slot is one READ in service: the request decoded into it, the record
// copied out of the leaf and the reply's one-entry lists. A slot of the
// pool is reused from READ to READ, so a READ allocates nothing.
type slot struct {
	req   fsdp.Request
	reply fsdp.Reply
	val   []byte
	rows  [1][]byte
	keys  [1][]byte
}

// New creates a Disk Process over its volume.
func New(cfg Config) (*DP, error) {
	if cfg.Volume == nil {
		return nil, errors.New("dp: Config.Volume is required")
	}
	if cfg.Audit == nil {
		return nil, errors.New("dp: Config.Audit is required")
	}
	cfg.setDefaults()
	d := &DP{
		cfg:   cfg,
		locks: lock.NewManager(),
		files: make(map[string]*fileState),
		scbs:  make(map[uint32]*scb),
		txs:   make(map[uint64]*txState),
	}
	d.locks.DefaultTimeout = cfg.LockTimeout
	d.pool = cache.NewPoolOpts(cfg.Volume, cfg.CacheSlots, cfg.Audit.Trail(),
		cache.Options{Shards: cfg.CacheShards, PlainLRU: cfg.CachePlainLRU})
	// The meter is the latch Waiter: time a handler spends blocked on a
	// page latch is subtracted from the measured effective concurrency.
	d.latches = btree.NewLatches(&d.meter)
	if cfg.WriteBehind {
		// Write-behind is no longer caller-timed: the pool's background
		// writer runs passes when commits age new pages or the dirty
		// ratio climbs. Commits nudge it (see idleWork).
		d.pool.StartWriter(0)
	}
	return d, nil
}

// Close stops the DP's background machinery and writes out every aged
// dirty page. It never forces the audit trail (unaged pages are left
// for recovery), so it is safe to call while — or after — the trail
// shuts down.
func (d *DP) Close() error {
	d.pool.StopWriter()
	d.pool.DrainWriter()
	return nil
}

// Name returns the DP's process name.
func (d *DP) Name() string { return d.cfg.Name }

// Pool exposes the buffer pool (stats, tests).
func (d *DP) Pool() *cache.Pool { return d.pool }

// VolumeStats returns the managed volume's physical I/O counters.
func (d *DP) VolumeStats() disk.Stats { return d.cfg.Volume.Stats() }

// ResetVolumeStats zeroes the volume's I/O counters.
func (d *DP) ResetVolumeStats() { d.cfg.Volume.ResetStats() }

// Locks exposes the lock manager (stats, tests).
func (d *DP) Locks() *lock.Manager { return d.locks }

// ShipDegradedAcks reports how many acknowledgements this DP returned
// while its backup had not applied the checkpoint stream (see
// Config.ShipFlush).
func (d *DP) ShipDegradedAcks() uint64 { return d.shipDegraded.Load() }

// Stats returns a snapshot of the counters.
func (d *DP) Stats() Stats {
	ls := d.latches.Stats()
	cs := d.pool.Stats()
	_, maxIn := d.meter.snapshot()
	var qwOps, qwNanos uint64
	d.qwMu.Lock()
	if d.queueWait != nil {
		qwOps, qwNanos = d.queueWait()
	}
	d.qwMu.Unlock()
	return Stats{
		Requests:        d.stats.requests.Load(),
		SetRequests:     d.stats.setRequests.Load(),
		Redrives:        d.stats.redrives.Load(),
		RowsScanned:     d.stats.rowsScanned.Load(),
		RowsReturned:    d.stats.rowsReturned.Load(),
		RowsFiltered:    d.stats.rowsFiltered.Load(),
		RowsUpdated:     d.stats.rowsUpdated.Load(),
		RowsDeleted:     d.stats.rowsDeleted.Load(),
		RowsInserted:    d.stats.rowsInserted.Load(),
		PredicateEvals:  d.stats.predicateEvals.Load(),
		CheckEvals:      d.stats.checkEvals.Load(),
		CorruptRefusals: d.stats.corruptRefusals.Load(),
		LatchShared:     ls.SharedGrants,
		LatchExclusive:  ls.ExclusiveGrants,
		LatchWaits:      ls.Waits,
		MaxTreeOps:      ls.MaxOps,
		MaxInFlight:     maxIn,

		CacheHits:           cs.Hits,
		CacheMisses:         cs.Misses,
		CacheKeyedHits:      cs.KeyedHits,
		CacheKeyedMisses:    cs.KeyedMisses,
		CacheSeqHits:        cs.SeqHits,
		CacheSeqMisses:      cs.SeqMisses,
		CachePromotions:     cs.Promotions,
		CacheWALStalls:      cs.WALStalls,
		CacheShardWaits:     cs.ShardWaits,
		CacheShardWaitNanos: cs.ShardWaitNanos,
		CacheShards:         cs.Shards,

		ServiceOps:     d.serviceOps.Load(),
		ServiceNanos:   d.serviceNanos.Load(),
		QueueWaitOps:   qwOps,
		QueueWaitNanos: qwNanos,
	}
}

// SetQueueWait wires the msg server's input-queue wait counters into
// Stats. The cluster calls it after StartServer (and again after
// takeover/restart, when the process group moves).
func (d *DP) SetQueueWait(fn func() (ops, nanos uint64)) {
	d.qwMu.Lock()
	d.queueWait = fn
	d.qwMu.Unlock()
}

// ResetStats zeroes the counters, including the latch table's and the
// concurrency meter's.
func (d *DP) ResetStats() {
	d.stats.requests.Store(0)
	d.stats.setRequests.Store(0)
	d.stats.redrives.Store(0)
	d.stats.rowsScanned.Store(0)
	d.stats.rowsReturned.Store(0)
	d.stats.rowsFiltered.Store(0)
	d.stats.rowsUpdated.Store(0)
	d.stats.rowsDeleted.Store(0)
	d.stats.rowsInserted.Store(0)
	d.stats.predicateEvals.Store(0)
	d.stats.checkEvals.Store(0)
	d.stats.corruptRefusals.Store(0)
	d.latches.ResetStats()
	d.pool.ResetStats()
	d.meter.reset()
	d.serviceOps.Store(0)
	d.serviceNanos.Store(0)
}

// Concurrency returns the measured effective concurrency of request
// service since the last reset — the time integral of (requests in
// service − requests blocked on a page latch), divided by the time at
// least one request was in service — and the in-service high-water
// mark. With one worker it is exactly 1; it approaches the worker count
// when the latch rewrite actually lets handlers overlap.
func (d *DP) Concurrency() (float64, int) {
	return d.meter.snapshot()
}

// Handler is the msg.Handler for this DP's process group: decode, serve,
// append the reply to the sender's buffer. The request's bytes are the
// sender's and may be reused once the handler returns. A READ keeps
// nothing of them — it is decoded into a pooled slot, and the lock a
// READ under a transaction takes gets a copy of the key — so serving one
// allocates nothing. PREPARE, COMMIT, ABORT and CLOSE^SUBSET read only
// the request's numbers. Every other kind may keep what its request
// carries past the message (a Subset Control Block's projection and
// program, locked key ranges, undo keys, shipped images), so it is
// decoded, as every request once was, from a copy of its own.
func (d *DP) Handler(reqBytes, out []byte) []byte {
	var kind fsdp.Kind
	if len(reqBytes) > 0 {
		kind = fsdp.Kind(reqBytes[0])
	}
	switch kind {
	case fsdp.KReadRecord:
		sl, _ := d.slots.Get().(*slot)
		if sl == nil {
			sl = new(slot)
		}
		out = d.reply(out, &sl.req, reqBytes, sl)
		d.slots.Put(sl)
		return out
	case fsdp.KPrepare, fsdp.KCommit, fsdp.KAbort, fsdp.KCloseSubset:
	default:
		reqBytes = bytes.Clone(reqBytes)
	}
	return d.reply(out, new(fsdp.Request), reqBytes, nil)
}

// reply decodes b into req, serves it and appends the reply to out; sl is
// the service slot of a READ.
func (d *DP) reply(out []byte, req *fsdp.Request, b []byte, sl *slot) []byte {
	if err := fsdp.DecodeRequestInto(req, b); err != nil {
		return fsdp.AppendReply(out, &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: err.Error()})
	}
	return fsdp.AppendReply(out, d.serve(req, sl))
}

// Serve handles one decoded request (exported for in-process tests and
// the benchmark's layer ladder); the reply is the caller's.
func (d *DP) Serve(req *fsdp.Request) *fsdp.Reply { return d.serve(req, new(slot)) }

func (d *DP) serve(req *fsdp.Request, sl *slot) *fsdp.Reply {
	d.stats.requests.Add(1)
	// One clock read opens both the concurrency meter's interval and the
	// service timer, and one closes them.
	t0 := d.meter.enter()
	defer func() {
		t1 := time.Now()
		d.serviceOps.Add(1)
		d.serviceNanos.Add(uint64(t1.Sub(t0)))
		d.meter.exit(t1)
	}()

	// Sample the pool around the dispatch so the reply can carry the
	// physical-read / cache-hit cost of serving it. Under concurrent
	// workers the deltas interleave (a neighbor's hit may land on this
	// reply), but in aggregate they still sum to the pool totals, and a
	// single-conversation measurement — EXPLAIN ANALYZE — is exact.
	hits0, misses0 := d.pool.HitsMisses()

	if req.Tx != 0 && d.fenceActive.Load() && req.Kind != fsdp.KCommit && req.Kind != fsdp.KAbort {
		if reply := d.replicaFenced(req); reply != nil {
			return reply
		}
	}

	var reply *fsdp.Reply
	switch req.Kind {
	case fsdp.KCreateFile:
		reply = d.createFile(req)
	case fsdp.KDropFile:
		reply = d.dropFile(req)
	case fsdp.KReadRecord:
		reply = d.readRecord(req, sl)
	case fsdp.KInsertRecord:
		reply = d.insertRecord(req)
	case fsdp.KUpdateRecord:
		reply = d.updateRecord(req)
	case fsdp.KDeleteRecord:
		reply = d.deleteRecord(req)
	case fsdp.KUpdateKey, fsdp.KDeleteKey:
		reply = d.writeKey(req)
	case fsdp.KLockFile, fsdp.KLockRecord, fsdp.KLockRange:
		reply = d.lockOp(req)
	case fsdp.KGetFirstRSBB, fsdp.KGetNextRSBB:
		reply = d.subset(req, getRSBB)
	case fsdp.KGetFirstVSBB, fsdp.KGetNextVSBB:
		reply = d.subset(req, getVSBB)
	case fsdp.KCountFirst, fsdp.KCountNext:
		reply = d.subset(req, countRecords)
	case fsdp.KAggFirst, fsdp.KAggNext:
		reply = d.subset(req, aggregate)
	case fsdp.KProbeBlock:
		reply = d.probeBlock(req)
	case fsdp.KUpdateSubsetFirst, fsdp.KUpdateSubsetNext:
		reply = d.subset(req, updateRecords)
	case fsdp.KDeleteSubsetFirst, fsdp.KDeleteSubsetNext:
		reply = d.subset(req, deleteRecords)
	case fsdp.KInsertBlock:
		reply = d.insertBlock(req)
	case fsdp.KUpdateBlock:
		reply = d.updateBlock(req)
	case fsdp.KDeleteBlock:
		reply = d.deleteBlock(req)
	case fsdp.KCloseSubset:
		reply = d.closeSubset(req)
	case fsdp.KPrepare:
		reply = d.prepare(req)
	case fsdp.KCommit:
		reply = d.commit(req)
	case fsdp.KAbort:
		reply = d.abort(req)
	case fsdp.KShipRecords:
		reply = d.applyShipped(req)
	case fsdp.KPromote:
		reply = d.promote(req)
	default:
		reply = &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: fmt.Sprintf("dp: unknown request kind %d", req.Kind)}
	}
	hits1, misses1 := d.pool.HitsMisses()
	reply.CacheHits = uint32(hits1 - hits0)
	reply.BlocksRead = uint32(misses1 - misses0)
	return reply
}

// errReply converts an internal error into a classified reply.
func errReply(err error) *fsdp.Reply {
	code := fsdp.ErrGeneral
	switch {
	case errors.Is(err, btree.ErrNotFound):
		code = fsdp.ErrNotFound
	case errors.Is(err, btree.ErrDuplicate):
		code = fsdp.ErrDuplicate
	case errors.Is(err, lock.ErrDeadlock):
		code = fsdp.ErrDeadlock
	case errors.Is(err, lock.ErrTimeout):
		code = fsdp.ErrLockTimeout
	case errors.Is(err, errConstraint):
		code = fsdp.ErrConstraint
	case errors.As(err, new(badRequest)):
		code = fsdp.ErrBadRequest
	}
	return &fsdp.Reply{Code: code, Err: err.Error()}
}

// badRequest is a refusal errReply answers ErrBadRequest: a request the
// Disk Process cannot honour whatever its records hold, such as an
// aggregate specification off the network that no SQL compiler wrote.
type badRequest string

func (e badRequest) Error() string { return string(e) }

var errConstraint = errors.New("dp: CHECK constraint violated")

// readFailed is errReply for a request that read pages — a scan, a READ —
// counting the refusal when what failed it is a page, or a record on one,
// that is not well-formed.
func (d *DP) readFailed(err error) *fsdp.Reply {
	if errors.Is(err, btree.ErrCorruptPage) {
		d.stats.corruptRefusals.Add(1)
	}
	return errReply(err)
}

// getFile looks up a file fragment. This is on the path of every
// record operation, so it takes only a read lock.
func (d *DP) getFile(name string) (*fileState, error) {
	d.filesMu.RLock()
	f, ok := d.files[name]
	d.filesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dp %s: no file %q", d.cfg.Name, name)
	}
	return f, nil
}

// createFile creates a key-sequenced file fragment on this volume. The
// tree creation does I/O (allocating and writing the root page), so it
// runs outside the file-map lock; a duplicate discovered at publish
// time loses the race and its root block is simply abandoned (the
// simulated volumes are plentiful, as in dropFile).
func (d *DP) createFile(req *fsdp.Request) *fsdp.Reply {
	schema, err := record.DecodeSchema(req.Schema)
	if err != nil {
		return errReply(err)
	}
	check, err := expr.Decode(req.Check)
	if err != nil {
		return errReply(err)
	}
	d.filesMu.RLock()
	_, dup := d.files[req.File]
	d.filesMu.RUnlock()
	if dup {
		return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: file %q exists", d.cfg.Name, req.File)}
	}
	tree, err := d.newTree(req.File)
	if err != nil {
		return errReply(err)
	}
	d.filesMu.Lock()
	if _, dup := d.files[req.File]; dup {
		d.filesMu.Unlock()
		return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("dp %s: file %q exists", d.cfg.Name, req.File)}
	}
	d.files[req.File] = &fileState{schema: schema, check: check, tree: tree, fieldAudit: req.Audit}
	d.filesMu.Unlock()
	// File metadata never passes through the audit append path, so the
	// backup learns of the new file from a synthesized marker (see
	// fileMarker). Synchronous: the next shipped record may be an insert
	// into this file.
	_ = d.shipSync(fileMarker(d.cfg.Volume.Name(), req.File, req.Schema, req.Check, req.Audit, false))
	return &fsdp.Reply{Root: uint32(tree.Root())}
}

// newTree creates the B-tree of a file fragment. Its values are records,
// so its scans hand them over already walked (btree.Tree.HoldsRecords).
func (d *DP) newTree(file string) (*btree.Tree, error) {
	tree, err := btree.New(d.pool, d.cfg.Volume, file, d.latches)
	if err != nil {
		return nil, err
	}
	return tree.HoldsRecords(record.FieldStarts), nil
}

// dropFile removes a file fragment (its blocks are not reclaimed; the
// simulated volumes are plentiful).
func (d *DP) dropFile(req *fsdp.Request) *fsdp.Reply {
	d.filesMu.Lock()
	if _, ok := d.files[req.File]; !ok {
		d.filesMu.Unlock()
		return &fsdp.Reply{Code: fsdp.ErrNotFound, Err: fmt.Sprintf("dp %s: no file %q", d.cfg.Name, req.File)}
	}
	delete(d.files, req.File)
	d.filesMu.Unlock()
	_ = d.shipSync(fileMarker(d.cfg.Volume.Name(), req.File, nil, nil, false, true))
	return &fsdp.Reply{}
}

// AttachFile registers an existing file fragment (recovery, takeover).
func (d *DP) AttachFile(name string, schema *record.Schema, check expr.Expr, root disk.BlockNum, fieldAudit bool) {
	d.filesMu.Lock()
	defer d.filesMu.Unlock()
	d.files[name] = &fileState{
		schema:     schema,
		check:      check,
		tree:       btree.Open(d.pool, d.cfg.Volume, name, root, d.latches).HoldsRecords(record.FieldStarts),
		fieldAudit: fieldAudit,
	}
}

// readRecord serves the ENSCRIBE READ: whole record by primary key. The
// record is copied from the leaf into the slot, and the reply is the
// slot's, read by the encoder before the slot serves another request.
func (d *DP) readRecord(req *fsdp.Request, sl *slot) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx != 0 {
		mode := lock.Shared
		if req.Mode == 2 {
			mode = lock.Exclusive // read-for-update
		}
		// The lock outlives the request: it holds a copy of the key.
		if err := d.lockTx(req.Tx, req.File, bytes.Clone(req.Key), mode); err != nil {
			return errReply(err)
		}
	}
	// A READ examines one record and, when it is there, returns it: the
	// same books a set request keeps, so records examined per record
	// returned still reads 1 when point reads stop being one-record scans.
	d.stats.rowsScanned.Add(1)
	sl.val, err = f.tree.AppendGet(sl.val[:0], req.Key)
	if err != nil {
		return d.readFailed(err)
	}
	d.stats.rowsReturned.Add(1)
	sl.rows[0], sl.keys[0] = sl.val, req.Key
	sl.reply = fsdp.Reply{Rows: sl.rows[:], RowKeys: sl.keys[:], Examined: 1}
	return &sl.reply
}

// insertRecord serves WRITE: insert one record.
func (d *DP) insertRecord(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: write requires a transaction"}
	}
	row, err := record.Decode(req.Row)
	if err != nil {
		return errReply(err)
	}
	if err := d.insertOne(req.Tx, req.File, f, row); err != nil {
		return errReply(err)
	}
	return &fsdp.Reply{Count: 1}
}

// insertOne validates, locks, audits, and inserts one row.
func (d *DP) insertOne(tx uint64, file string, f *fileState, row record.Row) error {
	f.schema.Coerce(row)
	if err := f.schema.Validate(row); err != nil {
		return err
	}
	if err := d.checkConstraint(f, row); err != nil {
		return err
	}
	key := f.schema.Key(row)
	if err := d.lockTx(tx, file, key, lock.Exclusive); err != nil {
		return err
	}
	enc := record.Encode(row)
	lsn := d.appendAudit(&wal.Record{
		Type: wal.RecInsert, TxID: tx, Volume: d.cfg.Volume.Name(), File: file,
		Key: key, After: enc,
	})
	fault.Inject(fault.DPInsertAfterAudit)
	if err := f.tree.Insert(key, enc, lsn); err != nil {
		return err
	}
	d.addUndo(tx, undoRec{file: file, kind: wal.RecInsert, key: key})
	d.stats.rowsInserted.Add(1)
	return nil
}

// updateRecord serves the ENSCRIBE REWRITE: replace a whole record.
func (d *DP) updateRecord(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: write requires a transaction"}
	}
	newRow, err := record.Decode(req.Row)
	if err != nil {
		return errReply(err)
	}
	if err := d.mustWrite(req.Tx, req.File, f, req.Key, f.replace(newRow)); err != nil {
		return errReply(err)
	}
	return &fsdp.Reply{Count: 1}
}

// deleteRecord serves DELETE by key.
func (d *DP) deleteRecord(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: write requires a transaction"}
	}
	if err := d.mustWrite(req.Tx, req.File, f, req.Key, nil); err != nil {
		return errReply(err)
	}
	return &fsdp.Reply{Count: 1}
}

// writeKey serves UPDATE^KEY and DELETE^KEY: the one record of a primary
// key, changed where it lies when the residual predicate holds — no Subset
// Control Block, no range lock, no pre-fetch, no scan. The key is locked
// before the record is read, found or not, so a residual that rejects the
// record (or a record that is not there) still leaves the key locked to the
// transaction's end. Count says whether the record was changed; neither a
// missing record nor a rejecting residual is an error. Like REWRITE it
// leaves write-behind to the commit that follows.
func (d *DP) writeKey(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: write requires a transaction"}
	}
	pred, err := expr.Decode(req.Pred)
	if err != nil {
		return errReply(err)
	}
	var ch change
	if req.Kind == fsdp.KUpdateKey {
		assigns, err := expr.DecodeAssignments(req.Assign)
		if err != nil {
			return errReply(err)
		}
		ch = f.assign(assigns)
	}
	prog := expr.Compile(pred)
	found, wrote, err := d.writeLocked(req.Tx, req.File, f, req.Key, prog, ch)
	if err != nil {
		return d.readFailed(err)
	}
	// The books a one-record subset over the key kept: a record examined
	// when it is there, and the residual evaluated on it.
	reply := &fsdp.Reply{}
	if found {
		d.stats.rowsScanned.Add(1)
		reply.Examined = 1
		if prog != nil {
			d.stats.predicateEvals.Add(1)
			if !wrote {
				d.stats.rowsFiltered.Add(1)
			}
		}
	}
	if wrote {
		reply.Count = 1
	}
	return reply
}

// A change makes a record's new image from its current one; writeLocked
// deletes the record when its change is nil.
type change func(old record.Row) (record.Row, error)

// replace is the change of REWRITE and UPDATE^BLOCK: the record the File
// System sent, whole.
func (f *fileState) replace(newRow record.Row) change {
	return func(record.Row) (record.Row, error) {
		f.schema.Coerce(newRow)
		return newRow, nil
	}
}

// assign is the change of the SQL writes: the SET list evaluated on the
// record where it lies.
func (f *fileState) assign(assigns []expr.Assignment) change {
	return func(old record.Row) (record.Row, error) {
		newRow, err := expr.ApplyAssignments(old, assigns)
		if err != nil {
			return nil, err
		}
		f.schema.Coerce(newRow)
		return newRow, nil
	}
}

// writeLocked is the one way a Disk Process changes or removes a record:
// lock the key exclusively, read the record under the lock, look at it
// again through pred (nil accepts every record), and then change it — or,
// ch nil, delete it — audit first. What is read after the lock is granted
// is committed or this transaction's own, so the look is honest: a record
// that qualified while another transaction held it uncommitted, and that
// transaction rolled back, is judged as it is now. found reports whether
// the record is there and wrote whether it was changed; when either is
// false nothing was written, and whether that is an error is the caller's
// to say. The predicate check is not counted: the caller counts the
// evaluation that chose the record.
func (d *DP) writeLocked(tx uint64, file string, f *fileState, key []byte, pred *expr.Program, ch change) (found, wrote bool, err error) {
	if err := d.lockTx(tx, file, key, lock.Exclusive); err != nil {
		return false, false, err
	}
	oldEnc, err := f.tree.Get(key)
	if errors.Is(err, btree.ErrNotFound) {
		return false, false, nil
	}
	if err != nil {
		return false, false, err
	}
	if pred != nil {
		var v record.View
		if err := v.Reset(oldEnc); err != nil {
			return true, false, err
		}
		if keep, err := pred.Satisfied(&v); err != nil || !keep {
			return true, false, err
		}
	}
	if ch == nil {
		err = d.deleteFound(tx, file, f, key, oldEnc)
	} else {
		err = d.updateFound(tx, file, f, key, oldEnc, ch)
	}
	return true, err == nil, err
}

// mustWrite is writeLocked for REWRITE, DELETE and their blocks, which name
// a record that must be there.
func (d *DP) mustWrite(tx uint64, file string, f *fileState, key []byte, ch change) error {
	found, _, err := d.writeLocked(tx, file, f, key, nil, ch)
	if err == nil && !found {
		err = fmt.Errorf("%w (%s)", btree.ErrNotFound, file)
	}
	return err
}

// updateFound transforms, validates, CHECKs, audits and stores the locked
// record oldEnc.
func (d *DP) updateFound(tx uint64, file string, f *fileState, key, oldEnc []byte, ch change) error {
	oldRow, err := record.Decode(oldEnc)
	if err != nil {
		return err
	}
	newRow, err := ch(oldRow)
	if err != nil {
		return err
	}
	if err := f.schema.Validate(newRow); err != nil {
		return err
	}
	if err := d.checkConstraint(f, newRow); err != nil {
		return err
	}
	if !bytes.Equal(key, f.schema.Key(newRow)) {
		return fmt.Errorf("dp %s: update may not change the primary key of %q", d.cfg.Name, file)
	}
	newEnc := record.Encode(newRow)
	rec := &wal.Record{
		Type: wal.RecUpdate, TxID: tx, Volume: d.cfg.Volume.Name(), File: file, Key: key,
	}
	if f.fieldAudit {
		// SQL field compression: only the changed fields' images.
		changed := record.DiffFields(oldRow, newRow)
		rec.Before = record.EncodeFieldImages(oldRow, changed)
		rec.After = record.EncodeFieldImages(newRow, changed)
		rec.FieldCompressed = true
	} else {
		rec.Before = oldEnc
		rec.After = newEnc
	}
	lsn := d.appendAudit(rec)
	fault.Inject(fault.DPUpdateAfterAudit)
	if err := f.tree.Update(key, newEnc, lsn); err != nil {
		return err
	}
	d.addUndo(tx, undoRec{file: file, kind: wal.RecUpdate, key: key, before: oldEnc})
	d.stats.rowsUpdated.Add(1)
	return nil
}

// deleteFound audits and removes the locked record oldEnc.
func (d *DP) deleteFound(tx uint64, file string, f *fileState, key, oldEnc []byte) error {
	lsn := d.appendAudit(&wal.Record{
		Type: wal.RecDelete, TxID: tx, Volume: d.cfg.Volume.Name(), File: file,
		Key: key, Before: oldEnc,
	})
	fault.Inject(fault.DPDeleteAfterAudit)
	if err := f.tree.Delete(key, lsn); err != nil {
		return err
	}
	d.addUndo(tx, undoRec{file: file, kind: wal.RecDelete, key: key, before: oldEnc})
	d.stats.rowsDeleted.Add(1)
	return nil
}

// lockOp serves explicit LOCKFILE / LOCKRECORD / LOCKRANGE requests.
func (d *DP) lockOp(req *fsdp.Request) *fsdp.Reply {
	if req.Tx == 0 {
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: "dp: locks require a transaction"}
	}
	mode := lock.Shared
	if req.Mode == 2 {
		mode = lock.Exclusive
	}
	var err error
	switch req.Kind {
	case fsdp.KLockFile:
		err = d.locks.LockFile(req.Tx, req.File, mode)
	case fsdp.KLockRecord:
		err = d.locks.LockRecord(req.Tx, req.File, req.Key, mode)
	case fsdp.KLockRange:
		_, err = d.locks.Acquire(req.Tx, req.File, req.Range, mode)
	}
	if err != nil {
		return errReply(err)
	}
	d.joinTx(req.Tx)
	return &fsdp.Reply{}
}

// lockTx acquires a record lock and registers the tx locally.
func (d *DP) lockTx(tx uint64, file string, key []byte, mode lock.Mode) error {
	if err := d.locks.LockRecord(tx, file, key, mode); err != nil {
		return err
	}
	d.joinTx(tx)
	return nil
}

// checkConstraint enforces the file's CHECK at the Disk Process,
// obviating the File System's preliminary constraint-verification read.
func (d *DP) checkConstraint(f *fileState, row record.Row) error {
	if f.check == nil {
		return nil
	}
	d.stats.checkEvals.Add(1)
	ok, err := expr.Satisfied(f.check, row)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w (%s)", errConstraint, f.check)
	}
	return nil
}
