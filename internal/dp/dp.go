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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
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
	// the cluster's shipper buffers the framed records. The record and
	// the bytes it points to are lent for the call — the Disk Process
	// reuses them for its next write — so Ship copies what it keeps.
	// ShipFlush sends the buffer to the backup and waits for it to be
	// applied and durable there — called before a commit is
	// acknowledged, so every confirmed transaction is on the backup's
	// own trail. A ShipFlush
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
	name       string // the file's name, the key it is found by: decoded requests name it with this string
	schema     *record.Schema
	check      expr.Expr
	tree       *btree.Tree
	fieldAudit bool // SQL field-compressed audit vs ENSCRIBE full images
}

// scb is a Subset Control Block: server-side state created at GET^FIRST
// / UPDATE^SUBSET^FIRST time so re-drives need not re-send the
// predicate, projection, or update expression. kind, tx and file name
// the conversation it belongs to; a ^NEXT must match all three.
//
// An SCB is reused: when its conversation ends it goes on the Disk
// Process's free list with every list and arena it grew (DP.freeSCB,
// scb.reset), so the next conversation's projection, aggregate
// specification, leaf plan and groups cost nothing once they fit. A
// reused struct never answers to its old id: ids come from a counter that
// only rises, and an id is dropped from the table before its SCB is
// freed.
type scb struct {
	kind fsdp.Kind // the conversation's ^FIRST kind
	tx   uint64
	file string
	pred *expr.Program // the selection predicate, compiled at ^FIRST; nil accepts every record
	proj []int         // the projection (GET^VSBB), copied from ^FIRST; nil ships the record whole
	set  expr.SetList  // the SET list (UPDATE^SUBSET), decoded at ^FIRST
	agg  fsdp.AggSpec  // partial-aggregate program (AGG^FIRST/NEXT), decoded at ^FIRST
	// groups are the groups folded so far and not yet shipped; weight is
	// what their reply entries weigh (fsdp.GroupLen): their bytes if
	// shipped now. width is aggWidth of agg, checked once a record. kb and
	// fields are the record at hand's group key bytes and key values.
	groups        fsdp.GroupTable
	weight, width int
	kb, fields    []byte
	marked        int // weight at groups.Mark
	// class is the cache access class derived once at ^FIRST time and
	// reused by every re-drive: a re-drive's range always has Low set
	// (the continuation key), so re-deriving from the range would
	// misclassify every full scan after its first message.
	class cache.AccessClass
	// planned: the pool took the pre-fetch of the range's leaves (the
	// plan runs to the range's end, which no ^NEXT moves). plan is the
	// list the leaves were planned into.
	planned bool
	plan    []disk.BlockNum
	// limit/delivered implement the conversation-wide qualifying-row
	// budget (Request.ScanLimit): once delivered reaches limit the
	// subset ends early with Done=true, whatever remains in the range.
	limit     uint32
	delivered uint32

	// busy: a message is being served on the SCB; retired: its id was
	// dropped meanwhile (CLOSE^SUBSET, the transaction's end, a crash),
	// and the message frees it when it ends. Both are guarded by DP.mu.
	busy, retired bool
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
	// held across I/O or tree operations. The free lists keep finished
	// conversations' SCBs and finished transactions' states for the next.
	mu      sync.Mutex
	scbs    map[uint32]*scb
	nextSCB uint32
	freeSCB freeList[scb]
	txs     map[uint64]*txState
	freeTx  freeList[txState]

	// rep is the backup-role state: created on the first shipped
	// checkpoint batch, it tracks in-flight transactions so promotion
	// can resolve them. nil on a DP that was never shipped to.
	// fenceActive is set once promotion fences any transaction, so the
	// per-request fence check costs one atomic load everywhere else.
	rep         atomic.Pointer[replicaState]
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

	// freeSlot holds what a request in service decodes into, works in and
	// replies from (*slot) while no request is: as many are out as
	// requests are in service, and each comes back with what it grew.
	slotMu   sync.Mutex
	freeSlot freeList[slot]
	// names is fileName, made once: what a decoded request's file name is
	// taken from.
	names func([]byte) (string, bool)
}

// A slot is one request in service — a READ, an INSERT, a keyed or
// whole-record write, a lock, a PREPARE, COMMIT or ABORT, or a message of
// a subset conversation: the request decoded into it, its reply, a READ's
// record copied out of the leaf and the reply's one-entry lists, a keyed
// UPDATE's SET list, the write it makes (rows, images and audit record),
// the marker a PREPARE, COMMIT or ABORT audits, and a subset message's run
// — its virtual block, its reply's lists, the keys it collected, its
// column scratch. A slot of the free list is reused from request to
// request, and its reply is encoded before it is, so a READ or a
// conversation's message allocates nothing, and a write what its
// transaction keeps.
type slot struct {
	req   fsdp.Request
	proj  []int // what req.Proj decodes into
	reply fsdp.Reply
	val   []byte
	rows  [1][]byte
	keys  [1][]byte
	set   expr.SetList
	w     write
	mark  wal.Record
	run   subsetRun // a subset message replies from run.reply, whose lists it keeps
}

// answer makes r the slot's reply.
func (sl *slot) answer(r fsdp.Reply) *fsdp.Reply {
	sl.reply = r
	return &sl.reply
}

// slotKind reports whether requests of kind decode into a slot: every
// record request and every message of a subset conversation, whose
// Subset Control Block copies what its ^FIRST carries. The blocks and the
// rare kinds decode into a Request of their own.
func slotKind(kind fsdp.Kind) bool {
	switch kind {
	case fsdp.KInsertBlock, fsdp.KUpdateBlock, fsdp.KDeleteBlock, fsdp.KProbeBlock,
		fsdp.KCreateFile, fsdp.KDropFile, fsdp.KShipRecords, fsdp.KPromote:
		return false
	}
	return true
}

// changesOrLocks reports whether requests of kind change records or lock
// them, which only a transaction's may.
func changesOrLocks(kind fsdp.Kind) bool {
	switch kind {
	case fsdp.KInsertRecord, fsdp.KUpdateRecord, fsdp.KDeleteRecord, fsdp.KUpdateKey, fsdp.KDeleteKey,
		fsdp.KLockFile, fsdp.KLockRecord, fsdp.KLockRange, fsdp.KInsertBlock, fsdp.KUpdateBlock, fsdp.KDeleteBlock,
		fsdp.KUpdateSubsetFirst, fsdp.KUpdateSubsetNext, fsdp.KDeleteSubsetFirst, fsdp.KDeleteSubsetNext:
		return true
	}
	return false
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
		cfg:      cfg,
		locks:    lock.NewManager(),
		files:    make(map[string]*fileState),
		scbs:     make(map[uint32]*scb),
		freeSCB:  freeList[scb]{max: maxFreeSCBs},
		txs:      make(map[uint64]*txState),
		freeTx:   freeList[txState]{max: maxFreeTxs},
		freeSlot: freeList[slot]{max: maxFreeSlots},
	}
	d.names = d.fileName
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
// sender's and may be reused once the handler returns, so whatever
// outlives the message is copied out of them: a lock copies what it
// locks, an undo entry its key and image (txState.keep), the trail and a
// backup's checkpoint stream encode the audit record. A record request or
// a subset conversation's message decodes into a service slot from the
// free list (slotKind); the rest into a Request of their own, whose
// repeated fields the decoder allocates. Creating a file and applying
// shipped records keep most of what they carry (the file's
// definition, the records a backup holds for takeover), and are rare: they
// are decoded from a copy of the whole request.
func (d *DP) Handler(reqBytes, out []byte) []byte {
	var kind fsdp.Kind
	if len(reqBytes) > 0 {
		kind = fsdp.Kind(reqBytes[0])
	}
	switch {
	case slotKind(kind):
		d.slotMu.Lock()
		sl := d.freeSlot.take()
		d.slotMu.Unlock()
		sl.req.Proj = sl.proj // a request without one decodes Proj nil: the list is kept here
		out = d.reply(out, &sl.req, reqBytes, sl)
		if cap(sl.req.Proj) > cap(sl.proj) {
			sl.proj = sl.req.Proj[:0]
		}
		sl.w.bytes.Reset()
		d.slotMu.Lock()
		d.freeSlot.put(sl)
		d.slotMu.Unlock()
		return out
	case kind == fsdp.KCreateFile, kind == fsdp.KShipRecords:
		reqBytes = bytes.Clone(reqBytes)
	}
	return d.reply(out, new(fsdp.Request), reqBytes, nil)
}

// maxFreeSlots bounds the free list of service slots: more requests in
// service at once than that leave the extra slots to the collector.
// Unlike a sync.Pool's, the free list keeps its slots across garbage
// collections and processors.
const maxFreeSlots = 64

// A freeList is a LIFO of finished objects for the next to reuse, with
// what they grew, and the count of those taken and not given back — what
// a Disk Process at rest has none of (OpenState). Its owner's mutex guards
// it, and its owner resets what it gives back.
type freeList[T any] struct {
	free []*T
	max  int // how many it keeps; the rest are left to the collector
	out  int
}

// take returns a freed object, or a new one when there is none.
func (l *freeList[T]) take() *T {
	l.out++
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// put gives x back.
func (l *freeList[T]) put(x *T) {
	l.out--
	if len(l.free) < l.max {
		l.free = append(l.free, x)
	}
}

// reply decodes b into req, serves it and appends the reply to out.
func (d *DP) reply(out []byte, req *fsdp.Request, b []byte, sl *slot) []byte {
	if err := fsdp.DecodeRequestInto(req, b, d.names); err != nil {
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

	// A message of a transaction is in service in it until it is answered,
	// but for the three that end it; a write or a lock must have one.
	var t *txState
	switch {
	case req.Tx == 0 && changesOrLocks(req.Kind):
		return &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: fmt.Sprintf("dp: %s requires a transaction", req.Kind)}
	case req.Tx != 0 && req.Kind != fsdp.KPrepare && req.Kind != fsdp.KCommit && req.Kind != fsdp.KAbort:
		t = d.enter(req.Tx)
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
		reply = d.insertRecord(req, sl)
	case fsdp.KUpdateRecord:
		reply = d.updateRecord(req, sl)
	case fsdp.KDeleteRecord:
		reply = d.deleteRecord(req, sl)
	case fsdp.KUpdateKey, fsdp.KDeleteKey:
		reply = d.writeKey(req, sl)
	case fsdp.KLockFile, fsdp.KLockRecord, fsdp.KLockRange:
		reply = d.lockOp(req, sl)
	case fsdp.KGetFirstRSBB, fsdp.KGetNextRSBB:
		reply = d.subset(req, getRSBB, &sl.run)
	case fsdp.KGetFirstVSBB, fsdp.KGetNextVSBB:
		reply = d.subset(req, getVSBB, &sl.run)
	case fsdp.KCountFirst, fsdp.KCountNext:
		reply = d.subset(req, countRecords, &sl.run)
	case fsdp.KAggFirst, fsdp.KAggNext:
		reply = d.subset(req, aggregate, &sl.run)
	case fsdp.KProbeBlock:
		reply = d.probeBlock(req)
	case fsdp.KUpdateSubsetFirst, fsdp.KUpdateSubsetNext:
		reply = d.subset(req, updateRecords, &sl.run)
	case fsdp.KDeleteSubsetFirst, fsdp.KDeleteSubsetNext:
		reply = d.subset(req, deleteRecords, &sl.run)
	case fsdp.KInsertBlock:
		reply = d.insertBlock(req)
	case fsdp.KUpdateBlock:
		reply = d.updateBlock(req)
	case fsdp.KDeleteBlock:
		reply = d.deleteBlock(req)
	case fsdp.KCloseSubset:
		reply = d.closeSubset(req, sl)
	case fsdp.KPrepare:
		reply = d.prepare(req, sl)
	case fsdp.KCommit:
		reply = d.commit(req, sl)
	case fsdp.KAbort:
		reply = d.abort(req, sl)
	case fsdp.KShipRecords:
		reply = d.applyShipped(req)
	case fsdp.KPromote:
		reply = d.promote(req)
	default:
		reply = &fsdp.Reply{Code: fsdp.ErrBadRequest, Err: fmt.Sprintf("dp: unknown request kind %d", req.Kind)}
	}
	if t != nil {
		if err := d.leave(req.Tx, t); err != nil {
			reply = errReply(err)
		}
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

// fileName is the name of the file b names, when this Disk Process has
// it: the string its file map holds, so decoding a request allocates none.
func (d *DP) fileName(b []byte) (string, bool) {
	d.filesMu.RLock()
	f, ok := d.files[string(b)]
	d.filesMu.RUnlock()
	if !ok {
		return "", false
	}
	return f.name, true
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
	d.files[req.File] = &fileState{name: req.File, schema: schema, check: check, tree: tree, fieldAudit: req.Audit}
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
		name:       name,
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
		if err := d.lockTx(req.Tx, req.File, req.Key, mode); err != nil {
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

// insertRecord serves WRITE: insert one record. The record is read where
// it lies in the message, into the slot's write.
func (d *DP) insertRecord(req *fsdp.Request, sl *slot) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	var row record.Row
	if sl.w.rows, row, err = record.AppendBorrowed(sl.w.rows[:0], req.Row); err != nil {
		return errReply(err)
	}
	if err := d.insertOne(&sl.w, req.Tx, req.File, f, row); err != nil {
		return errReply(err)
	}
	return sl.answer(fsdp.Reply{Count: 1})
}

// insertOne validates, locks, audits, and inserts one row, made in w. The
// key's absence is checked under the leaf's latch before anything is
// audited: a duplicate leaves no trace on the trail.
func (d *DP) insertOne(w *write, tx uint64, file string, f *fileState, row record.Row) error {
	f.schema.Coerce(row)
	if err := f.schema.Validate(row); err != nil {
		return err
	}
	if err := d.checkConstraint(f, row); err != nil {
		return err
	}
	w.begin()
	key := w.bytes.Keep(f.schema.AppendKey(w.bytes.Free(), row))
	if err := d.lockTx(tx, file, key, lock.Exclusive); err != nil {
		return err
	}
	enc := w.bytes.Keep(record.AppendEncode(w.bytes.Free(), row))
	err := f.tree.Edit(key, func(_ []byte, found bool) (btree.Edit, error) {
		if found {
			return btree.Edit{}, fmt.Errorf("%w (%s)", btree.ErrDuplicate, file)
		}
		w.rec = wal.Record{
			Type: wal.RecInsert, TxID: tx, Volume: d.cfg.Volume.Name(), File: file,
			Key: key, After: enc,
		}
		w.undo = undoRec{file: file, kind: wal.RecInsert, key: key}
		return btree.Edit{Op: btree.Put, Val: enc, LSN: d.audit(w, fault.DPInsertAfterAudit)}, nil
	})
	return d.logged(tx, f, w, err)
}

// updateRecord serves the ENSCRIBE REWRITE: replace a whole record.
func (d *DP) updateRecord(req *fsdp.Request, sl *slot) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	newRow, err := record.Decode(req.Row)
	if err != nil {
		return errReply(err)
	}
	if err := d.mustWrite(&sl.w, req.Tx, req.File, f, req.Key, &change{row: newRow}); err != nil {
		return errReply(err)
	}
	return sl.answer(fsdp.Reply{Count: 1})
}

// deleteRecord serves DELETE by key.
func (d *DP) deleteRecord(req *fsdp.Request, sl *slot) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	if err := d.mustWrite(&sl.w, req.Tx, req.File, f, req.Key, nil); err != nil {
		return errReply(err)
	}
	return sl.answer(fsdp.Reply{Count: 1})
}

// writeKey serves UPDATE^KEY and DELETE^KEY: the one record of a primary
// key, changed where it lies when the residual predicate holds — no Subset
// Control Block, no range lock, no pre-fetch, no scan. The key is locked
// before the record is read, found or not, so a residual that rejects the
// record (or a record that is not there) still leaves the key locked to the
// transaction's end. Count says whether the record was changed; neither a
// missing record nor a rejecting residual is an error. Like REWRITE it
// leaves write-behind to the commit that follows. The predicate and SET
// list are decoded from every message: the requester substitutes a
// statement's parameters into both before it sends them, so the bytes
// of one statement differ from run to run. The SET list decodes into the
// slot's SetList, and the change is made in the slot's write.
func (d *DP) writeKey(req *fsdp.Request, sl *slot) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	p, err := expr.Decode(req.Pred)
	if err != nil {
		return errReply(err)
	}
	pred := expr.Compile(p)
	var ch *change
	if req.Kind == fsdp.KUpdateKey {
		if err := sl.set.Decode(req.Assign); err != nil {
			return errReply(err)
		}
		ch = &change{set: &sl.set}
	}
	found, wrote, err := d.writeLocked(&sl.w, req.Tx, req.File, f, req.Key, pred, ch)
	if err != nil {
		return d.readFailed(err)
	}
	// The books a one-record subset over the key kept: a record examined
	// when it is there, and the residual evaluated on it.
	reply := sl.answer(fsdp.Reply{})
	if found {
		d.stats.rowsScanned.Add(1)
		reply.Examined = 1
		if pred != nil {
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
type change struct {
	set *expr.SetList // the SQL writes: the SET list, evaluated on the record
	row record.Row    // REWRITE and UPDATE^BLOCK: the record the File System sent, whole
}

// apply returns the record's new image, coerced to f's schema; a SET list
// makes it behind whatever dst holds.
func (c *change) apply(f *fileState, old, dst record.Row) (record.Row, error) {
	newRow := c.row
	if newRow == nil {
		var err error
		if newRow, err = c.set.Append(dst, old); err != nil {
			return nil, err
		}
	}
	f.schema.Coerce(newRow)
	return newRow, nil
}

// writeLocked is the one way a Disk Process changes or removes a record:
// lock the key exclusively, then, in one look at the record's leaf under
// its exclusive latch (btree.Tree.Edit), judge the record again through
// pred (nil accepts every record) and change it — or, ch nil, delete it —
// audit first. What is read after the lock is granted is committed or
// this transaction's own, so the look is honest: a record that qualified
// while another transaction held it uncommitted, and that transaction
// rolled back, is judged as it is now. found reports whether the record
// is there and wrote whether it was changed; when either is false nothing
// was written, and whether that is an error is the caller's to say. The
// predicate check is not counted: the caller counts the evaluation that
// chose the record. The change is made in w; the audit record and the
// undo entry point at key until it is logged, and the lock and the undo
// entry then keep copies.
func (d *DP) writeLocked(w *write, tx uint64, file string, f *fileState, key []byte, pred *expr.Program, ch *change) (found, wrote bool, err error) {
	if err := d.lockTx(tx, file, key, lock.Exclusive); err != nil {
		return false, false, err
	}
	w.begin()
	err = f.tree.Edit(key, func(cur []byte, there bool) (btree.Edit, error) {
		if found = there; !found {
			return btree.Edit{}, nil
		}
		if pred != nil {
			var v record.View
			if err := v.Reset(cur); err != nil {
				return btree.Edit{}, err
			}
			if keep, err := pred.Satisfied(&v); err != nil || !keep {
				return btree.Edit{}, err
			}
		}
		if ch == nil {
			return d.deleteFound(w, tx, file, key, cur), nil
		}
		return d.updateFound(w, tx, file, f, key, cur, ch)
	})
	err = d.logged(tx, f, w, err)
	return found, err == nil && w.audited, err
}

// mustWrite is writeLocked for REWRITE, DELETE and their blocks, which name
// a record that must be there.
func (d *DP) mustWrite(w *write, tx uint64, file string, f *fileState, key []byte, ch *change) error {
	found, _, err := d.writeLocked(w, tx, file, f, key, nil, ch)
	if err == nil && !found {
		err = fmt.Errorf("%w (%s)", btree.ErrNotFound, file)
	}
	return err
}

// A write is one record change made under its leaf's latch — the audit
// record appended to the trail there (audited false when nothing was),
// the flushes of the audit buffers that append filled, and the undo entry
// that takes the change back — and the memory it is made in: the record's
// rows as it is and as the change makes it, the changed fields, and an
// arena for the key and the images. Whoever owns a write reuses it from
// change to change (a slot, from request to request): once a change is
// logged nothing points into it, for the lock and the undo entry copied
// what they keep and the trail and the backup's stream encoded the record.
type write struct {
	rec     wal.Record
	audited bool
	filled  tmf.Filled
	undo    undoRec
	rows    record.Row
	changed []int
	bytes   fsdp.Arena
}

// begin starts a change in w: nothing audited, the last change's bytes
// taken back.
func (w *write) begin() {
	w.audited = false
	w.bytes.Reset()
}

// audit buffers w's audit record on the trail and fires the write's crash
// point, in the window between the audit append and the change it
// protects. It runs under the leaf's latch, so it does only the in-memory
// append: the flush of a buffer the record filled (a bulk write and a
// sync, and an audit-send message) and the ship to a backup, which may
// wait on the backup's flush, wait until the latch is gone (logged).
func (d *DP) audit(w *write, point string) wal.LSN {
	lsn, filled := d.cfg.Audit.Buffer(&w.rec)
	w.audited, w.filled = true, filled
	fault.Inject(point)
	return lsn
}

// logged finishes w once its leaf's latch is released: the audit buffer
// its record filled is flushed, the record is shipped to the backup, and
// — when the change is in the tree (err nil) — its undo entry is kept and
// it is counted. A change whose transaction ended after the write joined
// it has no undo chain to join: it is taken back (compensate), still under
// the transaction's lock, and the write fails.
func (d *DP) logged(tx uint64, f *fileState, w *write, err error) error {
	if !w.audited {
		return err
	}
	d.cfg.Audit.FlushFull(w.filled)
	d.ship(&w.rec)
	if err != nil {
		return err
	}
	fault.Inject(fault.DPBeforeUndo)
	if err := d.addUndo(tx, w.undo); err != nil {
		if _, cerr := d.compensate(&w.rec, tx, f, w.undo, false, true); cerr != nil {
			return cerr
		}
		return err
	}
	switch w.rec.Type {
	case wal.RecInsert:
		d.stats.rowsInserted.Add(1)
	case wal.RecUpdate:
		d.stats.rowsUpdated.Add(1)
	case wal.RecDelete:
		d.stats.rowsDeleted.Add(1)
	}
	return nil
}

// updateFound transforms, validates, CHECKs, encodes and audits the
// locked record cur, borrowed from its leaf, and returns the new image
// for the leaf. The record is decoded borrowing cur's strings, and so is
// every value the change leaves as it was: nothing made of the two rows
// outlives the latch but the encoded images, and those are copies.
func (d *DP) updateFound(w *write, tx uint64, file string, f *fileState, key, cur []byte, ch *change) (btree.Edit, error) {
	// w's rows hold both: the record as it is, and as the change makes it.
	width := len(f.schema.Fields)
	arena, oldRow, err := record.AppendBorrowed(slices.Grow(w.rows[:0], 2*width), cur)
	if err != nil {
		return btree.Edit{}, err
	}
	w.rows = arena[:0]
	newRow, err := ch.apply(f, oldRow, arena)
	if err != nil {
		return btree.Edit{}, err
	}
	if err := f.schema.Validate(newRow); err != nil {
		return btree.Edit{}, err
	}
	if err := d.checkConstraint(f, newRow); err != nil {
		return btree.Edit{}, err
	}
	var kb [64]byte
	if !bytes.Equal(key, f.schema.AppendKey(kb[:0], newRow)) {
		return btree.Edit{}, fmt.Errorf("dp %s: update may not change the primary key of %q", d.cfg.Name, file)
	}
	// And w's buffer the images: the record's bytes as they are, which the
	// undo entry restores, the new ones for the leaf, and the audit's.
	before := w.bytes.Keep(append(w.bytes.Free(), cur...))
	newEnc := w.bytes.Keep(record.AppendEncode(w.bytes.Free(), newRow))
	w.rec = wal.Record{
		Type: wal.RecUpdate, TxID: tx, Volume: d.cfg.Volume.Name(), File: file, Key: key,
	}
	if f.fieldAudit {
		// SQL field compression: only the changed fields' images.
		w.changed = record.AppendDiffFields(w.changed[:0], oldRow, newRow)
		w.rec.Before = w.bytes.Keep(record.AppendFieldImages(w.bytes.Free(), oldRow, w.changed))
		w.rec.After = w.bytes.Keep(record.AppendFieldImages(w.bytes.Free(), newRow, w.changed))
		w.rec.FieldCompressed = true
	} else {
		w.rec.Before = before
		w.rec.After = newEnc
	}
	w.undo = undoRec{file: file, kind: wal.RecUpdate, key: key, before: before}
	return btree.Edit{Op: btree.Put, Val: newEnc, LSN: d.audit(w, fault.DPUpdateAfterAudit)}, nil
}

// deleteFound audits the removal of the locked record cur, borrowed from
// its leaf.
func (d *DP) deleteFound(w *write, tx uint64, file string, key, cur []byte) btree.Edit {
	before := w.bytes.Keep(append(w.bytes.Free(), cur...))
	w.rec = wal.Record{
		Type: wal.RecDelete, TxID: tx, Volume: d.cfg.Volume.Name(), File: file,
		Key: key, Before: before,
	}
	w.undo = undoRec{file: file, kind: wal.RecDelete, key: key, before: before}
	return btree.Edit{Op: btree.Remove, LSN: d.audit(w, fault.DPDeleteAfterAudit)}
}

// lockOp serves explicit LOCKFILE / LOCKRECORD / LOCKRANGE requests.
func (d *DP) lockOp(req *fsdp.Request, sl *slot) *fsdp.Reply {
	mode := lock.Shared
	if req.Mode == 2 {
		mode = lock.Exclusive
	}
	var err error
	switch req.Kind {
	case fsdp.KLockFile:
		_, err = d.locks.Acquire(req.Tx, req.File, keys.All(), mode)
	case fsdp.KLockRecord:
		err = d.locks.LockRecord(req.Tx, req.File, req.Key, mode)
	case fsdp.KLockRange:
		_, err = d.locks.Acquire(req.Tx, req.File, req.Range, mode)
	}
	if err != nil {
		return errReply(err)
	}
	if err := d.join(req.Tx); err != nil {
		return errReply(err)
	}
	return sl.answer(fsdp.Reply{})
}

// lockTx acquires a record lock and registers the tx locally (join).
func (d *DP) lockTx(tx uint64, file string, key []byte, mode lock.Mode) error {
	if err := d.locks.LockRecord(tx, file, key, mode); err != nil {
		return err
	}
	return d.join(tx)
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
