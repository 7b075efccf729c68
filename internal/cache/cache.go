// Package cache implements the Disk Process's cache management
// component: a sharded, access-class-aware buffer pool over one volume
// that obeys write-ahead-log protocol, plus the SQL-specific
// optimizations the paper builds on the set-oriented interface —
// asynchronous pre-fetch of the blocks covering a known key span,
// scan-resistant replacement driven by the access pattern the Subset
// Control Block already knows, and autonomous write-behind of strings
// of dirty sequential blocks whose audit has already reached disk.
package cache

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/wal"
)

// WALGate is the slice of the audit trail the cache needs to honor
// write-ahead-log protocol: a dirty page may reach disk only after the
// audit describing its updates is durable.
type WALGate interface {
	FlushedLSN() wal.LSN
	FlushTo(wal.LSN)
}

// nopGate is used when a pool has no transactional data (e.g. tests).
type nopGate struct{}

func (nopGate) FlushedLSN() wal.LSN { return ^wal.LSN(0) }
func (nopGate) FlushTo(wal.LSN)     {}

// AccessClass tells the pool what kind of access a fill or touch is
// part of. The Disk Process derives it from the Subset Control Block:
// full-subset scans and bulk loads are Sequential, keyed reads and
// B-tree index levels are Keyed. Sequential fills recycle through the
// probation segment so one large scan cannot flood the protected hot
// set of a keyed workload sharing the volume.
type AccessClass uint8

const (
	// Keyed is random, reuse-likely access: point reads, B-tree
	// interior pages, update-in-place working sets.
	Keyed AccessClass = iota
	// Sequential is one-pass access: full-subset scans, bulk loads.
	Sequential
)

func (c AccessClass) String() string {
	if c == Sequential {
		return "sequential"
	}
	return "keyed"
}

// PrefetchParallel bounds the number of goroutines (and hence
// concurrent bulk reads) a pool uses to service pre-fetch runs.
const PrefetchParallel = 4

// Stats counts buffer pool activity.
type Stats struct {
	Hits              uint64 // KeyedHits + SeqHits
	Misses            uint64 // demand single-block reads
	KeyedHits         uint64
	KeyedMisses       uint64
	SeqHits           uint64
	SeqMisses         uint64
	Evictions         uint64
	DirtyEvictions    uint64
	Promotions        uint64 // probation pages promoted by a keyed touch
	PrefetchOps       uint64 // bulk reads issued by pre-fetch
	PrefetchedBlocks  uint64
	PrefetchPeak      uint64 // max concurrent pre-fetch workers observed
	WriteBehindOps    uint64 // bulk writes issued by write-behind
	WriteBehindBlocks uint64
	WriterPasses      uint64 // write-behind passes that claimed at least one page
	WALStalls         uint64 // flushes forced by the WAL gate
	ShardAcquires     uint64 // shard-mutex acquisitions, contended or not
	ShardWaits        uint64 // shard-mutex acquisitions that had to block
	ShardWaitNanos    uint64 // total time those acquisitions spent blocked
	Shards            int
}

// counters is the pool-wide atomic stats block. Per-shard mutexes make
// a single locked Stats struct a contention point of its own, so every
// counter is independent.
type counters struct {
	keyedHits, keyedMisses            atomic.Uint64
	seqHits, seqMisses                atomic.Uint64
	evictions, dirtyEvictions         atomic.Uint64
	promotions                        atomic.Uint64
	prefetchOps, prefetchedBlocks     atomic.Uint64
	writeBehindOps, writeBehindBlocks atomic.Uint64
	writerPasses                      atomic.Uint64
	walStalls                         atomic.Uint64
}

// Replacement segments. Protected holds the keyed hot set; probation is
// the recycling ring sequential fills pass through.
const (
	segProt = iota
	segProb
)

// A PageIndex is a sidecar the page's user hangs on a cache slot: an
// index derived from the slot's bytes and kept off the page, so the
// block image stays what it is on disk. The B-tree keeps its cell
// offset table here (Offs: the start of every cell, then the end of the
// last one) and, for a leaf of a record file, two more parts built
// lazily by the first scan of more than one of its records: the record
// table (Recs), every record's field starts, and the scan part (Scan).
// The pool never reads it; it only forgets it whenever the slot's bytes
// are replaced.
//
// A published PageIndex is read by every holder of the page's shared
// latch at once, so its user changes one only under the exclusive latch,
// and adds the record table and the scan part by publishing a new
// PageIndex that carries every part. The scan part's columns are the
// one thing added under the shared latch, each by an atomic store.
type PageIndex struct {
	Offs []uint16
	// Recs is nil until built. Then, for a page of n cells, Recs[:n+1] says
	// where each cell's entries start within Recs (and, last, where they
	// end), and cell i's entries Recs[Recs[i]:Recs[i+1]] are its record's
	// field starts and then its length, relative to the record's first
	// byte.
	Recs []uint16
	// Scan is nil until built, with Recs, and dropped with it.
	Scan *LeafScan
}

// A LeafScan is what a leaf's scans read instead of the leaf: a copy of
// its last key, which a range scan tests its upper bound against, and
// the columns of its numeric fields, each built the first time a scan
// asks for it.
type LeafScan struct {
	LastKey []byte
	// Cols has one entry per field ordinal that every record of the leaf
	// has, so a column is never built for an ordinal some record lacks.
	// An entry is nil until the field's column is built, and then the
	// column: one that says, by a nil Kinds, that the field is not a
	// column in this leaf version.
	Cols []atomic.Pointer[Column]
}

// A Column is one field of every record of a leaf, in cell order, decoded:
// the field's type (the record package's, zero for NULL) and eight bytes
// of value, an INTEGER's int64 or a FLOAT's float64 bits. Both slices are
// shared by every scanner of the leaf and never written once published.
type Column struct {
	Kinds []uint8
	Vals  []uint64
}

// A Page is a pinned cache buffer. Callers must Release it; Data stays
// valid only while pinned: evicting a page hands its buffer back to the
// disk package's block pool, and the next miss or snapshot reuses it.
type Page struct {
	sh    *shard
	bn    disk.BlockNum
	data  []byte
	index atomic.Pointer[PageIndex] // nil until the page's user builds it
	dirty bool                      // flipped only through setDirty
	// dropped: no longer in the page table (Discard, Crash). Crash can
	// orphan a page somebody still holds; its later transitions must not
	// move the count of resident dirty pages.
	dropped bool
	lsn     wal.LSN // page LSN: highest audit LSN applied to this page
	pins    int
	// writing marks an in-flight disk write of a snapshot of this page,
	// taken with the shard mutex dropped so a flush of page A never
	// stalls a hit on page B. While set the page must be neither evicted
	// nor discarded: a re-read (or re-use of the block) could otherwise
	// race the write landing on disk.
	writing bool
	seg     uint8 // segProt or segProb
	// LRU bookkeeping within the segment list
	prev, next *Page
}

// Data returns the page's 4 KB buffer for read or in-place modification.
func (p *Page) Data() []byte { return p.data }

// BlockNum returns the block this page caches.
func (p *Page) BlockNum() disk.BlockNum { return p.bn }

// Index returns the slot's sidecar, or nil when none has been built
// since the slot's bytes last changed. A slot is born without one (a
// load, or a reload after eviction, Discard or Crash, makes a new Page)
// and MarkDirty drops it.
func (p *Page) Index() *PageIndex { return p.index.Load() }

// SetIndex publishes the sidecar. The caller must hold whatever guards
// the page's bytes against writers (the B-tree's page latch); two
// readers that each built one from the same bytes may both publish.
func (p *Page) SetIndex(ix *PageIndex) { p.index.Store(ix) }

// MarkDirty records a modification protected by the audit record at lsn.
// The page cannot be written to disk until that audit is durable. The
// bytes changed, so the sidecar is dropped; a writer that kept it in
// step with its change publishes it again afterwards.
func (p *Page) MarkDirty(lsn wal.LSN) {
	p.index.Store(nil)
	p.sh.lock()
	defer p.sh.mu.Unlock()
	p.setDirty(true)
	if lsn > p.lsn {
		p.lsn = lsn
	}
}

// setDirty flips the dirty bit and, at the clean→dirty and dirty→clean
// transitions of a resident page, moves the pool's dirty-page counter
// (DirtyCount, asked every few milliseconds) so that nobody walks a page
// table to learn it. Shard mutex held.
func (p *Page) setDirty(d bool) {
	if p.dirty == d {
		return
	}
	p.dirty = d
	switch {
	case p.dropped:
	case d:
		p.sh.pool.dirtyPages.Add(1)
	default:
		p.sh.pool.dirtyPages.Add(-1)
	}
}

// dropLocked takes an unpinned page out of the shard: page table, LRU
// list and, if it was dirty, the dirty count.
func (s *shard) dropLocked(pg *Page) {
	s.listFor(pg).remove(pg)
	delete(s.pages, pg.bn)
	pg.setDirty(false)
	pg.dropped = true
}

// Release unpins the page.
func (p *Page) Release() {
	p.sh.lock()
	defer p.sh.mu.Unlock()
	if p.pins <= 0 {
		panic("cache: release of unpinned page")
	}
	p.pins--
	p.sh.cond.Broadcast()
}

// lruList is one intrusive LRU list: head = most recent, tail = least.
type lruList struct {
	head, tail *Page
}

func (l *lruList) remove(pg *Page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else if l.head == pg {
		l.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else if l.tail == pg {
		l.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

func (l *lruList) pushFront(pg *Page) {
	pg.prev, pg.next = nil, l.head
	if l.head != nil {
		l.head.prev = pg
	}
	l.head = pg
	if l.tail == nil {
		l.tail = pg
	}
}

// shard is one slice of the page table: its own mutex, its own LRU
// segments, its own in-flight read table. Blocks map to shards by
// bn & mask, so a contiguous scan string spreads across every shard and
// no single mutex serializes the volume.
type shard struct {
	pool     *Pool
	capacity int

	mu        sync.Mutex
	cond      *sync.Cond
	acquires  atomic.Uint64 // every lock acquisition (the arrival rate)
	waits     atomic.Uint64 // lock acquisitions that found the mutex held
	waitNanos atomic.Uint64 // total time blocked in those acquisitions
	pages     map[disk.BlockNum]*Page
	inflight  map[disk.BlockNum]chan struct{}
	prot      lruList // protected: keyed hot set
	prob      lruList // probation: sequential recycling ring
}

// lock acquires the shard mutex, counting contended acquisitions and
// the time they spend blocked. The clock reads cost nothing on the
// fast path: they happen only after TryLock has already failed.
func (s *shard) lock() {
	s.acquires.Add(1)
	if s.mu.TryLock() {
		return
	}
	s.waits.Add(1)
	t0 := time.Now()
	s.mu.Lock()
	s.waitNanos.Add(uint64(time.Since(t0)))
}

// A Pool is the buffer pool for one volume.
type Pool struct {
	vol      disk.BlockDev
	gate     WALGate
	capacity int
	plainLRU bool

	shards    []*shard
	shardMask disk.BlockNum

	stats      counters
	dirtyPages atomic.Int64 // resident pages with dirty set (Page.setDirty)
	prefetchWG sync.WaitGroup
	// prefetchActive/Peak track concurrent pre-fetch workers so tests
	// can assert the fan-out bound.
	prefetchActive atomic.Int64
	prefetchPeak   atomic.Int64

	writerMu sync.Mutex
	writer   *writerState

	// passMu runs one write-behind pass at a time and guards the scratch
	// every pass reuses.
	passMu  sync.Mutex
	claimed []claim
	bufs    [][]byte
	// The durable LSN and eviction count the last pass started from:
	// until one of them moves, another pass would find nothing new.
	passDurable, passEvicted atomic.Uint64
}

// Options tunes pool construction beyond the required parameters.
type Options struct {
	// Shards is the number of page-table shards; 0 picks a default from
	// the capacity (1 below 256 slots, then capacity/128 up to 16).
	// Rounded down to a power of two and clamped so each shard holds at
	// least 2 pages.
	Shards int
	// PlainLRU disables scan-resistant replacement: every fill and
	// touch goes to the protected list's front, reproducing the single
	// global LRU. Used by the E15 ablation.
	PlainLRU bool
}

// NewPool creates a buffer pool of the given page capacity over vol.
// gate may be nil for non-transactional use.
func NewPool(vol disk.BlockDev, capacity int, gate WALGate) *Pool {
	return NewPoolOpts(vol, capacity, gate, Options{})
}

// NewPoolOpts creates a buffer pool with explicit Options.
func NewPoolOpts(vol disk.BlockDev, capacity int, gate WALGate, opts Options) *Pool {
	if capacity < 2 {
		capacity = 2
	}
	if gate == nil {
		gate = nopGate{}
	}
	ns := opts.Shards
	if ns <= 0 {
		ns = defaultShards(capacity)
	}
	for ns > capacity/2 {
		ns /= 2
	}
	if ns < 1 {
		ns = 1
	}
	// Round down to a power of two so bn & mask indexes the table.
	pow := 1
	for pow*2 <= ns {
		pow *= 2
	}
	ns = pow

	p := &Pool{
		vol: vol, gate: gate, capacity: capacity, plainLRU: opts.PlainLRU,
		shards:    make([]*shard, ns),
		shardMask: disk.BlockNum(ns - 1),
	}
	base, rem := capacity/ns, capacity%ns
	for i := range p.shards {
		cap := base
		if i < rem {
			cap++
		}
		s := &shard{
			pool: p, capacity: cap,
			pages:    make(map[disk.BlockNum]*Page),
			inflight: make(map[disk.BlockNum]chan struct{}),
		}
		s.cond = sync.NewCond(&s.mu)
		p.shards[i] = s
	}
	return p
}

// defaultShards picks a shard count for a capacity: small pools (unit
// tests, tiny configs) keep exact global LRU order with one shard;
// production-sized pools get capacity/128 shards up to 16.
func defaultShards(capacity int) int {
	if capacity < 256 {
		return 1
	}
	n := capacity / 128
	if n > 16 {
		n = 16
	}
	return n
}

func (p *Pool) shardFor(bn disk.BlockNum) *shard {
	return p.shards[bn&p.shardMask]
}

// touchLocked records a hit on pg under its shard lock. A keyed touch
// of a probation page promotes it to the protected segment — the block
// demonstrated reuse. A sequential touch never promotes: the scan will
// not come back.
func (s *shard) touchLocked(pg *Page, class AccessClass) {
	if s.pool.plainLRU {
		s.prot.remove(pg)
		s.prot.pushFront(pg)
		return
	}
	switch {
	case pg.seg == segProt:
		s.prot.remove(pg)
		s.prot.pushFront(pg)
	case class == Keyed:
		s.prob.remove(pg)
		pg.seg = segProt
		s.prot.pushFront(pg)
		s.pool.stats.promotions.Add(1)
	default:
		s.prob.remove(pg)
		s.prob.pushFront(pg)
	}
}

func (s *shard) listFor(pg *Page) *lruList {
	if pg.seg == segProb {
		return &s.prob
	}
	return &s.prot
}

// Get pins the page for block bn with Keyed intent, reading it from
// disk on a miss.
func (p *Pool) Get(bn disk.BlockNum) (*Page, error) {
	return p.GetClass(bn, Keyed)
}

// GetClass pins the page for block bn, reading it from disk on a miss.
// The miss I/O runs with the shard mutex dropped and is de-duplicated
// per slot through the in-flight table, so a miss on one block stalls
// only other readers of that same block — hits and misses elsewhere
// proceed concurrently.
func (p *Pool) GetClass(bn disk.BlockNum, class AccessClass) (*Page, error) {
	s := p.shardFor(bn)
	s.lock()
	for {
		if pg, ok := s.pages[bn]; ok {
			pg.pins++
			s.touchLocked(pg, class)
			if class == Sequential {
				p.stats.seqHits.Add(1)
			} else {
				p.stats.keyedHits.Add(1)
			}
			s.mu.Unlock()
			return pg, nil
		}
		ch, loading := s.inflight[bn]
		if !loading {
			break
		}
		s.mu.Unlock()
		<-ch
		s.lock()
	}
	// Demand read (miss).
	ch := make(chan struct{})
	s.inflight[bn] = ch
	if class == Sequential {
		p.stats.seqMisses.Add(1)
	} else {
		p.stats.keyedMisses.Add(1)
	}
	s.mu.Unlock()

	buf := disk.NewBlock()
	err := p.vol.Read(bn, buf)

	s.lock()
	var pg *Page
	if err == nil {
		pg, err = s.installLocked(bn, buf, true, class)
	}
	if pg == nil || &pg.data[0] != &buf[0] {
		disk.FreeBlock(buf) // an error, or a page already there
	}
	// Retired only now, with the page installed: see installLocked.
	delete(s.inflight, bn)
	close(ch)
	s.mu.Unlock()
	return pg, err
}

// installLocked inserts a freshly read block, evicting if needed. When
// pin is true the returned page is pinned. Keyed fills enter the
// protected segment; Sequential fills enter probation, where they are
// first in line for eviction unless a keyed touch rescues them.
//
// One loader per block: the caller holds bn's in-flight entry until this
// returns, because makeRoomLocked drops the shard mutex. Were the entry
// retired first, a second miss on bn could read, install, modify and
// release the block in that window, and installing here would put an
// image that predates the update over it. For the same reason the page
// table is consulted after room is made, not before.
func (s *shard) installLocked(bn disk.BlockNum, data []byte, pin bool, class AccessClass) (*Page, error) {
	if err := s.makeRoomLocked(1); err != nil {
		return nil, err
	}
	if pg, ok := s.pages[bn]; ok {
		if pin {
			pg.pins++
			s.touchLocked(pg, class)
		}
		return pg, nil
	}
	pg := &Page{sh: s, bn: bn, data: data}
	if pin {
		pg.pins = 1
	}
	s.pages[bn] = pg
	if !s.pool.plainLRU && class == Sequential {
		pg.seg = segProb
		s.prob.pushFront(pg)
	} else {
		pg.seg = segProt
		s.prot.pushFront(pg)
	}
	return pg, nil
}

// makeRoomLocked evicts unpinned pages until n slots are free in this
// shard, waiting if everything is pinned or mid-write. Victim order:
// clean probation, clean protected, then a dirty victim (probation
// first) cleaned under the WAL gate with the shard mutex dropped for
// the I/O, after which the search restarts, since the world may have
// moved while the write was in flight.
func (s *shard) makeRoomLocked(n int) error {
	for len(s.pages)+n > s.capacity {
		var clean, dirtyVictim *Page
		for _, l := range [2]*lruList{&s.prob, &s.prot} {
			for v := l.tail; v != nil; v = v.prev {
				if v.pins > 0 || v.writing {
					continue
				}
				if !v.dirty {
					clean = v
					break
				}
				if dirtyVictim == nil {
					dirtyVictim = v
				}
			}
			if clean != nil {
				break
			}
		}
		if clean != nil {
			s.dropLocked(clean)
			disk.FreeBlock(clean.data)
			clean.data = nil
			s.pool.stats.evictions.Add(1)
			continue
		}
		if dirtyVictim == nil {
			// Everything pinned or being written: wait for a release or
			// a write completion.
			s.cond.Wait()
			continue
		}
		if err := s.cleanPageLocked(dirtyVictim); err != nil {
			return err
		}
		s.pool.stats.dirtyEvictions.Add(1)
		// Re-scan: the victim may have been re-pinned or re-dirtied
		// while the mutex was dropped for the write.
	}
	return nil
}

// cleanPageLocked writes one dirty page to disk under the WAL gate.
// Called and returning with the shard mutex held, but the trail flush
// and the disk write run with it DROPPED against a snapshot of the
// buffer — a miss or hit on any other page proceeds meanwhile. The page
// is marked clean up front; a concurrent MarkDirty simply re-dirties it
// with a newer LSN and it gets written again later.
func (s *shard) cleanPageLocked(pg *Page) error {
	for pg.writing {
		s.cond.Wait()
	}
	if !pg.dirty {
		return nil // another cleaner got here first
	}
	pg.writing = true
	pg.setDirty(false)
	lsn := pg.lsn
	buf := disk.NewBlock()
	copy(buf, pg.data)
	stall := lsn > s.pool.gate.FlushedLSN()
	if stall {
		s.pool.stats.walStalls.Add(1)
	}
	s.mu.Unlock()
	fault.Inject(fault.CacheCleanBeforeWrite)
	if stall {
		s.pool.gate.FlushTo(lsn)
	}
	err := s.pool.vol.Write(pg.bn, buf)
	disk.FreeBlock(buf)
	s.lock()
	pg.writing = false
	s.cond.Broadcast()
	if err != nil {
		pg.setDirty(true)
		return err
	}
	return nil
}

// Prefetch asynchronously loads the given blocks, grouping physically
// contiguous ascending runs into bulk reads of up to disk.MaxBulkBlocks
// and servicing them with at most PrefetchParallel worker goroutines —
// a POOL-WIDE budget, not per call. Prefetch is advisory: when every
// worker slot is already busy, the request is dropped rather than
// queued, so a scan-heavy workload cannot pile up an unbounded
// goroutine backlog (demand Gets still fetch every block actually
// touched). This is the paper's asynchronous pre-fetch: the caller
// continues CPU-bound processing while the reads proceed. It reports
// whether it took the request: false when it dropped it.
func (p *Pool) Prefetch(bns []disk.BlockNum, class AccessClass) bool {
	want := len(bns)
	if want > PrefetchParallel {
		want = PrefetchParallel
	}
	nw := p.reservePrefetch(want)
	if nw == 0 {
		return want == 0
	}
	// Reserve before planRuns: planning registers in-flight entries
	// that MUST be consumed by a worker, or demand Gets would wait on
	// them forever.
	runs := p.planRuns(bns)
	if len(runs) < nw {
		p.prefetchActive.Add(int64(len(runs) - nw))
		nw = len(runs)
	}
	if nw == 0 {
		return true
	}
	work := make(chan run, len(runs))
	for _, r := range runs {
		work <- r
	}
	close(work)
	for i := 0; i < nw; i++ {
		p.prefetchWG.Add(1)
		go func() {
			defer p.prefetchWG.Done()
			defer p.prefetchActive.Add(-1)
			for r := range work {
				p.loadRun(r, class)
			}
		}()
	}
	return true
}

// reservePrefetch atomically claims up to want worker slots from the
// global budget of PrefetchParallel, returning how many it got (0 =
// saturated) and raising the fan-out high-water mark.
func (p *Pool) reservePrefetch(want int) int {
	for {
		cur := p.prefetchActive.Load()
		free := int64(PrefetchParallel) - cur
		if free <= 0 {
			return 0
		}
		n := int64(want)
		if n > free {
			n = free
		}
		if !p.prefetchActive.CompareAndSwap(cur, cur+n) {
			continue
		}
		for {
			old := p.prefetchPeak.Load()
			if cur+n <= old || p.prefetchPeak.CompareAndSwap(old, cur+n) {
				return int(n)
			}
		}
	}
}

type run struct {
	start disk.BlockNum
	n     int
}

// planRuns filters out already-cached / in-flight blocks and groups the
// remainder into contiguous runs capped at the bulk I/O limit. It also
// registers the chosen blocks as in-flight in their shards so demand
// Gets wait rather than double-read.
func (p *Pool) planRuns(bns []disk.BlockNum) []run {
	sorted := bns // a B-tree's leaf run is usually in block order already
	if !slices.IsSorted(sorted) {
		sorted = slices.Clone(bns)
		slices.Sort(sorted)
	}

	var need []disk.BlockNum
	for _, bn := range sorted {
		s := p.shardFor(bn)
		s.lock()
		_, cached := s.pages[bn]
		_, loading := s.inflight[bn]
		if !cached && !loading {
			s.inflight[bn] = make(chan struct{})
			need = append(need, bn)
		}
		s.mu.Unlock()
	}
	var runs []run
	for i := 0; i < len(need); {
		j := i + 1
		for j < len(need) && need[j] == need[j-1]+1 && j-i < disk.MaxBulkBlocks {
			j++
		}
		runs = append(runs, run{start: need[i], n: j - i})
		i = j
	}
	return runs
}

// loadRun performs the bulk read for one planned run and installs
// pages. A run that read successfully counts as a pre-fetch op even if
// some installs fail (pool saturated with pinned pages): the I/O
// happened and most of its blocks landed.
func (p *Pool) loadRun(r run, class AccessClass) {
	blocks, err := p.vol.ReadBulk(r.start, r.n)
	readOK := err == nil

	for i := 0; i < r.n; i++ {
		bn := r.start + disk.BlockNum(i)
		s := p.shardFor(bn)
		s.lock()
		if err == nil {
			p.stats.prefetchedBlocks.Add(1)
			if _, ierr := s.installLocked(bn, blocks[i], false, class); ierr != nil {
				// Shard saturated with pinned pages: drop the rest.
				err = ierr
			}
		}
		if ch, ok := s.inflight[bn]; ok {
			delete(s.inflight, bn)
			close(ch)
		}
		s.mu.Unlock()
	}
	if readOK {
		p.stats.prefetchOps.Add(1)
	}
}

// WaitPrefetch blocks until outstanding pre-fetch I/O completes.
func (p *Pool) WaitPrefetch() { p.prefetchWG.Wait() }

// cleanShare is the share of every shard that a windowed write-behind
// pass keeps clean or free at the eviction end: a quarter of the slots.
const cleanShare = 4

// A claim is a page a write-behind pass took for writing and the pooled
// snapshot of its bytes that the pass writes.
type claim struct {
	pg  *Page
	buf []byte
}

// WriteBehind writes out strings of contiguous dirty blocks that have
// "aged" — their audit is already durable — using the minimal number of
// bulk I/Os, and marks them clean. It returns the number of blocks
// written. It never forces an audit flush: unaged pages simply wait.
// Every aged page is written, wherever it stands in the LRU order:
// DrainWriter runs it before stats reads and at close. The background
// writer runs the windowed pass instead (see StartWriter).
func (p *Pool) WriteBehind() (int, error) {
	return p.writePass((*shard).claimAgedLocked)
}

// cleanEvictionEnd is the windowed pass the background writer and a
// synchronous NudgeWriter run: it writes only the aged dirty pages at each
// shard's eviction end (claimWindowLocked), so a page still in use stays
// dirty and is written once, when it is about to leave.
func (p *Pool) cleanEvictionEnd() (int, error) {
	return p.writePass((*shard).claimWindowLocked)
}

// writePass is one write-behind pass: claim pages shard by shard with
// claimFn, then write them in ascending block order as bulk strings with
// every shard mutex dropped. It allocates nothing once its scratch has
// grown: the claims and the write's buffer list are the pool's, reused
// pass after pass under passMu.
func (p *Pool) writePass(claimFn func(*shard, wal.LSN, []claim) []claim) (int, error) {
	p.passMu.Lock()
	defer p.passMu.Unlock()
	durable := p.gate.FlushedLSN()
	p.passDurable.Store(uint64(durable))
	p.passEvicted.Store(p.stats.evictions.Load())
	claimed := p.claimed[:0]
	for _, s := range p.shards {
		s.lock()
		claimed = claimFn(s, durable, claimed)
		s.mu.Unlock()
	}
	p.claimed = claimed
	if len(claimed) == 0 {
		return 0, nil
	}
	p.stats.writerPasses.Add(1)
	slices.SortFunc(claimed, func(a, b claim) int { return cmp.Compare(a.pg.bn, b.pg.bn) })
	fault.Inject(fault.CacheWriteBehind)

	// Strings go out in order and the first failure ends the pass, so the
	// pages written are exactly claimed[:written].
	written, ops := 0, 0
	var werr error
	for i := 0; i < len(claimed) && werr == nil; {
		j := i + 1
		for j < len(claimed) && claimed[j].pg.bn == claimed[j-1].pg.bn+1 && j-i < disk.MaxBulkBlocks {
			j++
		}
		bufs := p.bufs[:0]
		for _, c := range claimed[i:j] {
			bufs = append(bufs, c.buf)
		}
		p.bufs = bufs
		if werr = p.vol.WriteBulk(claimed[i].pg.bn, bufs); werr == nil {
			written += j - i
			ops++
		}
		i = j
	}
	clear(p.bufs[:cap(p.bufs)])

	for i, c := range claimed {
		disk.FreeBlock(c.buf)
		s := c.pg.sh
		s.lock()
		c.pg.writing = false
		if i >= written {
			c.pg.setDirty(true) // failed or skipped: still needs writing
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	clear(claimed) // the scratch keeps no page or buffer alive
	p.stats.writeBehindOps.Add(uint64(ops))
	p.stats.writeBehindBlocks.Add(uint64(written))
	return written, werr
}

// claimLocked claims pg for a write-behind pass if it is dirty, aged
// (its audit durable by durable), unpinned and not already being written:
// it is marked writing and clean, and its bytes are snapshotted into a
// pooled block under the shard mutex so the write can run with every
// mutex dropped. A page re-dirtied during the write keeps the dirty bit
// MarkDirty sets and ages again later.
func (s *shard) claimLocked(pg *Page, durable wal.LSN, claimed []claim) []claim {
	if !pg.dirty || pg.writing || pg.pins > 0 || pg.lsn > durable {
		return claimed
	}
	pg.writing = true
	pg.setDirty(false)
	buf := disk.NewBlock()
	copy(buf, pg.data)
	return append(claimed, claim{pg, buf})
}

// claimAgedLocked claims every aged dirty page of the shard.
func (s *shard) claimAgedLocked(durable wal.LSN, claimed []claim) []claim {
	for _, pg := range s.pages {
		claimed = s.claimLocked(pg, durable, claimed)
	}
	return claimed
}

// claimWindowLocked claims the aged dirty pages in the shard's window:
// the 1/cleanShare of its slots nearest eviction, walked in
// makeRoomLocked's victim order — the probation tail, then the protected
// tail — with free slots counted first, so a shard with that many free
// slots claims nothing. A page is written when it reaches the window, not
// every time a commit ages it: a hot page stays dirty at the protected
// head until it cools, and a sequential string reaches the window whole
// and still goes out as bulk writes.
func (s *shard) claimWindowLocked(durable wal.LSN, claimed []claim) []claim {
	n := (s.capacity+cleanShare-1)/cleanShare - (s.capacity - len(s.pages))
	for _, l := range [2]*lruList{&s.prob, &s.prot} {
		for pg := l.tail; pg != nil && n > 0; pg = pg.prev {
			claimed = s.claimLocked(pg, durable, claimed)
			n--
		}
	}
	return claimed
}

// FlushAll forces every dirty page to disk (WAL-gated). Used at clean
// shutdown and by checkpoints, on a quiesced pool; each shard loops
// until none of its pages is dirty or mid-write, since each clean drops
// the shard mutex for its I/O.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		if err := s.flushAll(); err != nil {
			return err
		}
	}
	// On a file-backed volume the cleaned pages may only be queued in the
	// I/O scheduler; Sync is the durability barrier (free on the
	// simulated volume).
	return p.vol.Sync()
}

func (s *shard) flushAll() error {
	s.lock()
	defer s.mu.Unlock()
	for {
		var dirty []*Page
		busy := false
		for _, pg := range s.pages {
			if pg.dirty {
				dirty = append(dirty, pg)
			} else if pg.writing {
				busy = true
			}
		}
		if len(dirty) == 0 {
			if !busy {
				return nil
			}
			s.cond.Wait() // let in-flight writes land
			continue
		}
		slices.SortFunc(dirty, func(a, b *Page) int { return cmp.Compare(a.bn, b.bn) })
		for _, pg := range dirty {
			if err := s.cleanPageLocked(pg); err != nil {
				return err
			}
		}
	}
}

// Crash drops the entire pool without writing anything: the processor
// failed and its cache is gone. Dirty updates that never reached disk
// must be reconstructed from the audit trail.
func (p *Pool) Crash() {
	for _, s := range p.shards {
		s.lock()
		for _, pg := range s.pages {
			pg.setDirty(false)
			pg.dropped = true
		}
		s.pages = make(map[disk.BlockNum]*Page)
		s.prot = lruList{}
		s.prob = lruList{}
		s.mu.Unlock()
	}
}

// Discard drops the page for bn (dirty or not) without writing it. Used
// when the block itself is being freed — e.g. a collapsed B-tree page —
// so no stale buffer survives the block. An in-flight write-behind of
// the page is waited out first: its write landing after the discard
// would resurrect dead bytes on disk.
func (p *Pool) Discard(bn disk.BlockNum) {
	s := p.shardFor(bn)
	s.lock()
	defer s.mu.Unlock()
	for {
		pg, ok := s.pages[bn]
		if !ok {
			return
		}
		if pg.pins > 0 {
			panic("cache: discard of pinned page")
		}
		if pg.writing {
			s.cond.Wait()
			continue
		}
		s.dropLocked(pg)
		return
	}
}

// DirtyCount returns the number of resident dirty pages: a counter kept
// at every transition (setDirty), not a walk.
func (p *Pool) DirtyCount() int { return int(p.dirtyPages.Load()) }

// Len returns the number of cached pages.
func (p *Pool) Len() int {
	n := 0
	for _, s := range p.shards {
		s.lock()
		n += len(s.pages)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		KeyedHits:         p.stats.keyedHits.Load(),
		KeyedMisses:       p.stats.keyedMisses.Load(),
		SeqHits:           p.stats.seqHits.Load(),
		SeqMisses:         p.stats.seqMisses.Load(),
		Evictions:         p.stats.evictions.Load(),
		DirtyEvictions:    p.stats.dirtyEvictions.Load(),
		Promotions:        p.stats.promotions.Load(),
		PrefetchOps:       p.stats.prefetchOps.Load(),
		PrefetchedBlocks:  p.stats.prefetchedBlocks.Load(),
		PrefetchPeak:      uint64(p.prefetchPeak.Load()),
		WriteBehindOps:    p.stats.writeBehindOps.Load(),
		WriteBehindBlocks: p.stats.writeBehindBlocks.Load(),
		WriterPasses:      p.stats.writerPasses.Load(),
		WALStalls:         p.stats.walStalls.Load(),
		Shards:            len(p.shards),
	}
	s.Hits = s.KeyedHits + s.SeqHits
	s.Misses = s.KeyedMisses + s.SeqMisses
	for _, sh := range p.shards {
		s.ShardAcquires += sh.acquires.Load()
		s.ShardWaits += sh.waits.Load()
		s.ShardWaitNanos += sh.waitNanos.Load()
	}
	return s
}

// HitsMisses returns Stats' Hits and Misses without the rest of the
// snapshot: what a Disk Process samples around every request it serves.
func (p *Pool) HitsMisses() (hits, misses uint64) {
	return p.stats.keyedHits.Load() + p.stats.seqHits.Load(), p.stats.keyedMisses.Load() + p.stats.seqMisses.Load()
}

// ShardAcquireList returns the per-shard total acquisition counts: the
// arrival distribution the bn&mask hash actually produced, from which
// expected contention at a given shard count can be modeled.
func (p *Pool) ShardAcquireList() []uint64 {
	out := make([]uint64, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.acquires.Load()
	}
	return out
}

// ResetStats zeroes the counters. Each is cleared atomically: the
// background writer (and any in-flight request) may be bumping them
// concurrently, so a plain struct overwrite would race.
func (p *Pool) ResetStats() {
	c := &p.stats
	c.keyedHits.Store(0)
	c.keyedMisses.Store(0)
	c.seqHits.Store(0)
	c.seqMisses.Store(0)
	c.evictions.Store(0)
	c.dirtyEvictions.Store(0)
	c.promotions.Store(0)
	c.prefetchOps.Store(0)
	c.prefetchedBlocks.Store(0)
	c.writeBehindOps.Store(0)
	c.writeBehindBlocks.Store(0)
	c.writerPasses.Store(0)
	c.walStalls.Store(0)
	p.prefetchPeak.Store(p.prefetchActive.Load())
	for _, sh := range p.shards {
		sh.acquires.Store(0)
		sh.waits.Store(0)
		sh.waitNanos.Store(0)
	}
}

// String describes the pool.
func (p *Pool) String() string {
	return fmt.Sprintf("cache(%s: %d/%d pages, %d shards)",
		p.vol.Name(), p.Len(), p.capacity, len(p.shards))
}

// --- background writer ---

// writerState is one running background-writer goroutine.
type writerState struct {
	stop  chan struct{}
	done  chan struct{}
	nudge chan struct{}
}

// DefaultWriterInterval is the background writer's fallback tick when
// no commit nudges arrive.
const DefaultWriterInterval = 5 * time.Millisecond

// StartWriter launches the pool's background writer: an autonomous
// goroutine that keeps each shard's eviction end clean, so that making
// room never waits on a write. It runs a windowed pass (claimWindowLocked)
// when the durable LSN has advanced (a commit aged pages) or the pool has
// evicted since its last pass (the window moved). A nudge wakes it only
// when the durable LSN moved; the tick, every interval, also catches
// evictions. interval <= 0 uses DefaultWriterInterval. Idempotent while a
// writer is running.
func (p *Pool) StartWriter(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultWriterInterval
	}
	p.writerMu.Lock()
	defer p.writerMu.Unlock()
	if p.writer != nil {
		return
	}
	w := &writerState{
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		nudge: make(chan struct{}, 1),
	}
	p.writer = w
	go p.writerLoop(w, interval)
}

// StopWriter stops the background writer and waits for its current
// pass, if any, to finish. No-op when none is running.
func (p *Pool) StopWriter() {
	p.writerMu.Lock()
	w := p.writer
	p.writer = nil
	p.writerMu.Unlock()
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// NudgeWriter tells the background writer that the durable LSN may have
// advanced (e.g. a commit just landed). Non-blocking: a nudge that finds
// the durable LSN where the writer last saw it returns at once, and
// nudges coalesce while a pass is running. With no writer running it
// degrades to the same windowed pass run synchronously, preserving
// caller-timed behavior.
func (p *Pool) NudgeWriter() {
	p.writerMu.Lock()
	w := p.writer
	p.writerMu.Unlock()
	if w == nil {
		_, _ = p.cleanEvictionEnd()
		return
	}
	if uint64(p.gate.FlushedLSN()) == p.passDurable.Load() {
		return
	}
	select {
	case w.nudge <- struct{}{}:
	default:
	}
}

// DrainWriter synchronously writes out every aged dirty page and waits
// for in-flight write-behind I/O to land. Unlike FlushAll it never
// forces the WAL gate and keeps bulk coalescing: unaged pages stay
// dirty. Used before reading I/O stats and at DP close.
func (p *Pool) DrainWriter() {
	for {
		n, err := p.WriteBehind()
		if n == 0 || err != nil {
			break
		}
	}
	for _, s := range p.shards {
		s.lock()
		for {
			busy := false
			for _, pg := range s.pages {
				if pg.writing {
					busy = true
					break
				}
			}
			if !busy {
				break
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
	}
}

// writerLoop is the background writer body: wake on a nudge or the
// fallback tick, and skip the pass unless a commit aged pages (the
// durable LSN advanced) or an eviction moved the window since the last
// pass.
func (p *Pool) writerLoop(w *writerState, interval time.Duration) {
	defer close(w.done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.nudge:
		case <-tick.C:
		}
		if p.DirtyCount() == 0 {
			continue
		}
		if uint64(p.gate.FlushedLSN()) == p.passDurable.Load() && p.stats.evictions.Load() == p.passEvicted.Load() {
			continue
		}
		_, _ = p.cleanEvictionEnd()
	}
}
