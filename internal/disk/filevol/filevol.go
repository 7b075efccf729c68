// Package filevol is the file-backed implementation of disk.BlockDev:
// one ordinary file per volume, addressed in 4 KB blocks at 4 KB-aligned
// offsets via pread/pwrite (ReadAt/WriteAt), with a persistent
// allocation header and — in batched-async mode — an asynchronous I/O
// scheduler (see sched.go) that coalesces adjacent-block writes into
// bulk transfers and batches fsyncs so N logical durability waits cost
// one physical fsync.
//
// # On-disk layout
//
// File offset 0 holds one header block (magic, format version, the
// allocation high-water mark, a clean-shutdown flag, and the free list).
// Block bn lives at offset BlockSize + (bn-1)*BlockSize; block numbers
// start at 1, exactly like the simulated volume. A block that was
// allocated but never written reads as zeros (the file is sparse there),
// which is also the simulated volume's semantics for fresh blocks.
//
// # Crash semantics
//
// Writes become durable only at Sync (batched-async mode) or at the
// write call itself (sync-per-write mode, the baseline batching is held
// against). The header is rewritten — without fsync — whenever the high-water mark crosses an
// allocChunk boundary, piggybacked on every batched fsync, and fsynced
// with the clean flag at Close. After a crash (no clean flag) Open
// recovers the allocation state conservatively: the high-water mark is
// the maximum of the last header's mark and what the file size implies,
// every block below it counts as allocated, and the free list is
// discarded (freed-but-unreused blocks leak; a leak is recoverable, a
// double allocation is not). The audit-trail scan's termination is safe
// under an over-estimated mark: trailing never-written blocks read as
// zeros and the record decoder already stops at a zero tail.
package filevol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fault"
)

const (
	magic      = "NSQLVOL1"
	version    = 1
	headerSize = disk.BlockSize
	// header field offsets
	offMagic   = 0
	offVersion = 8
	offNext    = 12
	offClean   = 16
	offFreeN   = 20
	offFree    = 24
	// maxFreeList is how many free-list entries fit in the header; the
	// oldest entries beyond it are dropped at Close (they leak, which is
	// safe — see the package comment).
	maxFreeList = (headerSize - offFree) / 4
	// allocChunk is the granularity of the unfsynced header refresh: the
	// recorded high-water mark is rounded up to the next chunk boundary,
	// so a crash that loses trailing data writes still finds every
	// block the survivors reference within the allocated region.
	allocChunk = 256
)

// Mode selects the write path.
type Mode int

const (
	// BatchedAsync queues writes into the scheduler: adjacent blocks
	// coalesce into bulk pwrites served by a worker pool, and Sync
	// batches concurrent durability waits onto one fsync. The default.
	BatchedAsync Mode = iota
	// SyncPerWrite makes every Write/WriteBulk a synchronous pwrite
	// followed by its own fsync — the paper-naive baseline
	// TestE18FileVolumes holds batching against.
	SyncPerWrite
)

func (m Mode) String() string {
	if m == SyncPerWrite {
		return "sync-per-write"
	}
	return "batched-async"
}

// Config tunes a file-backed volume.
type Config struct {
	Path string // backing file (created if absent). Required.
	Name string // volume name, e.g. "$DATA1"; defaults to Path
	Mode Mode
	// MaxQueue bounds the submission queue in blocks (default 256);
	// submitters block when it is full.
	MaxQueue int
}

// A Volume is one file-backed disk volume.
type Volume struct {
	name string
	path string
	mode Mode
	f    *os.File

	mu     sync.Mutex
	next   disk.BlockNum
	free   []disk.BlockNum // LIFO reuse stack
	freed  map[disk.BlockNum]bool
	stats  disk.Stats
	closed bool

	// Header-block writes (allocation growth, the scheduler's piggybacked
	// refresh, Close) take turns, each built from the allocation state as
	// it is when its turn comes, so a stale mark never lands over a newer
	// one. hdrBusy is the turn — no mutex is held across the pwrite;
	// hdrMark is the in-use mark this handle last wrote, 0 if none.
	hdrBusy bool
	hdrTurn *sync.Cond // on mu
	hdrMark disk.BlockNum

	sched *sched // non-nil in BatchedAsync mode
}

var _ disk.BlockDev = (*Volume)(nil)

// Open opens (or creates) a file-backed volume.
func Open(cfg Config) (*Volume, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("filevol: Config.Path is required")
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Path
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filevol %s: %w", cfg.Name, err)
	}
	v := &Volume{name: cfg.Name, path: cfg.Path, mode: cfg.Mode, f: f,
		next: 1, freed: make(map[disk.BlockNum]bool)}
	v.hdrTurn = sync.NewCond(&v.mu)
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("filevol %s: %w", cfg.Name, err)
	}
	if st.Size() >= headerSize {
		if err := v.readHeader(st.Size()); err != nil {
			f.Close()
			return nil, err
		}
	}
	// Mark the file in use (clean flag off) so a crash from here on is
	// detected at the next Open.
	if err := v.writeHeader(false); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("filevol %s: %w", cfg.Name, err)
	}
	if cfg.Mode == BatchedAsync {
		v.sched = newSched(v, cfg.MaxQueue)
	}
	return v, nil
}

// readHeader loads allocation state, reconciling with the file size
// after an unclean shutdown.
func (v *Volume) readHeader(size int64) error {
	buf := make([]byte, headerSize)
	if _, err := v.f.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("filevol %s: header: %w", v.name, err)
	}
	if string(buf[offMagic:offMagic+8]) != magic {
		return fmt.Errorf("filevol %s: %s is not a volume file (bad magic)", v.name, v.path)
	}
	if got := binary.LittleEndian.Uint32(buf[offVersion:]); got != version {
		return fmt.Errorf("filevol %s: format version %d, want %d", v.name, got, version)
	}
	v.next = disk.BlockNum(binary.LittleEndian.Uint32(buf[offNext:]))
	if v.next < 1 {
		v.next = 1
	}
	// The file size implies a lower bound on the high-water mark: every
	// written block extended the file to cover its offset.
	if size > headerSize {
		fromSize := disk.BlockNum((size-headerSize+disk.BlockSize-1)/disk.BlockSize) + 1
		if fromSize > v.next {
			v.next = fromSize
		}
	}
	clean := binary.LittleEndian.Uint32(buf[offClean:]) == 1
	if clean {
		n := int(binary.LittleEndian.Uint32(buf[offFreeN:]))
		if n > maxFreeList {
			n = maxFreeList
		}
		for i := 0; i < n; i++ {
			bn := disk.BlockNum(binary.LittleEndian.Uint32(buf[offFree+4*i:]))
			if bn >= 1 && bn < v.next && !v.freed[bn] {
				v.free = append(v.free, bn)
				v.freed[bn] = true
			}
		}
	}
	// Unclean: the free list is discarded — stale entries could alias
	// blocks that were reallocated after the header last reached disk.
	return nil
}

// writeHeader rewrites the header block (no fsync — callers decide).
//
// While the volume is in use (clean=false) the recorded high-water mark
// is rounded UP past the current allocChunk, so every block Allocate has
// handed out — written or not — stays inside the covered region across a
// crash: a durable B-tree page may reference a child block whose own
// write never landed, and recovery must read it as zeros, not fail it as
// unallocated. Over-estimating merely leaks a few fresh blocks (and the
// audit scan already stops at a zero tail). A clean Close records the
// exact mark: nothing can be in flight.
//
// An in-use header is nothing but its rounded mark, which moves once per
// allocChunk; every Sync asks for a refresh, and when the header it would
// write is the one this handle last wrote there is nothing to write.
func (v *Volume) writeHeader(clean bool) error {
	v.mu.Lock()
	for v.hdrBusy {
		v.hdrTurn.Wait()
	}
	next := v.next
	var free []disk.BlockNum
	if clean {
		free = append(free, v.free...)
	} else {
		// The rounded mark must fit the header's 32 bits. Wrapped, it
		// would read as the "nothing written yet" mark and never land, so
		// a volume within one allocChunk of 2^32 blocks is full, and Open
		// refuses it.
		rounded := (uint64(next)/allocChunk + 1) * allocChunk
		if rounded > math.MaxUint32 {
			v.mu.Unlock()
			return fmt.Errorf("filevol %s: volume full: high-water mark %d", v.name, next)
		}
		next = disk.BlockNum(rounded)
		if next == v.hdrMark {
			v.mu.Unlock()
			return nil
		}
	}
	v.hdrBusy = true
	v.mu.Unlock()

	buf := make([]byte, headerSize)
	copy(buf[offMagic:], magic)
	binary.LittleEndian.PutUint32(buf[offVersion:], version)
	binary.LittleEndian.PutUint32(buf[offNext:], uint32(next))
	var cl uint32
	if clean {
		cl = 1
	}
	binary.LittleEndian.PutUint32(buf[offClean:], cl)
	if len(free) > maxFreeList {
		// Keep the most recent entries (the LIFO stack's tail).
		free = free[len(free)-maxFreeList:]
	}
	binary.LittleEndian.PutUint32(buf[offFreeN:], uint32(len(free)))
	for i, bn := range free {
		binary.LittleEndian.PutUint32(buf[offFree+4*i:], uint32(bn))
	}
	_, err := v.f.WriteAt(buf, 0)

	v.mu.Lock()
	v.hdrBusy = false
	v.hdrMark = 0 // a failed write, or the clean header
	if err == nil && !clean {
		v.hdrMark = next
	}
	v.hdrTurn.Broadcast()
	v.mu.Unlock()
	if err != nil {
		return fmt.Errorf("filevol %s: header write: %w", v.name, err)
	}
	return nil
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

func blockOff(bn disk.BlockNum) int64 {
	return headerSize + int64(bn-1)*disk.BlockSize
}

// Allocate reserves one block, reusing freed blocks LIFO first.
func (v *Volume) Allocate() disk.BlockNum {
	v.mu.Lock()
	if n := len(v.free); n > 0 {
		bn := v.free[n-1]
		v.free = v.free[:n-1]
		delete(v.freed, bn)
		v.mu.Unlock()
		return bn
	}
	bn := v.next
	v.next++
	grew := uint32(v.next)%allocChunk == 0
	v.mu.Unlock()
	if grew {
		_ = v.writeHeader(false) // best-effort high-water refresh
	}
	return bn
}

// AllocateRun reserves n contiguous fresh blocks; like the simulated
// volume it never consults the free list (see Volume.AllocateRun there
// for the contract).
func (v *Volume) AllocateRun(n int) disk.BlockNum {
	v.mu.Lock()
	start := v.next
	v.next += disk.BlockNum(n)
	grew := uint32(start)/allocChunk != uint32(v.next)/allocChunk
	v.mu.Unlock()
	if grew {
		_ = v.writeHeader(false)
	}
	return start
}

// Free releases a block for reuse by Allocate.
func (v *Volume) Free(bn disk.BlockNum) {
	v.mu.Lock()
	if bn < 1 || bn >= v.next || v.freed[bn] {
		v.mu.Unlock()
		return
	}
	v.free = append(v.free, bn)
	v.freed[bn] = true
	v.mu.Unlock()
	// The block's eventual reuse must read as a fresh (zero) block — the
	// simulated volume's semantics. Zero it through the normal write path
	// so ordering against queued writes of the same block is preserved.
	// No fsync: the zeros only matter if the free list itself survives,
	// and that takes a clean Close, which fsyncs.
	if v.sched != nil {
		_ = v.sched.submit(bn, zeroBlock[:])
	} else {
		_, _ = v.f.WriteAt(zeroBlock[:], blockOff(bn))
	}
}

// zeroBlock is what a freed block is overwritten with; nothing writes it.
var zeroBlock [disk.BlockSize]byte

// allocated reports whether bn is a live block, under v.mu.
func (v *Volume) allocatedLocked(bn disk.BlockNum) bool {
	return bn >= 1 && bn < v.next && !v.freed[bn]
}

// Read performs one single-block pread into buf. Queued (not yet
// flushed) writes are visible: the scheduler's image wins over the file.
func (v *Volume) Read(bn disk.BlockNum, buf []byte) error {
	if len(buf) != disk.BlockSize {
		return fmt.Errorf("disk %s: read buffer is %d bytes, want %d", v.name, len(buf), disk.BlockSize)
	}
	if err := fault.InjectErr(fault.DiskRead); err != nil {
		return fmt.Errorf("disk %s: read of block %d: %w", v.name, bn, err)
	}
	v.mu.Lock()
	if !v.allocatedLocked(bn) {
		v.mu.Unlock()
		return fmt.Errorf("disk %s: read of %w %d", v.name, disk.ErrUnallocated, bn)
	}
	v.stats.Reads++
	v.stats.BlocksRead++
	v.mu.Unlock()
	if v.sched != nil && v.sched.lookup(bn, buf) != nil {
		return nil
	}
	return v.pread(buf, blockOff(bn))
}

// pread fills buf from the file, zero-filling past EOF (allocated but
// never-written blocks read as zeros, like a formatted drive).
func (v *Volume) pread(buf []byte, off int64) error {
	n, err := v.f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("disk %s: pread: %w", v.name, err)
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

// ReadBulk performs ONE bulk pread of n consecutive blocks.
func (v *Volume) ReadBulk(start disk.BlockNum, n int) ([][]byte, error) {
	if n < 1 || n > disk.MaxBulkBlocks {
		return nil, fmt.Errorf("disk %s: bulk read of %d blocks (max %d)", v.name, n, disk.MaxBulkBlocks)
	}
	if err := fault.InjectErr(fault.DiskRead); err != nil {
		return nil, fmt.Errorf("disk %s: bulk read at block %d: %w", v.name, start, err)
	}
	v.mu.Lock()
	for i := 0; i < n; i++ {
		if !v.allocatedLocked(start + disk.BlockNum(i)) {
			bn := start + disk.BlockNum(i)
			v.mu.Unlock()
			return nil, fmt.Errorf("disk %s: bulk read spans %w %d", v.name, disk.ErrUnallocated, bn)
		}
	}
	v.stats.Reads++
	if n > 1 {
		v.stats.BulkReads++
	}
	v.stats.BlocksRead += uint64(n)
	v.mu.Unlock()

	// Overlay images are captured BEFORE the pread: a queued image that
	// flushes between the two steps is then seen by the pread itself,
	// whereas the reverse order could return stale file content for a
	// write that was submitted before this read began.
	var overlays [][]byte
	if v.sched != nil {
		overlays = make([][]byte, n)
		for i := 0; i < n; i++ {
			overlays[i] = v.sched.lookup(start+disk.BlockNum(i), nil)
		}
	}
	raw := make([]byte, n*disk.BlockSize)
	if err := v.pread(raw, blockOff(start)); err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if overlays != nil && overlays[i] != nil {
			out[i] = overlays[i]
			continue
		}
		out[i] = raw[i*disk.BlockSize : (i+1)*disk.BlockSize : (i+1)*disk.BlockSize]
	}
	return out, nil
}

// Write performs one single-block write: a synchronous pwrite+fsync in
// SyncPerWrite mode, a queue submission in BatchedAsync mode (durable
// only after Sync).
func (v *Volume) Write(bn disk.BlockNum, data []byte) error {
	if len(data) != disk.BlockSize {
		return fmt.Errorf("disk %s: write of %d bytes, want %d", v.name, len(data), disk.BlockSize)
	}
	v.mu.Lock()
	if !v.allocatedLocked(bn) {
		v.mu.Unlock()
		return fmt.Errorf("disk %s: write to %w %d", v.name, disk.ErrUnallocated, bn)
	}
	v.mu.Unlock()
	if v.sched != nil {
		return v.sched.submit(bn, data)
	}
	if _, err := v.f.WriteAt(data, blockOff(bn)); err != nil {
		return fmt.Errorf("disk %s: pwrite: %w", v.name, err)
	}
	if err := v.f.Sync(); err != nil {
		return fmt.Errorf("disk %s: fsync: %w", v.name, err)
	}
	v.mu.Lock()
	v.stats.Writes++
	v.stats.BlocksWritten++
	v.stats.Fsyncs++
	v.mu.Unlock()
	return nil
}

// WriteBulk performs ONE bulk write of consecutive blocks. In
// BatchedAsync mode the blocks enter the queue individually and the
// scheduler re-coalesces them (possibly with neighbors from other
// calls) into bulk pwrites.
func (v *Volume) WriteBulk(start disk.BlockNum, blocks [][]byte) error {
	n := len(blocks)
	if n < 1 || n > disk.MaxBulkBlocks {
		return fmt.Errorf("disk %s: bulk write of %d blocks (max %d)", v.name, n, disk.MaxBulkBlocks)
	}
	for i, b := range blocks {
		if len(b) != disk.BlockSize {
			return fmt.Errorf("disk %s: bulk write block %d is %d bytes", v.name, i, len(b))
		}
	}
	v.mu.Lock()
	for i := range blocks {
		if !v.allocatedLocked(start + disk.BlockNum(i)) {
			bn := start + disk.BlockNum(i)
			v.mu.Unlock()
			return fmt.Errorf("disk %s: bulk write spans %w %d", v.name, disk.ErrUnallocated, bn)
		}
	}
	v.mu.Unlock()
	if v.sched != nil {
		for i, b := range blocks {
			if err := v.sched.submit(start+disk.BlockNum(i), b); err != nil {
				return err
			}
		}
		return nil
	}
	raw := make([]byte, 0, n*disk.BlockSize)
	for _, b := range blocks {
		raw = append(raw, b...)
	}
	if _, err := v.f.WriteAt(raw, blockOff(start)); err != nil {
		return fmt.Errorf("disk %s: pwrite: %w", v.name, err)
	}
	if err := v.f.Sync(); err != nil {
		return fmt.Errorf("disk %s: fsync: %w", v.name, err)
	}
	v.mu.Lock()
	v.stats.Writes++
	if n > 1 {
		v.stats.BulkWrites++
	}
	v.stats.BlocksWritten += uint64(n)
	v.stats.Fsyncs++
	v.mu.Unlock()
	return nil
}

// Sync makes every completed write durable. In BatchedAsync mode it
// drains the submission queue and rides the batched fsync (one physical
// fsync can serve many concurrent Sync callers); in SyncPerWrite mode
// data is already durable, so it just persists the allocation header.
func (v *Volume) Sync() error {
	if v.sched != nil {
		return v.sched.sync()
	}
	if err := v.writeHeader(false); err != nil {
		return err
	}
	if err := v.f.Sync(); err != nil {
		return fmt.Errorf("disk %s: fsync: %w", v.name, err)
	}
	v.mu.Lock()
	v.stats.SyncWaits++
	v.stats.Fsyncs++
	v.mu.Unlock()
	return nil
}

// Close drains the scheduler, persists the header with the clean flag,
// fsyncs, and closes the file.
func (v *Volume) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	v.mu.Unlock()
	var firstErr error
	if v.sched != nil {
		if err := v.sched.sync(); err != nil {
			firstErr = err
		}
		v.sched.close()
	}
	if err := v.writeHeader(true); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := v.f.Sync(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("disk %s: fsync: %w", v.name, err)
	}
	if err := v.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Stats returns a snapshot of the I/O counters (scheduler counters
// merged in).
func (v *Volume) Stats() disk.Stats {
	v.mu.Lock()
	s := v.stats
	v.mu.Unlock()
	if v.sched != nil {
		s.Add(v.sched.snapshot())
	}
	return s
}

// ResetStats zeroes the I/O counters.
func (v *Volume) ResetStats() {
	v.mu.Lock()
	v.stats = disk.Stats{}
	v.mu.Unlock()
	if v.sched != nil {
		v.sched.resetStats()
	}
}

// Size returns the number of allocated blocks.
func (v *Volume) Size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return int(v.next-1) - len(v.free)
}
