// Package disk simulates the physical disk volumes managed by Disk
// Processes. A volume is an array of fixed-size blocks supporting
// single-block and bulk sequential I/O with the same limits the paper
// states (4 KB blocks, 28 KB maximum bulk transfer), optional mirroring,
// a block allocator, and full I/O accounting.
//
// The accounting is the point: the paper's cache-management claims are
// claims about the *number* of physical transfers (bulk reads vs.
// single-block reads, write-behind coalescing), and the Stats counters
// reproduce those quantities deterministically on any host.
package disk

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nonstopsql/internal/fault"
)

const (
	// BlockSize is the physical block size ("presently limited to 4K
	// bytes maximum each").
	BlockSize = 4096
	// MaxBulkBytes is the bulk I/O transfer limit ("presently limited to
	// 28K bytes maximum").
	MaxBulkBytes = 28 * 1024
	// MaxBulkBlocks is the number of blocks one bulk I/O can move.
	MaxBulkBlocks = MaxBulkBytes / BlockSize
)

// BlockNum addresses a block within a volume.
type BlockNum uint32

// Stats counts physical I/O activity on a volume. Mirrored volumes count
// logical operations once and record the extra physical writes in
// MirrorWrites.
type Stats struct {
	Reads         uint64 // read operations issued (each costs one seek)
	Writes        uint64 // write operations issued
	BulkReads     uint64 // reads that moved more than one block
	BulkWrites    uint64 // writes that moved more than one block
	BlocksRead    uint64
	BlocksWritten uint64
	MirrorWrites  uint64 // extra physical writes to the mirror drive

	// Asynchronous-scheduler counters, nonzero only for file-backed
	// volumes (disk/filevol). On a simulated volume every write is
	// instantly durable, so they stay zero.
	Fsyncs    uint64 // physical fsyncs issued
	SyncWaits uint64 // logical durability waits (Sync calls served)
	Enqueued  uint64 // write requests submitted to the scheduler queue
	Absorbed  uint64 // queued writes superseded by a newer image before reaching disk
	QueuePeak uint64 // high-water mark of the submission-queue depth
}

// Add accumulates o into s. QueuePeak takes the max, not the sum.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BulkReads += o.BulkReads
	s.BulkWrites += o.BulkWrites
	s.BlocksRead += o.BlocksRead
	s.BlocksWritten += o.BlocksWritten
	s.MirrorWrites += o.MirrorWrites
	s.Fsyncs += o.Fsyncs
	s.SyncWaits += o.SyncWaits
	s.Enqueued += o.Enqueued
	s.Absorbed += o.Absorbed
	if o.QueuePeak > s.QueuePeak {
		s.QueuePeak = o.QueuePeak
	}
}

// IOs returns the total number of physical I/O operations (seeks).
func (s Stats) IOs() uint64 { return s.Reads + s.Writes }

// A Volume is one simulated disk volume (optionally mirrored). The zero
// value is not usable; call NewVolume.
type Volume struct {
	name     string
	mirrored bool

	// frozen simulates the instant of a power failure: once set, writes
	// are silently dropped (the drive lost power mid-operation) while
	// reads keep serving the last durable image for the recovery test to
	// inspect. Atomic rather than mu-guarded so a fault-injection hook
	// can freeze the volume from within an in-progress bulk write.
	frozen atomic.Bool

	mu     sync.Mutex
	blocks map[BlockNum][]byte
	next   BlockNum
	free   []BlockNum
	stats  Stats
}

// NewVolume creates an empty volume. Mirrored volumes charge an extra
// physical write per logical write, as the hardware would.
func NewVolume(name string, mirrored bool) *Volume {
	return &Volume{name: name, mirrored: mirrored, blocks: make(map[BlockNum][]byte), next: 1}
}

// Name returns the volume name (e.g. "$DATA1").
func (v *Volume) Name() string { return v.name }

// Freeze captures the volume's durable state at the instant of a
// simulated power failure: every subsequent write is dropped. Lock-free
// so it can be called from a fault hook that fires while a writer holds
// the volume mutex — a bulk write that is interrupted mid-run persists
// only the prefix written before the freeze, i.e. a torn write.
func (v *Volume) Freeze() { v.frozen.Store(true) }

// Clone returns an unfrozen deep copy of the volume's current block
// image (allocation state included, I/O counters zeroed) under the
// given name. Recovery tests recover into a clone so the frozen
// original stays inspectable.
func (v *Volume) Clone(name string) *Volume {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := &Volume{name: name, mirrored: v.mirrored, blocks: make(map[BlockNum][]byte, len(v.blocks)), next: v.next}
	for bn, data := range v.blocks {
		if data == nil {
			c.blocks[bn] = nil
		} else {
			c.blocks[bn] = append([]byte(nil), data...)
		}
	}
	c.free = append([]BlockNum(nil), v.free...)
	return c
}

// Allocate reserves a fresh block and returns its number. Freed blocks
// are reused first, preserving physical clustering where possible.
func (v *Volume) Allocate() BlockNum {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := len(v.free); n > 0 {
		bn := v.free[n-1]
		v.free = v.free[:n-1]
		v.blocks[bn] = nil
		return bn
	}
	bn := v.next
	v.next++
	v.blocks[bn] = nil
	return bn
}

// AllocateRun reserves n physically contiguous blocks and returns the
// first. Contiguity matters for the bulk-I/O and write-behind paths.
//
// Contract: AllocateRun deliberately NEVER consults the free list, even
// when freed blocks would happen to be adjacent. Freed blocks come back
// one at a time through Allocate in LIFO order, with no contiguity
// guarantee between them — only fresh blocks carved off the high-water
// mark are certain to be physically consecutive, which is the whole
// point of a run. Interleaving Allocate/Free/AllocateRun is therefore
// safe: a run can never overlap a freed-then-reused block.
func (v *Volume) AllocateRun(n int) BlockNum {
	v.mu.Lock()
	defer v.mu.Unlock()
	// Fresh blocks only — the free list is intentionally skipped.
	start := v.next
	for i := 0; i < n; i++ {
		v.blocks[v.next] = nil
		v.next++
	}
	return start
}

// Free releases a block for reuse. Freeing a block that is not
// allocated — never allocated, or freed already — is a no-op: pushing it
// onto the free list anyway would hand the same block out twice (a
// double allocation corrupts two files at once; a leak is merely
// wasteful). The file-backed volume guards identically.
func (v *Volume) Free(bn BlockNum) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.blocks[bn]; !ok {
		return
	}
	delete(v.blocks, bn)
	v.free = append(v.free, bn)
}

// Read performs one single-block read I/O into buf (len BlockSize).
// Reading a never-written block yields zeros, like a formatted drive.
func (v *Volume) Read(bn BlockNum, buf []byte) error {
	if len(buf) != BlockSize {
		return fmt.Errorf("disk %s: read buffer is %d bytes, want %d", v.name, len(buf), BlockSize)
	}
	if err := fault.InjectErr(fault.DiskRead); err != nil {
		return fmt.Errorf("disk %s: read of block %d: %w", v.name, bn, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.blocks[bn]; !ok {
		return fmt.Errorf("disk %s: read of %w %d", v.name, ErrUnallocated, bn)
	}
	v.stats.Reads++
	v.stats.BlocksRead++
	v.copyOut(bn, buf)
	return nil
}

func (v *Volume) copyOut(bn BlockNum, buf []byte) {
	if data := v.blocks[bn]; data != nil {
		copy(buf, data)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
}

// ReadBulk performs ONE bulk read I/O of n consecutive blocks starting at
// start, n ≤ MaxBulkBlocks. Returns freshly allocated block images.
func (v *Volume) ReadBulk(start BlockNum, n int) ([][]byte, error) {
	if n < 1 || n > MaxBulkBlocks {
		return nil, fmt.Errorf("disk %s: bulk read of %d blocks (max %d)", v.name, n, MaxBulkBlocks)
	}
	if err := fault.InjectErr(fault.DiskRead); err != nil {
		return nil, fmt.Errorf("disk %s: bulk read at block %d: %w", v.name, start, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := 0; i < n; i++ {
		if _, ok := v.blocks[start+BlockNum(i)]; !ok {
			return nil, fmt.Errorf("disk %s: bulk read spans %w %d", v.name, ErrUnallocated, start+BlockNum(i))
		}
	}
	v.stats.Reads++
	if n > 1 {
		v.stats.BulkReads++
	}
	v.stats.BlocksRead += uint64(n)
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		buf := make([]byte, BlockSize)
		v.copyOut(start+BlockNum(i), buf)
		out[i] = buf
	}
	return out, nil
}

// Write performs one single-block write I/O.
func (v *Volume) Write(bn BlockNum, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("disk %s: write of %d bytes, want %d", v.name, len(data), BlockSize)
	}
	fault.Inject(fault.DiskWrite)
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.blocks[bn]; !ok {
		return fmt.Errorf("disk %s: write to %w %d", v.name, ErrUnallocated, bn)
	}
	if v.frozen.Load() {
		return nil
	}
	v.stats.Writes++
	v.stats.BlocksWritten++
	if v.mirrored {
		v.stats.MirrorWrites++
	}
	v.store(bn, data)
	return nil
}

// store copies data into the volume's image of bn, in place when the
// block has one (the trail's tail block is rewritten by every flush).
// Images never leave the volume: reads and Clone copy out.
func (v *Volume) store(bn BlockNum, data []byte) {
	if img := v.blocks[bn]; img != nil {
		copy(img, data)
		return
	}
	v.blocks[bn] = append([]byte(nil), data...)
}

// WriteBulk performs ONE bulk write I/O of consecutive blocks starting at
// start. len(blocks) ≤ MaxBulkBlocks. This is the write-behind and audit
// trail "long, or bulk sequential I/O" path.
func (v *Volume) WriteBulk(start BlockNum, blocks [][]byte) error {
	n := len(blocks)
	if n < 1 || n > MaxBulkBlocks {
		return fmt.Errorf("disk %s: bulk write of %d blocks (max %d)", v.name, n, MaxBulkBlocks)
	}
	for i, b := range blocks {
		if len(b) != BlockSize {
			return fmt.Errorf("disk %s: bulk write block %d is %d bytes", v.name, i, len(b))
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i := range blocks {
		if _, ok := v.blocks[start+BlockNum(i)]; !ok {
			return fmt.Errorf("disk %s: bulk write spans %w %d", v.name, ErrUnallocated, start+BlockNum(i))
		}
	}
	if v.frozen.Load() {
		return nil
	}
	v.stats.Writes++
	if n > 1 {
		v.stats.BulkWrites++
	}
	v.stats.BlocksWritten += uint64(n)
	if v.mirrored {
		v.stats.MirrorWrites += uint64(1)
	}
	for i, b := range blocks {
		// A freeze firing here tears the write: the blocks already
		// copied are durable, this one and the rest never land.
		fault.Inject(fault.DiskBulkWrite)
		if v.frozen.Load() {
			return nil
		}
		v.store(start+BlockNum(i), b)
	}
	return nil
}

// Sync is a no-op: the simulated volume's writes are durable the moment
// they return (the freeze mechanism models the crash instant instead).
func (v *Volume) Sync() error { return nil }

// Close is a no-op; the simulated volume holds no OS resources.
func (v *Volume) Close() error { return nil }

// Stats returns a snapshot of the I/O counters.
func (v *Volume) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// ResetStats zeroes the I/O counters (between benchmark phases).
func (v *Volume) ResetStats() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.stats = Stats{}
}

// Size returns the number of allocated blocks.
func (v *Volume) Size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.blocks)
}
