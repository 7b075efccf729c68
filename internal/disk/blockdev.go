package disk

import "errors"

// ErrUnallocated marks a read or write addressed to a block that was
// never allocated (or lies beyond the device's high-water mark). It is
// how sequential consumers — the audit-trail scan above all — tell "end
// of the written region" apart from a genuine I/O failure: the former
// ends the scan, the latter must be surfaced, because treating a flaky
// read as end-of-trail would silently truncate recovery.
var ErrUnallocated = errors.New("unallocated block")

// BlockDev is the block-device contract a Disk Process manages: the
// paper's physical volume, abstracted just far enough that the simulated
// Volume (deterministic, instant, freezable — the test double) and the
// file-backed implementation in disk/filevol (real pread/pwrite, real
// fsync, survives the process) are interchangeable beneath the cache,
// the audit trail, and the B-trees.
//
// Durability contract: Read/Write/ReadBulk/WriteBulk move data between
// caller and device, but only Sync guarantees that completed writes
// survive a crash. The simulated volume's writes are durable the moment
// they return and its Sync is free; a file-backed volume may queue
// writes (batched-async mode) and makes them durable — with one batched
// fsync — when Sync returns. Write errors in a queued implementation may
// therefore surface at Sync rather than at the write call.
type BlockDev interface {
	// Name returns the volume name (e.g. "$DATA1").
	Name() string

	// Allocate reserves one block; freed blocks are reused LIFO.
	Allocate() BlockNum
	// AllocateRun reserves n physically contiguous fresh blocks and
	// returns the first; it never consults the free list (see
	// Volume.AllocateRun for the contract).
	AllocateRun(n int) BlockNum
	// Free releases a block for reuse by Allocate.
	Free(bn BlockNum)

	// Read performs one single-block read into buf (len BlockSize).
	Read(bn BlockNum, buf []byte) error
	// ReadBulk performs ONE bulk read of n consecutive blocks.
	ReadBulk(start BlockNum, n int) ([][]byte, error)
	// Write performs one single-block write. The device copies what it
	// keeps: the caller may reuse data once the call returns.
	Write(bn BlockNum, data []byte) error
	// WriteBulk performs ONE bulk write of consecutive blocks, copying
	// them as Write does.
	WriteBulk(start BlockNum, blocks [][]byte) error

	// Sync makes every completed write durable and reports any deferred
	// write error. Concurrent Sync calls may be served by one physical
	// fsync (the file-backed scheduler batches them).
	Sync() error
	// Close flushes, makes the device durable, and releases resources.
	Close() error

	// Stats returns a snapshot of the I/O counters; ResetStats zeroes
	// them. Size returns the number of allocated blocks.
	Stats() Stats
	ResetStats()
	Size() int
}

// The simulated volume is the reference implementation.
var _ BlockDev = (*Volume)(nil)
