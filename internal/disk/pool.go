package disk

import (
	"sync"

	"nonstopsql/internal/poison"
)

// blockPool is the one pool of 4 KB block images. The cache's miss buffers
// and write-back snapshots and the file-backed scheduler's queued images
// all come from it and go back to it, so a block that moves between the
// cache and a volume costs a copy, not an allocation.
var blockPool = sync.Pool{New: func() any { return new([BlockSize]byte) }}

// NewBlock returns a BlockSize buffer from the pool. Its contents are
// whatever its last owner left: the caller overwrites all of it.
func NewBlock() []byte { return blockPool.Get().(*[BlockSize]byte)[:] }

// FreeBlock returns b (len BlockSize) to the pool. The caller must be its
// only owner and must not touch it again. Under the race detector the
// bytes are poisoned first, so a read through a stale alias returns a
// wrong answer a test can see, besides the race the detector reports.
func FreeBlock(b []byte) {
	poison.Fill(b)
	blockPool.Put((*[BlockSize]byte)(b))
}
