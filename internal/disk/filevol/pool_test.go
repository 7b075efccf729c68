package filevol

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nonstopsql/internal/disk"
)

// image is version ver of block bn: every 8-byte word holds bn<<32 | ver,
// so a read that mixes two images, or reads bytes of another block or a
// poisoned buffer, cannot pass for one image.
func image(bn disk.BlockNum, ver uint32) []byte {
	b := make([]byte, disk.BlockSize)
	binary.LittleEndian.PutUint64(b, uint64(bn)<<32|uint64(ver))
	for n := 8; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
	return b
}

// TestReadsNeverSeeARecycledImage: queued images are pooled buffers, freed
// when a newer image absorbs them or their pwrite lands and reused by the
// next submission, for any block. A reader copies an image out under the
// scheduler's mutex, so every Read and ReadBulk returns exactly one image
// submitted for the block it asked for. Under -race a copy made after the
// unlock is a reported race, and FreeBlock's poison a wrong answer.
//
// Once the first images are synced, the volume's file is swapped for a
// read-only handle, so every later pwrite fails and the file keeps those
// images. The queue runs as ever (images are absorbed, claimed, their
// pwrite returns and they go back to the pool), but a pread can never
// catch the kernel halfway through a pwrite of the same block: that tears
// a read of any file, and the cache never issues one, because a block it
// writes is resident.
func TestReadsNeverSeeARecycledImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol")
	v, err := Open(Config{Path: path, Name: "$T", Mode: BatchedAsync, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	const nblocks = 4
	start := v.AllocateRun(nblocks)
	var latest [nblocks]atomic.Uint32 // highest version submitted per block
	for i := 0; i < nblocks; i++ {
		if err := v.Write(start+disk.BlockNum(i), image(start+disk.BlockNum(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	rw := v.f
	if v.f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	defer v.Close() // fails: the sticky pwrite error
	check := func(bn disk.BlockNum, b []byte) bool {
		w := binary.LittleEndian.Uint64(b)
		if disk.BlockNum(w>>32) != bn || uint32(w) > latest[bn-start].Load() {
			t.Errorf("read of block %d returned word %#x: not an image of that block", bn, w)
			return false
		}
		if !bytes.Equal(b[8:], b[:len(b)-8]) { // not every word is word 0
			i := 8
			for binary.LittleEndian.Uint64(b[i:]) == w {
				i += 8
			}
			t.Errorf("read of block %d mixes two images: word 0 %#x, word %d %#x", bn, w, i/8, binary.LittleEndian.Uint64(b[i:]))
			return false
		}
		return true
	}

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 600; i++ {
				if i%8 == 7 { // now and then a bulk write of every block
					imgs := make([][]byte, nblocks)
					for j := range imgs {
						bn := start + disk.BlockNum(j)
						imgs[j] = image(bn, latest[j].Add(1))
					}
					if err := v.WriteBulk(start, imgs); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				j := (i + g) % nblocks
				bn := start + disk.BlockNum(j)
				if err := v.Write(bn, image(bn, latest[j].Add(1))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			buf := make([]byte, disk.BlockSize)
			for i := g; !done.Load(); i++ {
				bn := start + disk.BlockNum(i%nblocks)
				if err := v.Read(bn, buf); err != nil {
					t.Error(err)
					return
				}
				if !check(bn, buf) {
					return
				}
				blocks, err := v.ReadBulk(start, nblocks)
				if err != nil {
					t.Error(err)
					return
				}
				for j, b := range blocks {
					if !check(start+disk.BlockNum(j), b) {
						return
					}
				}
			}
		}(g)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	if err := v.Sync(); err == nil {
		t.Error("a pwrite to the read-only file succeeded")
	}
	if st := v.Stats(); st.Absorbed == 0 {
		t.Errorf("no queued image was absorbed (stats %+v): the test never freed one that way", st)
	}
}

// bytesPerOp is what op allocates per call, in bytes, over n calls after
// a warm-up call. Bytes, not objects: a block image is one object of 4 KB.
func bytesPerOp(n int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestAllocationCeilings: a block written, read back and synced through the
// scheduler takes its queued image from the block pool and gives it back
// when the pwrite lands; nothing on the way costs a block of its own.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	v := openTemp(t, BatchedAsync)
	defer v.Close()
	bn := v.Allocate()
	data, buf := filled(0x3C), make([]byte, disk.BlockSize)
	got := bytesPerOp(1000, func() {
		if err := v.Write(bn, data); err != nil {
			t.Fatal(err)
		}
		if err := v.Read(bn, buf); err != nil {
			t.Fatal(err)
		}
		if err := v.Sync(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Write + Read + Sync of one block: %.0f B", got)
	if got >= 512 {
		t.Errorf("Write + Read + Sync of one block allocates %.0f B, ceiling 512", got)
	}
}
