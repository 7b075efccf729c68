package filevol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nonstopsql/internal/disk"
)

func filled(b byte) []byte {
	buf := make([]byte, disk.BlockSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func openTemp(t *testing.T, mode Mode) *Volume {
	t.Helper()
	v, err := Open(Config{Path: filepath.Join(t.TempDir(), "vol"), Name: "$T", Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestReadWriteBothModes(t *testing.T) {
	for _, mode := range []Mode{SyncPerWrite, BatchedAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			v := openTemp(t, mode)
			defer v.Close()
			bn := v.Allocate()
			buf := make([]byte, disk.BlockSize)
			if err := v.Read(bn, buf); err != nil {
				t.Fatal(err)
			}
			for _, b := range buf {
				if b != 0 {
					t.Fatal("fresh block not zeroed")
				}
			}
			if err := v.Write(bn, filled(0xAB)); err != nil {
				t.Fatal(err)
			}
			// Queued writes must be immediately visible to reads.
			if err := v.Read(bn, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != 0xAB || buf[disk.BlockSize-1] != 0xAB {
				t.Error("write not visible to read")
			}
			run := v.AllocateRun(3)
			blocks := [][]byte{filled(1), filled(2), filled(3)}
			if err := v.WriteBulk(run, blocks); err != nil {
				t.Fatal(err)
			}
			got, err := v.ReadBulk(run, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !bytes.Equal(got[i], blocks[i]) {
					t.Fatalf("bulk block %d mismatch", i)
				}
			}
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnallocatedSentinel(t *testing.T) {
	v := openTemp(t, BatchedAsync)
	defer v.Close()
	buf := make([]byte, disk.BlockSize)
	if err := v.Read(42, buf); !errors.Is(err, disk.ErrUnallocated) {
		t.Errorf("Read: %v does not wrap ErrUnallocated", err)
	}
	if err := v.Write(42, filled(1)); !errors.Is(err, disk.ErrUnallocated) {
		t.Errorf("Write: %v does not wrap ErrUnallocated", err)
	}
	if _, err := v.ReadBulk(42, 2); !errors.Is(err, disk.ErrUnallocated) {
		t.Errorf("ReadBulk: %v does not wrap ErrUnallocated", err)
	}
	if err := v.WriteBulk(42, [][]byte{filled(1), filled(2)}); !errors.Is(err, disk.ErrUnallocated) {
		t.Errorf("WriteBulk: %v does not wrap ErrUnallocated", err)
	}
}

// Clean close persists the whole allocation state: contents, high-water
// mark, and the free list.
func TestCleanReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol")
	v, err := Open(Config{Path: path, Name: "$T"})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := v.Allocate(), v.Allocate(), v.Allocate()
	for i, bn := range []disk.BlockNum{a, b, c} {
		if err := v.Write(bn, filled(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	v.Free(b)
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2, err := Open(Config{Path: path, Name: "$T"})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	buf := make([]byte, disk.BlockSize)
	if err := v2.Read(a, buf); err != nil || buf[0] != 1 {
		t.Fatalf("block %d after reopen: %v, byte %d", a, err, buf[0])
	}
	if err := v2.Read(b, buf); !errors.Is(err, disk.ErrUnallocated) {
		t.Errorf("freed block readable after clean reopen: %v", err)
	}
	// The free list survived a clean close: b is reused first.
	if bn := v2.Allocate(); bn != b {
		t.Errorf("Allocate after clean reopen = %d, want freed block %d", bn, b)
	}
}

// An unclean reopen (the file was not Closed — a crash) must recover
// conservatively: synced contents intact, the free list discarded
// (freed blocks leak; a leak is recoverable, a double allocation is
// not), and fresh allocations strictly above everything ever written.
func TestCrashReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol")
	v, err := Open(Config{Path: path, Name: "$T"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := v.Allocate(), v.Allocate()
	if err := v.Write(a, filled(0xA1)); err != nil {
		t.Fatal(err)
	}
	if err := v.Write(b, filled(0xB2)); err != nil {
		t.Fatal(err)
	}
	v.Free(a)
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the process dying here. The first handle stays
	// open (a dead process's writes are gone either way — everything
	// after Sync is the volume's own business).
	v2, err := Open(Config{Path: path, Name: "$T"})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	buf := make([]byte, disk.BlockSize)
	if err := v2.Read(b, buf); err != nil || buf[0] != 0xB2 {
		t.Fatalf("synced block lost across crash: %v, byte %x", err, buf[0])
	}
	// The freed block leaked: it reads (conservative) but is not reused.
	if err := v2.Read(a, buf); err != nil {
		t.Errorf("block below high-water mark unreadable after crash: %v", err)
	}
	if bn := v2.Allocate(); bn <= b {
		t.Errorf("post-crash Allocate returned %d, inside the pre-crash region (≤ %d)", bn, b)
	}
	_ = v.f.Close() // release the dead handle
}

// headerOnDisk reads the header block's mark and clean flag straight
// from the file.
func headerOnDisk(t *testing.T, path string) (next disk.BlockNum, clean bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, headerSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return disk.BlockNum(binary.LittleEndian.Uint32(buf[offNext:])), binary.LittleEndian.Uint32(buf[offClean:]) == 1
}

// TestHeaderWrittenWhenItChanges: a Sync rewrites the header only when
// the header it would write differs from the one on disk — which is once
// per allocation chunk, not once per fsync. What must still land: the
// in-use mark at Open (over a clean header), every chunk crossing, and
// the clean header at Close. The proof of the pudding is a kill after
// allocating across a chunk boundary: no block handed out before the
// crash is handed out again after it.
func TestHeaderWrittenWhenItChanges(t *testing.T) {
	for _, mode := range []Mode{BatchedAsync, SyncPerWrite} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "vol")
			v, err := Open(Config{Path: path, Name: "$T", Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := v.Close(); err != nil {
				t.Fatal(err)
			}
			if v, err = Open(Config{Path: path, Name: "$T", Mode: mode}); err != nil {
				t.Fatal(err)
			}
			if next, clean := headerOnDisk(t, path); clean || next != allocChunk {
				t.Fatalf("after Open over a clean header: mark %d clean %v, want %d false", next, clean, allocChunk)
			}

			// Within one chunk the header does not change, so a Sync leaves
			// the block alone: scribble on it and see the scribble survive.
			var last disk.BlockNum
			for i := 0; i < 10; i++ {
				last = v.Allocate()
			}
			if err := v.Write(last, filled(0x11)); err != nil {
				t.Fatal(err)
			}
			scribble := filled(0x5A)
			if _, err := v.f.WriteAt(scribble, 0); err != nil {
				t.Fatal(err)
			}
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, headerSize)
			if _, err := v.f.ReadAt(got, 0); err != nil || !bytes.Equal(got, scribble) {
				t.Fatalf("Sync rewrote a header that had not changed (err %v)", err)
			}

			// Crossing a chunk boundary changes it, and the crossing lands:
			// one allocation at a time, then a run that jumps a boundary.
			for v.Allocate() < allocChunk {
			}
			if next, clean := headerOnDisk(t, path); clean || next != 2*allocChunk {
				t.Fatalf("after crossing the first chunk: mark %d clean %v, want %d false", next, clean, 2*allocChunk)
			}
			last = v.AllocateRun(allocChunk) + allocChunk - 1
			if err := v.Sync(); err != nil {
				t.Fatal(err)
			}
			if next, _ := headerOnDisk(t, path); next <= last {
				t.Fatalf("after a run across the second chunk: mark %d does not cover block %d", next, last)
			}

			// Kill: no Close. Nothing above block 10 was ever written, so
			// only the header can tell the next incarnation what was taken.
			v2, err := Open(Config{Path: path, Name: "$T", Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if bn := v2.Allocate(); bn <= last {
				t.Errorf("after the kill Allocate handed out block %d again (blocks up to %d were taken)", bn, last)
			}
			if bn := v2.AllocateRun(3); bn <= last {
				t.Errorf("after the kill AllocateRun handed out block %d again", bn)
			}
			if err := v2.Close(); err != nil {
				t.Fatal(err)
			}
			if _, clean := headerOnDisk(t, path); !clean {
				t.Error("Close did not leave a clean header")
			}
			_ = v.f.Close() // release the dead handle
		})
	}
}

// claimRunLocked is the coalescing heart of the scheduler; test it
// deterministically on a scheduler with no workers attached.
func TestClaimRunCoalescing(t *testing.T) {
	s := &sched{pending: map[disk.BlockNum][]byte{}, busy: map[disk.BlockNum][]byte{}}
	s.work = sync.NewCond(&s.mu)
	s.room = sync.NewCond(&s.mu)
	s.drain = sync.NewCond(&s.mu)
	s.syncGen = sync.NewCond(&s.mu)

	// Ten adjacent blocks: the first claim takes MaxBulkBlocks, the
	// second takes the remainder.
	for bn := disk.BlockNum(10); bn < 20; bn++ {
		s.pending[bn] = filled(byte(bn))
	}
	start, run, ok := s.claimRunLocked()
	if !ok || len(run) != disk.MaxBulkBlocks {
		t.Fatalf("first claim: ok=%v len=%d, want %d (MaxBulkBlocks cap)", ok, len(run), disk.MaxBulkBlocks)
	}
	if start < 10 || start+disk.BlockNum(len(run)) > 20 {
		t.Fatalf("first claim [%d,%d) outside the pending range", start, start+disk.BlockNum(len(run)))
	}
	// The remainder may be fragmented (the seed is a random map key);
	// further claims drain it completely without exceeding the cap.
	total := len(run)
	for {
		_, r, ok := s.claimRunLocked()
		if !ok {
			break
		}
		if len(r) > disk.MaxBulkBlocks {
			t.Fatalf("claim of %d blocks exceeds MaxBulkBlocks", len(r))
		}
		total += len(r)
	}
	if total != 10 {
		t.Fatalf("claims drained %d blocks, want 10", total)
	}
	if len(s.pending) != 0 || len(s.busy) != 10 {
		t.Errorf("after claims: %d pending, %d busy, want 0/10", len(s.pending), len(s.busy))
	}

	// A busy block splits a run: neighbors on each side are claimed
	// separately and the busy block is never re-claimed.
	s.pending = map[disk.BlockNum][]byte{}
	s.busy = map[disk.BlockNum][]byte{5: filled(5)}
	s.pending[4] = filled(4)
	s.pending[5] = filled(55) // newer image of the in-flight block
	s.pending[6] = filled(6)
	seen := map[disk.BlockNum]bool{}
	for {
		st, r, ok := s.claimRunLocked()
		if !ok {
			break
		}
		for i := range r {
			bn := st + disk.BlockNum(i)
			if bn == 5 {
				t.Fatal("claimed a block that is in flight")
			}
			seen[bn] = true
		}
	}
	if !seen[4] || !seen[6] {
		t.Errorf("neighbors of the busy block not claimed: %v", seen)
	}
	if _, ok := s.pending[5]; !ok {
		t.Error("newer image of the busy block must stay pending")
	}
}

// Absorption: re-writing a queued block replaces the image in place, so
// only the newest version reaches the file. The workers are gated for the
// fifty rewrites by the scheduler's own rule — a block with a write in
// flight is not claimable, and what is submitted meanwhile waits in
// pending — so all fifty are queued before the first drains. Ungated, the
// test asserted a race: two workers may claim each image as it lands, and
// under -race about one run in thirty they claimed every one (Absorbed=0).
func TestWriteAbsorption(t *testing.T) {
	v := openTemp(t, BatchedAsync)
	defer v.Close()
	bn := v.Allocate()
	s := v.sched
	s.mu.Lock()
	s.busy[bn] = filled(0xEE) // stands for an older image on its way to the file
	s.mu.Unlock()
	for i := 0; i < 50; i++ {
		if err := v.Write(bn, filled(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, disk.BlockSize)
	if err := v.Read(bn, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 49 {
		t.Fatalf("read %d, want the newest image 49", buf[0])
	}
	s.mu.Lock()
	delete(s.busy, bn) // the write in flight "finishes", as worker() ends one
	s.work.Signal()
	s.mu.Unlock()
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := v.pread(buf, blockOff(bn)); err != nil || buf[0] != 49 {
		t.Fatalf("file holds %d after sync, want 49 (%v)", buf[0], err)
	}
	st := v.Stats()
	if st.Enqueued != 50 || st.Absorbed != 49 || st.BlocksWritten != 1 {
		t.Errorf("Enqueued = %d, Absorbed = %d, BlocksWritten = %d: want fifty submits collapsed into one write (50, 49, 1)",
			st.Enqueued, st.Absorbed, st.BlocksWritten)
	}
}

// Fsync batching: concurrent Sync callers share physical fsyncs. Queued
// writes give the generations room to overlap; even so the assertion is
// conservative — strictly fewer fsyncs than durability waits.
func TestFsyncBatching(t *testing.T) {
	v := openTemp(t, BatchedAsync)
	defer v.Close()
	blocks := make([]disk.BlockNum, 64)
	for i := range blocks {
		blocks[i] = v.Allocate()
	}
	const rounds, syncers = 4, 16
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < syncers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := v.Write(blocks[i], filled(byte(i))); err != nil {
					t.Error(err)
					return
				}
				if err := v.Sync(); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
	st := v.Stats()
	if st.SyncWaits != rounds*syncers {
		t.Fatalf("SyncWaits = %d, want %d", st.SyncWaits, rounds*syncers)
	}
	if st.Fsyncs == 0 || st.Fsyncs >= st.SyncWaits {
		t.Errorf("Fsyncs = %d not batched below SyncWaits = %d", st.Fsyncs, st.SyncWaits)
	}
}

// TestSchedRace is the focused -race gate for the scheduler (wired into
// check.sh ahead of the full suite): concurrent writers, readers, bulk
// I/O, and sync callers hammering one batched-async volume.
func TestSchedRace(t *testing.T) {
	v, err := Open(Config{
		Path: filepath.Join(t.TempDir(), "vol"), Name: "$T",
		Mode: BatchedAsync, MaxQueue: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	const region = 128
	start := v.AllocateRun(region)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, disk.BlockSize)
			for i := 0; i < 300; i++ {
				bn := start + disk.BlockNum(rng.Intn(region))
				switch rng.Intn(5) {
				case 0:
					if err := v.Read(bn, buf); err != nil {
						t.Error(err)
						return
					}
				case 1:
					n := 1 + rng.Intn(disk.MaxBulkBlocks)
					if int(bn-start)+n > region {
						n = region - int(bn-start)
					}
					if _, err := v.ReadBulk(bn, n); err != nil {
						t.Error(err)
						return
					}
				case 2:
					n := 1 + rng.Intn(disk.MaxBulkBlocks)
					if int(bn-start)+n > region {
						n = region - int(bn-start)
					}
					blocks := make([][]byte, n)
					for j := range blocks {
						blocks[j] = filled(byte(g))
					}
					if err := v.WriteBulk(bn, blocks); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if err := v.Sync(); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := v.Write(bn, filled(byte(i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.QueuePeak == 0 {
		t.Error("queue depth never observed above zero under load")
	}
}

// The differential property test: the same randomized op sequence runs
// against the simulated volume and the file-backed volume, asserting
// identical visible state and error behavior at every step, then across
// a crash (Freeze/Clone on the simulated side, an unclean reopen on the
// file side). One documented divergence: the file-backed volume discards
// its free list on an unclean reopen, so post-crash comparison covers
// only blocks that were never freed.
func TestDifferentialSimVsFile(t *testing.T) {
	for _, mode := range []Mode{SyncPerWrite, BatchedAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "vol")
			sim := disk.NewVolume("$T", false)
			file, err := Open(Config{Path: path, Name: "$T", Mode: mode})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(41))
			var allocated []disk.BlockNum
			everFreed := map[disk.BlockNum]bool{}
			pick := func() disk.BlockNum {
				if len(allocated) == 0 || rng.Intn(8) == 0 {
					return disk.BlockNum(1 + rng.Intn(64)) // sometimes off the map
				}
				return allocated[rng.Intn(len(allocated))]
			}
			both := func(what string, se, fe error) {
				t.Helper()
				if (se == nil) != (fe == nil) {
					t.Fatalf("%s: sim err %v, file err %v", what, se, fe)
				}
				if errors.Is(se, disk.ErrUnallocated) != errors.Is(fe, disk.ErrUnallocated) {
					t.Fatalf("%s: sentinel divergence: sim %v, file %v", what, se, fe)
				}
			}
			for i := 0; i < 2000; i++ {
				switch rng.Intn(10) {
				case 0, 1:
					sb, fb := sim.Allocate(), file.Allocate()
					if sb != fb {
						t.Fatalf("op %d: Allocate: sim %d, file %d", i, sb, fb)
					}
					allocated = append(allocated, sb)
				case 2:
					n := 1 + rng.Intn(4)
					sb, fb := sim.AllocateRun(n), file.AllocateRun(n)
					if sb != fb {
						t.Fatalf("op %d: AllocateRun(%d): sim %d, file %d", i, n, sb, fb)
					}
					for j := 0; j < n; j++ {
						allocated = append(allocated, sb+disk.BlockNum(j))
					}
				case 3:
					bn := pick()
					sim.Free(bn)
					file.Free(bn)
					everFreed[bn] = true
				case 4, 5:
					bn := pick()
					img := filled(byte(i))
					both(fmt.Sprintf("op %d: Write %d", i, bn), sim.Write(bn, img), file.Write(bn, img))
				case 6:
					bn := pick()
					n := 1 + rng.Intn(disk.MaxBulkBlocks)
					blocks := make([][]byte, n)
					for j := range blocks {
						blocks[j] = filled(byte(i + j))
					}
					both(fmt.Sprintf("op %d: WriteBulk %d+%d", i, bn, n), sim.WriteBulk(bn, blocks), file.WriteBulk(bn, blocks))
				case 7, 8:
					bn := pick()
					sbuf, fbuf := make([]byte, disk.BlockSize), make([]byte, disk.BlockSize)
					se, fe := sim.Read(bn, sbuf), file.Read(bn, fbuf)
					both(fmt.Sprintf("op %d: Read %d", i, bn), se, fe)
					if se == nil && !bytes.Equal(sbuf, fbuf) {
						t.Fatalf("op %d: Read %d: content divergence", i, bn)
					}
				default:
					bn := pick()
					n := 1 + rng.Intn(disk.MaxBulkBlocks)
					sgot, se := sim.ReadBulk(bn, n)
					fgot, fe := file.ReadBulk(bn, n)
					both(fmt.Sprintf("op %d: ReadBulk %d+%d", i, bn, n), se, fe)
					if se == nil {
						for j := range sgot {
							if !bytes.Equal(sgot[j], fgot[j]) {
								t.Fatalf("op %d: ReadBulk %d block %d: content divergence", i, bn, j)
							}
						}
					}
				}
				if sim.Size() != file.Size() {
					t.Fatalf("op %d: Size: sim %d, file %d", i, sim.Size(), file.Size())
				}
			}

			// Crash both sides: freeze the simulated volume, reopen the
			// file without Close. Everything synced before the crash must
			// match on never-freed blocks.
			if err := file.Sync(); err != nil {
				t.Fatal(err)
			}
			sim.Freeze()
			simCrashed := sim.Clone("$T")
			fileCrashed, err := Open(Config{Path: path, Name: "$T", Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer fileCrashed.Close()
			for _, bn := range allocated {
				if everFreed[bn] {
					continue
				}
				sbuf, fbuf := make([]byte, disk.BlockSize), make([]byte, disk.BlockSize)
				se := simCrashed.Read(bn, sbuf)
				fe := fileCrashed.Read(bn, fbuf)
				if (se == nil) != (fe == nil) {
					t.Fatalf("post-crash Read %d: sim %v, file %v", bn, se, fe)
				}
				if se == nil && !bytes.Equal(sbuf, fbuf) {
					t.Fatalf("post-crash Read %d: content divergence", bn)
				}
			}
			_ = file.f.Close()
		})
	}
}
