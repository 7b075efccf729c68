package cache

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"nonstopsql/internal/disk"
)

// gatedDev holds its first WriteBulk until release is closed, then
// records the bytes that reach the device.
type gatedDev struct {
	*disk.Volume
	once             sync.Once
	entered, release chan struct{}
	wrote            map[disk.BlockNum][]byte
}

func (d *gatedDev) WriteBulk(start disk.BlockNum, blocks [][]byte) error {
	held := false
	d.once.Do(func() {
		held = true
		close(d.entered)
		<-d.release
	})
	if held {
		for i, b := range blocks {
			d.wrote[start+disk.BlockNum(i)] = bytes.Clone(b)
		}
	}
	return d.Volume.WriteBulk(start, blocks)
}

// TestWriteBehindSnapshotIsItsOwn: a write-behind pass claims a page and
// writes a snapshot taken from the pool, with every mutex dropped. While
// the write is held, the page is modified again and misses and evictions
// (clean and dirty) take and give back pool buffers; the bytes that reach
// the device are still the page as it was when the pass claimed it.
func TestWriteBehindSnapshotIsItsOwn(t *testing.T) {
	v, start := newVolWithBlocks(t, 16)
	dev := &gatedDev{Volume: v, entered: make(chan struct{}), release: make(chan struct{}),
		wrote: make(map[disk.BlockNum][]byte)}
	p := NewPool(dev, 4, nil)
	modify := func(bn disk.BlockNum, c byte) {
		pg, err := p.Get(bn)
		if err != nil {
			t.Fatal(err)
		}
		copy(pg.Data(), bytes.Repeat([]byte{c}, disk.BlockSize))
		pg.MarkDirty(1)
		pg.Release()
	}
	modify(start, 0xA1)
	done := make(chan error)
	go func() {
		_, err := p.WriteBehind()
		done <- err
	}()
	<-dev.entered

	modify(start, 0xB2)
	for i := 1; i < 16; i++ {
		bn := start + disk.BlockNum(i)
		if i%3 == 0 {
			modify(bn, byte(i)) // evicted dirty later: a pooled snapshot written by the cleaner
			continue
		}
		pg, err := p.Get(bn)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	close(dev.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got := dev.wrote[start]; !bytes.Equal(got, bytes.Repeat([]byte{0xA1}, disk.BlockSize)) {
		t.Errorf("the held pass wrote %x… (%d bytes), want the page as claimed (a1…)", got[:min(8, len(got))], len(got))
	}
	if p.Stats().DirtyEvictions == 0 {
		t.Fatal("no dirty page was evicted while the pass was held")
	}
	buf := make([]byte, disk.BlockSize)
	for i := 3; i < 16; i += 3 {
		bn := start + disk.BlockNum(i)
		if p.Contains(bn) {
			continue // still resident: clean victims go first
		}
		if err := v.Read(bn, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(i)}, disk.BlockSize)) {
			t.Errorf("dirty eviction of block %d wrote %x…, want %02x…", bn, buf[:8], i)
		}
	}
	if !p.IsDirty(start) {
		t.Error("the modification made during the pass was lost")
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

// TestAllocationCeilings: a block that moves between the cache and the
// volume costs a copy into a pooled buffer, not a 4 KB allocation. What
// is left is bookkeeping: a Page and an in-flight channel per miss. A
// write-behind pass allocates nothing: its claims and buffer list are
// the pool's scratch, reused pass after pass.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const nblocks = 64
	v, start := newVolWithBlocks(t, nblocks)
	small := NewPool(v, 2, nil)
	i := 0
	miss := bytesPerOp(2000, func() {
		pg, err := small.Get(start + disk.BlockNum(i%nblocks))
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
		i++
	})
	if st := small.Stats(); st.Hits != 0 || st.Evictions != st.Misses-2 {
		t.Fatalf("not a miss that evicts each time: %+v", st)
	}
	dirty := func(p *Pool, bn disk.BlockNum) {
		pg, err := p.Get(bn)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0]++
		pg.MarkDirty(1)
		pg.Release()
	}
	p := NewPool(v, 8, nil)
	writeBehind := bytesPerOp(2000, func() {
		dirty(p, start)
		if n, err := p.WriteBehind(); n != 1 || err != nil {
			t.Fatal(n, err)
		}
	})
	// A full pool of two slots: the window is the one page at the tail.
	full := NewPool(v, 2, nil)
	windowed := bytesPerOp(2000, func() {
		dirty(full, start)
		dirty(full, start+1) // to the head, and start to the tail
		full.NudgeWriter()
	})
	if st := full.Stats(); st.WriteBehindBlocks != 2001 || st.Evictions != 0 {
		t.Fatalf("not a windowed pass that writes one page each time: %+v", st)
	}
	for _, c := range []struct {
		name    string
		got     float64
		ceiling float64
	}{
		{"a miss that evicts a clean page", miss, 512},
		// A 4 KB block allocated once in 2 000 passes reads 2 B.
		{"a write-behind pass of one dirty page", writeBehind, 8},
		{"a windowed pass of one dirty page", windowed, 8},
	} {
		t.Logf("%s: %.0f B", c.name, c.got)
		if c.got >= c.ceiling {
			t.Errorf("%s allocates %.0f B, ceiling %.0f", c.name, c.got, c.ceiling)
		}
	}
}
