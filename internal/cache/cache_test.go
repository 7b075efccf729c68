package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/wal"
)

// fakeGate records WAL-gate traffic.
type fakeGate struct {
	mu      sync.Mutex
	flushed wal.LSN
	calls   int
}

func (g *fakeGate) FlushedLSN() wal.LSN {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.flushed
}

func (g *fakeGate) FlushTo(lsn wal.LSN) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.calls++
	if lsn > g.flushed {
		g.flushed = lsn
	}
}

func newVolWithBlocks(t testing.TB, n int) (*disk.Volume, disk.BlockNum) {
	t.Helper()
	v := disk.NewVolume("$DATA", false)
	start := v.AllocateRun(n)
	buf := make([]byte, disk.BlockSize)
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		if err := v.Write(start+disk.BlockNum(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	v.ResetStats()
	return v, start
}

func TestGetMissThenHit(t *testing.T) {
	v, start := newVolWithBlocks(t, 1)
	p := NewPool(v, 8, nil)
	pg, err := p.Get(start)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data()[0] != 0 {
		t.Error("wrong data")
	}
	pg.Release()
	pg2, err := p.Get(start)
	if err != nil {
		t.Fatal(err)
	}
	pg2.Release()
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats %+v", s)
	}
	if v.Stats().Reads != 1 {
		t.Errorf("disk reads = %d", v.Stats().Reads)
	}
}

func TestGetUnallocated(t *testing.T) {
	v := disk.NewVolume("$DATA", false)
	p := NewPool(v, 8, nil)
	if _, err := p.Get(42); err == nil {
		t.Error("unallocated get accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	v, start := newVolWithBlocks(t, 10)
	p := NewPool(v, 4, nil)
	for i := 0; i < 10; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	if p.Len() > 4 {
		t.Errorf("pool over capacity: %d", p.Len())
	}
	if p.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
	// Oldest blocks must be gone, newest present.
	if p.Contains(start) {
		t.Error("LRU victim still cached")
	}
	if !p.Contains(start + 9) {
		t.Error("most recent block evicted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	v, start := newVolWithBlocks(t, 10)
	g := &fakeGate{flushed: 100}
	p := NewPool(v, 2, g)
	pg, err := p.Get(start)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0] = 0xEE
	pg.MarkDirty(5)
	pg.Release()
	// Dirty every subsequent page so eviction has no clean victim.
	for i := 1; i < 5; i++ {
		q, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		q.MarkDirty(wal.LSN(5 + i))
		q.Release()
	}
	buf := make([]byte, disk.BlockSize)
	if err := v.Read(start, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Error("dirty eviction lost the update")
	}
	if p.Stats().DirtyEvictions == 0 {
		t.Error("DirtyEvictions not counted")
	}
}

func TestWALGateBlocksEarlyWrite(t *testing.T) {
	v, start := newVolWithBlocks(t, 10)
	g := &fakeGate{flushed: 0} // nothing durable yet
	p := NewPool(v, 2, g)
	pg, _ := p.Get(start)
	pg.Data()[0] = 0xCC
	pg.MarkDirty(7) // audit LSN 7 not yet durable
	pg.Release()
	for i := 1; i < 5; i++ {
		q, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		q.MarkDirty(wal.LSN(7 + i))
		q.Release()
	}
	if g.calls == 0 {
		t.Error("WAL gate never consulted for early write")
	}
	if g.flushed < 7 {
		t.Error("audit not forced durable before data write")
	}
	if p.Stats().WALStalls == 0 {
		t.Error("WALStalls not counted")
	}
}

func TestCleanEvictionPreferredOverDirty(t *testing.T) {
	v, start := newVolWithBlocks(t, 10)
	g := &fakeGate{flushed: 100}
	p := NewPool(v, 3, g)
	// Oldest page is dirty; middle clean; eviction should take the clean
	// one even though the dirty one is older.
	d, _ := p.Get(start)
	d.MarkDirty(1)
	d.Release()
	c, _ := p.Get(start + 1)
	c.Release()
	x, _ := p.Get(start + 2)
	x.Release()
	y, _ := p.Get(start + 3) // forces one eviction
	y.Release()
	if !p.Contains(start) {
		t.Error("dirty page evicted while clean victim existed")
	}
	if p.Contains(start + 1) {
		t.Error("clean LRU victim survived")
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	v, start := newVolWithBlocks(t, 4)
	p := NewPool(v, 2, nil)
	a, _ := p.Get(start)
	b, _ := p.Get(start + 1)
	done := make(chan error, 1)
	go func() {
		c, err := p.Get(start + 2) // must wait for a release
		if err == nil {
			c.Release()
		}
		done <- err
	}()
	select {
	case <-done:
		t.Fatal("Get succeeded with all pages pinned")
	case <-time.After(50 * time.Millisecond):
	}
	a.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never unblocked after release")
	}
	b.Release()
}

func TestReleaseUnpinnedPanics(t *testing.T) {
	v, start := newVolWithBlocks(t, 1)
	p := NewPool(v, 4, nil)
	pg, _ := p.Get(start)
	pg.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	pg.Release()
}

func TestPrefetchUsesBulkIO(t *testing.T) {
	v, start := newVolWithBlocks(t, 14)
	p := NewPool(v, 32, nil)
	var bns []disk.BlockNum
	for i := 0; i < 14; i++ {
		bns = append(bns, start+disk.BlockNum(i))
	}
	p.Prefetch(bns, Sequential)
	p.WaitPrefetch()
	s := v.Stats()
	// 14 contiguous blocks = 2 bulk reads of 7, not 14 singles.
	if s.Reads != 2 || s.BulkReads != 2 {
		t.Errorf("prefetch I/O: %+v", s)
	}
	// All subsequent Gets are hits.
	v.ResetStats()
	for _, bn := range bns {
		pg, err := p.Get(bn)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	if v.Stats().Reads != 0 {
		t.Error("prefetched blocks re-read on Get")
	}
	if p.Stats().Hits != 14 {
		t.Errorf("hits = %d", p.Stats().Hits)
	}
}

func TestLoadRunSynchronous(t *testing.T) {
	v, start := newVolWithBlocks(t, 7)
	p := NewPool(v, 32, nil)
	var bns []disk.BlockNum
	for i := 0; i < 7; i++ {
		bns = append(bns, start+disk.BlockNum(i))
	}
	p.LoadRun(bns, Sequential)
	if v.Stats().Reads != 1 {
		t.Errorf("LoadRun issued %d reads, want 1 bulk", v.Stats().Reads)
	}
}

func TestPrefetchSkipsCachedBlocks(t *testing.T) {
	v, start := newVolWithBlocks(t, 7)
	p := NewPool(v, 32, nil)
	pg, _ := p.Get(start + 3)
	pg.Release()
	v.ResetStats()
	var bns []disk.BlockNum
	for i := 0; i < 7; i++ {
		bns = append(bns, start+disk.BlockNum(i))
	}
	p.LoadRun(bns, Sequential)
	s := v.Stats()
	// Block 3 cached → runs are [0..2] and [4..6]: two bulk reads, 6 blocks.
	if s.Reads != 2 || s.BlocksRead != 6 {
		t.Errorf("runs not split around cached block: %+v", s)
	}
}

func TestPrefetchNonContiguous(t *testing.T) {
	v, start := newVolWithBlocks(t, 10)
	p := NewPool(v, 32, nil)
	bns := []disk.BlockNum{start, start + 5, start + 6}
	p.LoadRun(bns, Sequential)
	s := v.Stats()
	if s.Reads != 2 {
		t.Errorf("want 2 runs, got %d reads", s.Reads)
	}
}

func TestConcurrentGetSingleRead(t *testing.T) {
	v, start := newVolWithBlocks(t, 1)
	p := NewPool(v, 8, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pg, err := p.Get(start)
			if err != nil {
				t.Error(err)
				return
			}
			pg.Release()
		}()
	}
	wg.Wait()
	if r := v.Stats().Reads; r != 1 {
		t.Errorf("concurrent gets caused %d reads, want 1", r)
	}
}

func TestWriteBehindCoalesces(t *testing.T) {
	v, start := newVolWithBlocks(t, 14)
	g := &fakeGate{flushed: 100}
	p := NewPool(v, 32, g)
	// Dirty 14 contiguous blocks (audit already durable).
	for i := 0; i < 14; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[1] = 0xDD
		pg.MarkDirty(wal.LSN(i + 1))
		pg.Release()
	}
	v.ResetStats()
	n, err := p.WriteBehind()
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 {
		t.Errorf("wrote %d blocks, want 14", n)
	}
	s := v.Stats()
	if s.Writes != 2 || s.BulkWrites != 2 {
		t.Errorf("write-behind not coalesced: %+v", s)
	}
	if p.DirtyCount() != 0 {
		t.Error("pages still dirty after write-behind")
	}
	// Idempotent: nothing left to write.
	n, _ = p.WriteBehind()
	if n != 0 {
		t.Errorf("second write-behind wrote %d", n)
	}
}

func TestWriteBehindHonorsWALAge(t *testing.T) {
	v, start := newVolWithBlocks(t, 4)
	g := &fakeGate{flushed: 2}
	p := NewPool(v, 32, g)
	for i := 0; i < 4; i++ {
		pg, _ := p.Get(start + disk.BlockNum(i))
		pg.MarkDirty(wal.LSN(i + 1)) // LSNs 1..4; only ≤2 durable
		pg.Release()
	}
	n, err := p.WriteBehind()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("write-behind wrote %d unaged blocks, want 2", n)
	}
	if g.calls != 0 {
		t.Error("write-behind must not force audit flushes")
	}
}

func TestFlushAll(t *testing.T) {
	v, start := newVolWithBlocks(t, 4)
	g := &fakeGate{}
	p := NewPool(v, 32, g)
	for i := 0; i < 4; i++ {
		pg, _ := p.Get(start + disk.BlockNum(i))
		pg.Data()[2] = 0xBB
		pg.MarkDirty(wal.LSN(i + 1))
		pg.Release()
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if p.DirtyCount() != 0 {
		t.Error("dirty pages after FlushAll")
	}
	if g.flushed < 4 {
		t.Error("FlushAll skipped the WAL gate")
	}
	buf := make([]byte, disk.BlockSize)
	if err := v.Read(start+3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[2] != 0xBB {
		t.Error("FlushAll lost data")
	}
}

func TestCrashDropsDirtyPages(t *testing.T) {
	v, start := newVolWithBlocks(t, 2)
	g := &fakeGate{flushed: 100}
	p := NewPool(v, 8, g)
	pg, _ := p.Get(start)
	pg.Data()[0] = 0x55
	pg.MarkDirty(1)
	pg.Release()
	p.Crash()
	if p.Len() != 0 {
		t.Error("pages survived crash")
	}
	buf := make([]byte, disk.BlockSize)
	if err := v.Read(start, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] == 0x55 {
		t.Error("unflushed update reached disk despite crash")
	}
}

// blockingGate is a WAL gate whose first FlushTo parks until released,
// holding its caller — a loader cleaning a dirty victim — inside
// makeRoomLocked with the shard mutex dropped.
type blockingGate struct {
	fakeGate
	parked  atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *blockingGate) FlushTo(lsn wal.LSN) {
	if g.parked.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	g.fakeGate.FlushTo(lsn)
}

// TestOneLoaderPerBlock pins the lost update of PR 18: a loader stuck in
// makeRoomLocked (its in-flight entry already retired, at the time) let a
// second miss on the same block read it again and install a Page, which
// a writer modified and released; the first loader then woke and put its
// own, stale Page over it in the page table. Whichever way the two Gets
// interleave, one Page for the block must be reachable afterwards and it
// must carry the modification.
func TestOneLoaderPerBlock(t *testing.T) {
	v, start := newVolWithBlocks(t, 3)
	g := &blockingGate{entered: make(chan struct{}), release: make(chan struct{})}
	p := NewPoolOpts(v, 2, g, Options{Shards: 1})
	// Both slots dirty with audit that is not durable: the next miss has
	// to clean a victim through the gate.
	for i := 0; i < 2; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.MarkDirty(wal.LSN(i + 1))
		pg.Release()
	}
	bn := start + 2
	first := make(chan *Page, 1)
	go func() {
		pg, err := p.Get(bn)
		if err != nil {
			t.Error(err)
		}
		first <- pg
	}()
	<-g.entered // the first loader has read bn and is parked making room

	second := make(chan *Page, 1)
	go func() {
		pg, err := p.Get(bn)
		if err != nil {
			t.Error(err)
			second <- nil
			return
		}
		pg.Data()[0] = 0xEE
		pg.MarkDirty(3)
		second <- pg
	}()
	// The second Get either waits for the first load (it must not read
	// the block again) or, were it allowed through, finishes long before
	// this expires; only then is the first loader let go.
	var pg2 *Page
	select {
	case pg2 = <-second:
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	pg1 := <-first
	if pg2 == nil {
		pg2 = <-second
	}
	if pg1 == nil || pg2 == nil {
		t.FailNow()
	}
	if pg1 != pg2 {
		t.Errorf("two Gets of block %d pinned two different pages", bn)
	}
	pg1.Release()
	pg2.Release()

	s := p.shards[0]
	s.lock()
	reachable := 0
	for _, l := range [2]*lruList{&s.prot, &s.prob} {
		for pg := l.head; pg != nil; pg = pg.next {
			if pg.bn == bn {
				reachable++
			}
		}
	}
	resident := s.pages[bn]
	s.mu.Unlock()
	if reachable != 1 {
		t.Errorf("%d pages for block %d on the LRU lists, want 1", reachable, bn)
	}
	if resident == nil || resident.data[0] != 0xEE || !resident.dirty {
		t.Errorf("the resident page of block %d lost the update", bn)
	}
	if n := v.Stats().Reads; n != 3 {
		t.Errorf("%d disk reads, want 3: the block was read twice", n)
	}
}
