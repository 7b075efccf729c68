package cache

import (
	"math/rand"
	"testing"
	"time"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/wal"
)

func TestShardCountDefaults(t *testing.T) {
	v, _ := newVolWithBlocks(t, 1)
	cases := []struct {
		capacity, want int
	}{
		{2, 1}, {8, 1}, {32, 1}, {255, 1},
		{256, 2}, {1024, 8}, {2048, 16}, {4096, 16},
	}
	for _, c := range cases {
		p := NewPool(v, c.capacity, nil)
		if got := len(p.shards); got != c.want {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.want)
		}
	}
}

func TestShardCountExplicit(t *testing.T) {
	v, _ := newVolWithBlocks(t, 1)
	// Rounded down to a power of two.
	if p := NewPoolOpts(v, 1024, nil, Options{Shards: 6}); len(p.shards) != 4 {
		t.Errorf("6 shards rounded to %d, want 4", len(p.shards))
	}
	// Clamped so each shard holds at least 2 pages.
	if p := NewPoolOpts(v, 8, nil, Options{Shards: 16}); len(p.shards) != 4 {
		t.Errorf("16 shards over capacity 8 gave %d, want 4", len(p.shards))
	}
	// Shard capacities sum to the pool capacity.
	p := NewPoolOpts(v, 1000, nil, Options{Shards: 8})
	sum := 0
	for _, s := range p.shards {
		sum += s.capacity
	}
	if sum != 1000 {
		t.Errorf("shard capacities sum to %d, want 1000", sum)
	}
}

func TestShardedPoolBasics(t *testing.T) {
	v, start := newVolWithBlocks(t, 64)
	p := NewPoolOpts(v, 32, nil, Options{Shards: 4})
	// Fill past capacity; every shard must stay within its slice.
	for i := 0; i < 64; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	if p.Len() > 32 {
		t.Errorf("pool over capacity: %d", p.Len())
	}
	for _, s := range p.shards {
		s.mu.Lock()
		if len(s.pages) > s.capacity {
			t.Errorf("shard over capacity: %d > %d", len(s.pages), s.capacity)
		}
		s.mu.Unlock()
	}
	if got := p.Stats().Shards; got != 4 {
		t.Errorf("Stats.Shards = %d", got)
	}
	if got := len(p.ShardWaitList()); got != 4 {
		t.Errorf("ShardWaitList len = %d", got)
	}
}

func TestShardWaitCounting(t *testing.T) {
	v, start := newVolWithBlocks(t, 8)
	p := NewPoolOpts(v, 8, nil, Options{Shards: 1})
	s := p.shards[0]
	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		pg, err := p.Get(start) // must block on the held shard mutex
		if err == nil {
			pg.Release()
		}
		close(done)
	}()
	// Wait until the contended acquisition is recorded, then let it in.
	deadline := time.Now().Add(2 * time.Second)
	for s.waits.Load() == 0 {
		if time.Now().After(deadline) {
			s.mu.Unlock()
			t.Fatal("contended lock never counted")
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Unlock()
	<-done
	if p.Stats().ShardWaits == 0 {
		t.Error("ShardWaits not aggregated")
	}
}

// TestScanResistance is the tentpole behavior in miniature: a keyed hot
// set stays cached while a much larger sequential stream floods past.
func TestScanResistance(t *testing.T) {
	v, start := newVolWithBlocks(t, 128)
	p := NewPoolOpts(v, 16, nil, Options{Shards: 1})
	// Establish an 8-block keyed hot set with a second touch so each
	// page is warm in the protected segment.
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			pg, err := p.GetClass(start+disk.BlockNum(i), Keyed)
			if err != nil {
				t.Fatal(err)
			}
			pg.Release()
		}
	}
	// A 120-block sequential scan: far larger than the pool.
	for i := 8; i < 128; i++ {
		pg, err := p.GetClass(start+disk.BlockNum(i), Sequential)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	// The hot set must have survived in the protected segment.
	for i := 0; i < 8; i++ {
		if !p.Contains(start + disk.BlockNum(i)) {
			t.Fatalf("hot block %d evicted by sequential flood", i)
		}
	}
}

// TestPlainLRUFloods is the ablation control: with PlainLRU the same
// flood evicts the hot set.
func TestPlainLRUFloods(t *testing.T) {
	v, start := newVolWithBlocks(t, 128)
	p := NewPoolOpts(v, 16, nil, Options{Shards: 1, PlainLRU: true})
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			pg, err := p.GetClass(start+disk.BlockNum(i), Keyed)
			if err != nil {
				t.Fatal(err)
			}
			pg.Release()
		}
	}
	for i := 8; i < 128; i++ {
		pg, err := p.GetClass(start+disk.BlockNum(i), Sequential)
		if err != nil {
			t.Fatal(err)
		}
		pg.Release()
	}
	for i := 0; i < 8; i++ {
		if p.Contains(start + disk.BlockNum(i)) {
			t.Fatalf("plain LRU kept hot block %d through a flood", i)
		}
	}
}

// TestKeyedTouchPromotes checks the probation → protected promotion: a
// sequentially filled block that a keyed reader touches joins the hot
// set and survives a later flood.
func TestKeyedTouchPromotes(t *testing.T) {
	v, start := newVolWithBlocks(t, 128)
	p := NewPoolOpts(v, 16, nil, Options{Shards: 1})
	// Sequential fill, then one keyed touch.
	pg, err := p.GetClass(start, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	pg, err = p.GetClass(start, Keyed)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	if p.Stats().Promotions == 0 {
		t.Fatal("keyed touch of probation page not counted as promotion")
	}
	for i := 1; i < 128; i++ {
		q, err := p.GetClass(start+disk.BlockNum(i), Sequential)
		if err != nil {
			t.Fatal(err)
		}
		q.Release()
	}
	if !p.Contains(start) {
		t.Error("promoted page evicted by sequential flood")
	}
}

func TestAccessClassStats(t *testing.T) {
	v, start := newVolWithBlocks(t, 4)
	p := NewPool(v, 8, nil)
	pg, _ := p.GetClass(start, Keyed)
	pg.Release()
	pg, _ = p.GetClass(start, Keyed)
	pg.Release()
	pg, _ = p.GetClass(start+1, Sequential)
	pg.Release()
	pg, _ = p.GetClass(start+1, Sequential)
	pg.Release()
	s := p.Stats()
	if s.KeyedMisses != 1 || s.KeyedHits != 1 || s.SeqMisses != 1 || s.SeqHits != 1 {
		t.Errorf("class stats %+v", s)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("totals %+v", s)
	}
}

// TestPrefetchFanoutBounded is the satellite: a 10k-block pre-fetch
// must stay within the PrefetchParallel worker cap instead of spawning
// one goroutine per run.
func TestPrefetchFanoutBounded(t *testing.T) {
	v := disk.NewVolume("$DATA", false)
	const n = 10000
	start := v.AllocateRun(n)
	buf := make([]byte, disk.BlockSize)
	for i := 0; i < n; i++ {
		if err := v.Write(start+disk.BlockNum(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPoolOpts(v, 2*n, nil, Options{Shards: 8})
	bns := make([]disk.BlockNum, n)
	for i := range bns {
		bns[i] = start + disk.BlockNum(i)
	}
	p.Prefetch(bns, Sequential)
	p.WaitPrefetch()
	s := p.Stats()
	if s.PrefetchPeak == 0 {
		t.Fatal("no prefetch workers observed")
	}
	if s.PrefetchPeak > PrefetchParallel {
		t.Errorf("prefetch fan-out %d exceeds cap %d", s.PrefetchPeak, PrefetchParallel)
	}
	if s.PrefetchedBlocks != n {
		t.Errorf("prefetched %d blocks, want %d", s.PrefetchedBlocks, n)
	}
}

// TestPrefetchOpsCountsPartialRuns is the satellite: a run whose bulk
// read succeeded counts in PrefetchOps even when installs fail because
// the pool is saturated with pinned pages.
func TestPrefetchOpsCountsPartialRuns(t *testing.T) {
	v, start := newVolWithBlocks(t, 10)
	p := NewPool(v, 2, nil)
	// Pin both slots so installs cannot make room.
	a, err := p.Get(start + 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get(start + 9)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.LoadRun([]disk.BlockNum{start, start + 1, start + 2}, Sequential)
		close(done)
	}()
	// The loader blocks in makeRoom waiting for a release; the bulk read
	// itself already succeeded, so once we release it must count.
	time.Sleep(20 * time.Millisecond)
	a.Release()
	b.Release()
	<-done
	if ops := p.Stats().PrefetchOps; ops != 1 {
		t.Errorf("PrefetchOps = %d, want 1 (partial run dropped)", ops)
	}
}

// dirtyBlocks gets the blocks start+from … start+to-1 in order, stamps
// each with tag and marks block start+i dirty at LSN i+1.
func dirtyBlocks(t *testing.T, p *Pool, start disk.BlockNum, from, to int, tag byte) {
	t.Helper()
	for i := from; i < to; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[1] = tag
		pg.MarkDirty(wal.LSN(i + 1))
		pg.Release()
	}
}

// TestNudgeWithFreeSlotsWritesNothing: a pool that has not filled has
// nothing to keep clean for eviction, so a nudge writes no page, aged or
// not; the all-aged pass still writes them all.
func TestNudgeWithFreeSlotsWritesNothing(t *testing.T) {
	v, start := newVolWithBlocks(t, 8)
	p := NewPool(v, 32, &fakeGate{flushed: 100})
	dirtyBlocks(t, p, start, 0, 8, 0xAA)
	p.NudgeWriter() // no writer running: the windowed pass, synchronously
	if st := p.Stats(); st.WriteBehindBlocks != 0 || st.WriterPasses != 0 || p.DirtyCount() != 8 {
		t.Fatalf("a nudge with 24 free slots wrote: %+v, %d dirty", st, p.DirtyCount())
	}
	if n, err := p.WriteBehind(); n != 8 || err != nil {
		t.Fatalf("WriteBehind wrote %d (%v), want all 8 aged pages", n, err)
	}
}

// TestNudgeCleansTheEvictionEnd: at capacity a nudge writes the aged
// dirty pages in the window at the victim end — a quarter of the slots —
// and nothing else. A page touched before every nudge stays at the head
// of the LRU, dirty and never written, while every miss finds a clean
// victim: no eviction waits on a write.
func TestNudgeCleansTheEvictionEnd(t *testing.T) {
	v, start := newVolWithBlocks(t, 16)
	p := NewPool(v, 8, &fakeGate{flushed: 100})
	dirtyBlocks(t, p, start, 0, 8, 0xAA) // LRU head→tail: 7 … 0
	p.NudgeWriter()
	if st := p.Stats(); st.WriteBehindBlocks != 2 || st.WriteBehindOps != 1 {
		t.Fatalf("first nudge: %+v, want the two tail blocks in one bulk write", st)
	}
	for i := 0; i < 8; i++ {
		if dirty, want := p.IsDirty(start+disk.BlockNum(i)), i >= 2; dirty != want {
			t.Errorf("block %d dirty=%v after the first nudge, want %v", i, dirty, want)
		}
	}

	const hot = 7
	for i := 8; i < 16; i++ {
		dirtyBlocks(t, p, start, hot, hot+1, 0xBB) // touched every pass
		dirtyBlocks(t, p, start, i, i+1, 0xCC)     // a miss: evicts the clean tail
		p.NudgeWriter()
	}
	st := p.Stats()
	if st.DirtyEvictions != 0 || st.WALStalls != 0 || st.Evictions != 8 {
		t.Fatalf("%+v: want 8 clean evictions and no write on the eviction path", st)
	}
	// One window page per round: the page that took the evicted one's place.
	if st.WriteBehindBlocks != 2+8 {
		t.Errorf("wrote %d blocks, want 10", st.WriteBehindBlocks)
	}
	if !p.IsDirty(start + hot) {
		t.Error("the hot page was cleaned")
	}
	buf := make([]byte, disk.BlockSize)
	if err := v.Read(start+hot, buf); err != nil {
		t.Fatal(err)
	}
	if buf[1] != 0 {
		t.Errorf("the hot page reached disk (byte %#x): it was written while in use", buf[1])
	}
}

// TestBackgroundWriterCleansTheEvictionEnd: the running writer passes
// when a nudge finds the durable LSN advanced, or its tick finds that the
// pool evicted, and a pass writes only aged pages in the window.
func TestBackgroundWriterCleansTheEvictionEnd(t *testing.T) {
	v, start := newVolWithBlocks(t, 9)
	g := &fakeGate{flushed: 0}
	p := NewPool(v, 8, g)
	p.StartWriter(time.Hour) // tick effectively disabled: nudges only
	defer p.StopWriter()
	dirtyBlocks(t, p, start, 0, 8, 0xAA)
	waitFor := func(blocks uint64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); p.Stats().WriteBehindBlocks < blocks; {
			if time.Now().After(deadline) {
				t.Fatalf("the writer wrote %d blocks, want %d", p.Stats().WriteBehindBlocks, blocks)
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // and nothing more
		if got := p.Stats().WriteBehindBlocks; got != blocks {
			t.Fatalf("the writer wrote %d blocks, want %d", got, blocks)
		}
	}

	// Nothing durable yet: a nudge must not write anything.
	p.NudgeWriter()
	waitFor(0)
	// A commit lands: the durable LSN advances, the window is written.
	g.FlushTo(8)
	p.NudgeWriter()
	waitFor(2)
	// A miss evicts the clean tail and the window moves one page up. Its
	// nudge finds nothing newly durable; the tick finds the eviction.
	pg, err := p.Get(start + 8)
	if err != nil {
		t.Fatal(err)
	}
	pg.Release()
	p.NudgeWriter()
	waitFor(2)
	p.StopWriter()
	p.StartWriter(time.Millisecond)
	waitFor(3)
	if st := p.Stats(); st.DirtyEvictions != 0 || p.DirtyCount() != 5 {
		t.Errorf("%+v, %d dirty: want no dirty eviction and 5 dirty pages", st, p.DirtyCount())
	}
}

// TestRandomUpdatesWriteLessThanTheyDirty is the txn-file shape at the
// pool: random keyed updates, each committed and followed by a nudge, on
// a pool 2.5 times smaller than the blocks it serves. No eviction waits
// on a write or the WAL, fewer blocks are written than updates made, and
// the volume ends up holding every update.
func TestRandomUpdatesWriteLessThanTheyDirty(t *testing.T) {
	const nblocks, updates = 100, 2000
	v, start := newVolWithBlocks(t, nblocks)
	g := &fakeGate{}
	p := NewPool(v, nblocks*2/5, g)
	model := make([]byte, nblocks)
	rng := rand.New(rand.NewSource(1))
	for lsn := wal.LSN(1); lsn <= updates; lsn++ {
		b := rng.Intn(nblocks)
		pg, err := p.Get(start + disk.BlockNum(b))
		if err != nil {
			t.Fatal(err)
		}
		model[b]++
		pg.Data()[1] = model[b]
		pg.MarkDirty(lsn)
		pg.Release()
		g.FlushTo(lsn) // the commit
		p.NudgeWriter()
	}
	st := p.Stats()
	t.Logf("%d updates: %d blocks written in %d writes, %d evictions", updates, st.WriteBehindBlocks, st.WriteBehindOps, st.Evictions)
	if st.DirtyEvictions != 0 || st.WALStalls != 0 {
		t.Errorf("%d dirty evictions, %d WAL stalls: want none", st.DirtyEvictions, st.WALStalls)
	}
	if st.WriteBehindBlocks >= updates {
		t.Errorf("%d blocks written for %d updates", st.WriteBehindBlocks, updates)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, disk.BlockSize)
	for b := range model {
		if err := v.Read(start+disk.BlockNum(b), buf); err != nil {
			t.Fatal(err)
		}
		if buf[1] != model[b] {
			t.Errorf("block %d holds %d on disk, want %d", b, buf[1], model[b])
		}
	}
}

func TestStopWriterIdempotent(t *testing.T) {
	v, _ := newVolWithBlocks(t, 1)
	p := NewPool(v, 8, nil)
	p.StopWriter() // no writer: no-op
	p.StartWriter(0)
	p.StartWriter(0) // idempotent while running
	p.StopWriter()
	p.StopWriter()
	// NudgeWriter with no writer degrades to a synchronous pass.
	p.NudgeWriter()
}

func TestDrainWriter(t *testing.T) {
	v, start := newVolWithBlocks(t, 14)
	g := &fakeGate{flushed: 100}
	p := NewPool(v, 32, g)
	for i := 0; i < 14; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[1] = 0xD0
		pg.MarkDirty(wal.LSN(i + 1))
		pg.Release()
	}
	v.ResetStats()
	p.DrainWriter()
	if p.DirtyCount() != 0 {
		t.Error("aged pages survived DrainWriter")
	}
	// Drain preserves bulk coalescing (14 contiguous = 2 bulk writes)
	// and never forces the gate.
	s := v.Stats()
	if s.Writes != 2 || s.BulkWrites != 2 {
		t.Errorf("drain not coalesced: %+v", s)
	}
	if g.calls != 0 {
		t.Error("DrainWriter forced an audit flush")
	}
}

// TestWriteBehindPointNeedsAClaim: the cache/write-behind crash point is
// reached only by a pass that claimed a page, so a crash armed there
// always lands between a claim and its write, never in an empty pass.
func TestWriteBehindPointNeedsAClaim(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	v, start := newVolWithBlocks(t, 8)
	p := NewPool(v, 8, &fakeGate{flushed: 100})
	dirtyBlocks(t, p, start, 0, 4, 0xAA)
	claimed := -1
	fault.Arm(fault.CacheWriteBehind, 0, func() { claimed = p.DirtyCount() })
	fault.Enable()
	p.NudgeWriter() // four free slots: the window is empty
	if hits := fault.Hits(fault.CacheWriteBehind); hits != 0 {
		t.Fatalf("an empty pass reached the point %d times", hits)
	}
	if n, err := p.WriteBehind(); n != 4 || err != nil {
		t.Fatal(n, err)
	}
	if !fault.Fired(fault.CacheWriteBehind) || claimed != 0 {
		t.Fatalf("fired=%v with %d pages left dirty, want it fired with all 4 claimed", fault.Fired(fault.CacheWriteBehind), claimed)
	}
}
