package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41}, {1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for i := 1; i < NumBuckets-1; i++ {
		lo, hi := bucketBounds(i)
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Errorf("bucket %d bounds [%d,%d] do not map back", i, lo, hi)
		}
		if bucketOf(hi+1) != i+1 {
			t.Errorf("bucket %d high bound+1 maps to %d", i, bucketOf(hi+1))
		}
	}
}

func TestQuantileBasics(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	// 100 observations at ~1µs, 1 at ~1ms: p50 must sit in the µs
	// bucket, p99+ may reach toward the ms outlier.
	for i := 0; i < 100; i++ {
		h.Record(time.Microsecond)
	}
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if n := s.Count(); n != 101 {
		t.Fatalf("count = %d, want 101", n)
	}
	p50 := s.Quantile(0.50)
	if p50 < 512*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs", p50)
	}
	// Quantiles must be monotone in q.
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%v) = %v < previous %v", q, v, prev)
		}
		prev = v
	}
	if want := int64(100*time.Microsecond + time.Millisecond); s.Sum != want {
		t.Errorf("sum = %v, want %v", time.Duration(s.Sum), time.Duration(want))
	}
}

func TestSnapshotSub(t *testing.T) {
	var h Histogram
	h.Record(100)
	before := h.Snapshot()
	h.Record(200)
	h.Record(300)
	after := h.Snapshot()
	after.Sub(before)
	if after.Count() != 2 {
		t.Errorf("delta count = %d, want 2", after.Count())
	}
	if after.Sum != 500 {
		t.Errorf("delta sum = %d, want 500", after.Sum)
	}
}

// TestMergePropertyConcurrent is the satellite property test: G
// goroutines record the same observations into per-goroutine histograms
// and one shared histogram concurrently; the merge of the per-goroutine
// snapshots must equal the shared snapshot bucket for bucket.
func TestMergePropertyConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	var shared Histogram
	parts := make([]Histogram, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < perG; i++ {
				ns := rng.Int63n(int64(10 * time.Millisecond))
				parts[g].Record(time.Duration(ns))
				shared.Record(time.Duration(ns))
			}
		}(g)
	}
	wg.Wait()

	var merged Snapshot
	for g := range parts {
		merged.Add(parts[g].Snapshot())
	}
	got := shared.Snapshot()
	if merged != got {
		t.Fatalf("merged per-goroutine snapshots != shared snapshot:\nmerged: counts=%v sum=%d\nshared: counts=%v sum=%d",
			merged.Counts, merged.Sum, got.Counts, got.Sum)
	}
	if n := merged.Count(); n != goroutines*perG {
		t.Fatalf("merged count = %d, want %d", n, goroutines*perG)
	}
}

// TestWireStatsAddCarriesSocketCalls: the per-endpoint snapshots sum
// field for field, the socket calls included, and frames per write is
// taken over the sum.
func TestWireStatsAddCarriesSocketCalls(t *testing.T) {
	var a, b Wire
	for i := 0; i < 6; i++ {
		a.FrameOut(10)
	}
	a.SocketWrite()
	a.SocketWrite()
	a.SocketRead()
	b.FrameOut(10)
	b.FrameOut(10)
	b.SocketWrite()
	b.SocketWrite()
	b.SocketRead()
	b.SocketRead()
	sum := a.Snapshot()
	sum.Add(b.Snapshot())
	if sum.Writes != 4 || sum.Reads != 3 || sum.FramesOut != 8 || sum.FramesPerWrite() != 2 {
		t.Fatalf("summed wire stats %+v, %.2f frames per write; want 8 frames in 4 writes, 3 reads", sum, sum.FramesPerWrite())
	}
	if (WireStats{}).FramesPerWrite() != 0 {
		t.Fatal("frames per write before the first write is not 0")
	}
}
