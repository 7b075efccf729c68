// Package obs is the observability layer for the FS-DP request path:
// lock-free latency histograms and the wire's traffic counters. The
// paper's claims are message-traffic claims, and the experiments that
// reproduce them are only as good as the instrument — this package is
// that instrument. It has no dependencies so every layer (msg, fs, dp,
// sql) can record into it without import cycles.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram resolution: bucket i counts durations in
// [2^(i-1), 2^i) nanoseconds (bucket 0 holds <= 1ns, the last bucket is
// open-ended). 48 buckets span one nanosecond to ~3.2 days, enough for
// any conversation the simulation can have.
const NumBuckets = 48

// bucketOf maps a nanosecond duration to its power-of-two bucket.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumBuckets {
		return NumBuckets - 1
	}
	return b
}

// bucketBounds returns the [lo, hi] nanosecond range bucket i covers.
func bucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 1
	}
	return int64(1) << (i - 1), int64(1)<<i - 1
}

// A Histogram is a lock-free latency histogram: power-of-two buckets
// with atomic counters. Record is wait-free and safe from any number of
// goroutines; Snapshot returns a mergeable value-type copy. The zero
// value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64 // total recorded nanoseconds
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.counts[bucketOf(int64(d))].Add(1)
	h.sum.Add(int64(d))
}

// Snapshot copies the histogram's current state. The snapshot is
// internally consistent enough for quantile math: each bucket count is
// an atomic load, so a concurrent Record may or may not be included,
// but no count is ever torn.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	return s
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Records; intended for between-measurement-run resets.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// A Snapshot is a point-in-time copy of a Histogram: a plain value that
// can be merged (Add), differenced (Sub), and queried for quantiles.
type Snapshot struct {
	Counts [NumBuckets]uint64
	Sum    int64 // total recorded nanoseconds
}

// Count returns the number of observations.
func (s Snapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Add merges o into s: the result is the histogram of both observation
// sets together.
func (s *Snapshot) Add(o Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
}

// Sub removes an earlier snapshot, leaving the observations recorded in
// between (counter-style delta).
func (s *Snapshot) Sub(o Snapshot) {
	for i := range s.Counts {
		s.Counts[i] -= o.Counts[i]
	}
	s.Sum -= o.Sum
}

// Quantile returns the q-th quantile (0 <= q <= 1) with linear
// interpolation inside the landing bucket. The answer is exact to within
// a factor of two (the bucket width); p50/p95/p99 of message latencies
// is what it exists for.
func (s Snapshot) Quantile(q float64) time.Duration {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum = next
	}
	_, hi := bucketBounds(NumBuckets - 1)
	return time.Duration(hi)
}

// String renders the headline percentiles, e.g.
// "n=128 p50=84µs p95=210µs p99=340µs".
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v",
		s.Count(), s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
}
