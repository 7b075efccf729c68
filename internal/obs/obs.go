// Package obs is the observability layer for the FS-DP request path:
// lock-free latency histograms and per-operation trace records. The
// paper's claims are message-traffic claims, and the experiments that
// reproduce them are only as good as the instrument — this package is
// that instrument. It has no dependencies so every layer (msg, fs, dp,
// sql) can record into it without import cycles.
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
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
func (h *Histogram) Record(d time.Duration) { h.RecordNanos(int64(d)) }

// RecordNanos adds one observation given in nanoseconds.
func (h *Histogram) RecordNanos(ns int64) {
	h.counts[bucketOf(ns)].Add(1)
	h.sum.Add(ns)
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

// Mean returns the average observation, or 0 when empty.
func (s Snapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(n))
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

// A Trace records one FS-DP operation end to end: what was asked, how
// many messages it took, what the Disk Process did, and how long the
// requester waited. One Trace summarizes one conversation (a ^FIRST
// message and its re-drives), not one message.
type Trace struct {
	Op       string        // protocol operation, e.g. "GET^FIRST/NEXT^VSBB"
	Server   string        // Disk Process name, e.g. "$DATA1"
	SCB      uint32        // Subset Control Block id (0 = none opened)
	Redrives uint64        // continuation messages beyond the ^FIRST
	Examined uint64        // records the DP visited
	Selected uint64        // records that satisfied the predicate
	Returned uint64        // records shipped back to the requester
	Blocks   uint64        // physical blocks read serving the conversation
	Hits     uint64        // buffer-pool hits serving the conversation
	Dist     int           // message distance class (msg.Distance)
	Wall     time.Duration // requester wall time for the conversation
}

// String renders the trace on one line.
func (t Trace) String() string {
	return fmt.Sprintf("%s %s scb=%d redrives=%d rows=%d/%d/%d blocks=%d hits=%d dist=%d wall=%v",
		t.Op, t.Server, t.SCB, t.Redrives, t.Examined, t.Selected, t.Returned,
		t.Blocks, t.Hits, t.Dist, t.Wall)
}

// A Recorder collects traces (bounded ring) and per-operation latency
// histograms. Histogram recording is lock-free; the trace ring takes a
// short mutex (traces are per-conversation, not per-message, so the
// ring is off the hot path).
type Recorder struct {
	mu     sync.Mutex
	ring   []Trace
	next   int
	total  uint64
	histMu sync.RWMutex
	hists  map[string]*Histogram
}

// NewRecorder creates a recorder keeping the last capacity traces
// (default 256 when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &Recorder{ring: make([]Trace, 0, capacity), hists: make(map[string]*Histogram)}
}

// RecordTrace appends one trace, evicting the oldest when full, and
// records its wall time into the per-operation histogram.
func (r *Recorder) RecordTrace(t Trace) {
	r.Hist(t.Op).Record(t.Wall)
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, t)
	} else {
		r.ring[r.next] = t
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.total++
	r.mu.Unlock()
}

// Traces returns the retained traces, oldest first.
func (r *Recorder) Traces() []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, len(r.ring))
	if len(r.ring) == cap(r.ring) {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out
}

// TraceCount returns how many traces were ever recorded (including
// evicted ones).
func (r *Recorder) TraceCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Hist returns the named operation's histogram, creating it on first
// use. The returned histogram is shared: Record on it directly.
func (r *Recorder) Hist(op string) *Histogram {
	r.histMu.RLock()
	h, ok := r.hists[op]
	r.histMu.RUnlock()
	if ok {
		return h
	}
	r.histMu.Lock()
	defer r.histMu.Unlock()
	if h, ok = r.hists[op]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[op] = h
	return h
}

// Snapshots returns a snapshot of every per-operation histogram.
func (r *Recorder) Snapshots() map[string]Snapshot {
	r.histMu.RLock()
	defer r.histMu.RUnlock()
	out := make(map[string]Snapshot, len(r.hists))
	for op, h := range r.hists {
		out[op] = h.Snapshot()
	}
	return out
}

// Summary renders every operation's percentiles, one line each, sorted
// by operation name.
func (r *Recorder) Summary() string {
	snaps := r.Snapshots()
	ops := make([]string, 0, len(snaps))
	for op := range snaps {
		ops = append(ops, op)
	}
	sortStrings(ops)
	var sb strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&sb, "%-24s %s\n", op, snaps[op])
	}
	return sb.String()
}

// sortStrings is an allocation-free insertion sort; the op set is tiny.
func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
