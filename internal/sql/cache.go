package sql

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// planCacheShards and planCacheCap size the shared plan cache: power-of
// -two shards so the key hash distributes sessions' lookups without a
// global lock, and an LRU bound per shard so ad-hoc traffic with
// unbounded distinct texts cannot grow the cache without limit.
const (
	planCacheShards     = 16
	defaultPlanCacheCap = 1024 // entries, across all shards
)

// A PlanCache shares compiled statements across every session of a
// database, keyed by normalized statement text plus the session's
// pushdown setting. Each entry pins the catalog version it was compiled
// against; a lookup that finds an entry from an older catalog drops it
// (counted as an invalidation) and reports a miss, so DDL never
// resurrects a stale plan. Hits are counted both globally and per entry
// (the per-entry count feeds the EXPLAIN `plan: cached (hits=N)`
// annotation).
type PlanCache struct {
	seed   maphash.Seed
	perCap int // LRU bound per shard
	shards [planCacheShards]planShard

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

type planShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key → element whose Value is *Prepared
	lru     list.List                // front = most recently used
}

// NewPlanCache creates a cache bounded to cap entries (0 = default).
func NewPlanCache(cap int) *PlanCache {
	if cap <= 0 {
		cap = defaultPlanCacheCap
	}
	perCap := (cap + planCacheShards - 1) / planCacheShards
	if perCap < 1 {
		perCap = 1
	}
	c := &PlanCache{seed: maphash.MakeSeed(), perCap: perCap}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
	}
	return c
}

// normalizeSQL canonicalizes statement text for cache keying: runs of
// whitespace collapse and a trailing semicolon drops, so "SELECT 1;"
// and "select  1" miss each other only on case (string literals make
// case folding unsafe). Text that is already canonical — what a program
// sends, statement after statement — comes back as it is, without
// being split and joined.
func normalizeSQL(src string) string {
	if normalized(src) {
		return src
	}
	s := strings.Join(strings.Fields(src), " ")
	s = strings.TrimSuffix(s, ";")
	return strings.TrimRight(s, " ")
}

// normalized reports whether normalizeSQL would return src unchanged: it
// is ASCII, its only white space is single blanks between words, and it
// does not end in a semicolon. It errs only towards false.
func normalized(src string) bool {
	if src == "" || src[0] == ' ' || src[len(src)-1] == ' ' || src[len(src)-1] == ';' {
		return src == ""
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c >= 0x80, c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			return false
		case c == ' ' && src[i-1] == ' ':
			return false
		}
	}
	return true
}

// planKey builds the full cache key: normalized text plus the pushdown
// variant, since the two settings compile to different plans.
func planKey(src string, pushdown bool) string {
	if pushdown {
		return normalizeSQL(src) + "\x00p"
	}
	return normalizeSQL(src) + "\x00r"
}

func (c *PlanCache) shard(key string) *planShard {
	h := maphash.String(c.seed, key)
	return &c.shards[h&(planCacheShards-1)]
}

// get returns the cached compilation for key when it is still valid
// against version. A stale entry is dropped and counted as an
// invalidation; hits count globally and on the entry.
func (c *PlanCache) get(key string, version uint64) (*Prepared, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	el, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	p := el.Value.(*Prepared)
	if p.version != version {
		sh.lru.Remove(el)
		delete(sh.entries, key)
		sh.mu.Unlock()
		c.invalidations.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	sh.mu.Unlock()
	c.hits.Add(1)
	p.hits.Add(1)
	return p, true
}

// put stores a compilation, evicting the shard's LRU entry at capacity.
// Counted as a miss: every put is a lookup that had to compile.
func (c *PlanCache) put(key string, p *Prepared) {
	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		// Another session compiled the same text concurrently; keep the
		// incumbent so per-entry hit counts keep accumulating.
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		c.misses.Add(1)
		return
	}
	sh.entries[key] = sh.lru.PushFront(p)
	var evicted bool
	for sh.lru.Len() > c.perCap {
		back := sh.lru.Back()
		old := back.Value.(*Prepared)
		sh.lru.Remove(back)
		delete(sh.entries, old.key)
		evicted = true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	if evicted {
		c.evictions.Add(1)
	}
}

// hit records a plan reuse that bypassed the lookup path (EXECUTE of a
// still-valid prepared statement).
func (c *PlanCache) hit(p *Prepared) {
	c.hits.Add(1)
	p.hits.Add(1)
}

// peek returns the entry for key without touching LRU order or any
// counter (EXPLAIN annotations).
func (c *PlanCache) peek(key string, version uint64) (*Prepared, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	p := el.Value.(*Prepared)
	if p.version != version {
		return nil, false
	}
	return p, true
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// PlanCacheStats is a point-in-time copy of the cache counters. Hits
// count every execution served by a reused compilation — cache lookups
// and EXECUTEs of still-valid prepared statements alike; misses count
// compilations of cacheable statements; invalidations count entries
// dropped because DDL moved the catalog version; evictions count LRU
// pressure drops.
type PlanCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Evictions     uint64
	Entries       int
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       c.Len(),
	}
}

// Reset zeroes the counters (entries stay cached).
func (c *PlanCache) Reset() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.invalidations.Store(0)
	c.evictions.Store(0)
}
