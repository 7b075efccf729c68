package cache

import "nonstopsql/internal/disk"

// LoadRun synchronously loads the given blocks with bulk reads, the way
// Prefetch's workers do, without the worker budget.
func (p *Pool) LoadRun(bns []disk.BlockNum, class AccessClass) {
	for _, r := range p.planRuns(bns) {
		p.loadRun(r, class)
	}
}

// IsDirty reports whether bn is cached with unflushed (or mid-flush)
// updates.
func (p *Pool) IsDirty(bn disk.BlockNum) bool {
	s := p.shardFor(bn)
	s.lock()
	defer s.mu.Unlock()
	pg, ok := s.pages[bn]
	return ok && (pg.dirty || pg.writing)
}

// ShardWaitList returns the per-shard contended-acquisition counts.
func (p *Pool) ShardWaitList() []uint64 {
	out := make([]uint64, len(p.shards))
	for i, sh := range p.shards {
		out[i] = sh.waits.Load()
	}
	return out
}
