package cache

import "nonstopsql/internal/disk"

// Contains reports whether bn is cached.
func (p *Pool) Contains(bn disk.BlockNum) bool {
	s := p.shardFor(bn)
	s.lock()
	defer s.mu.Unlock()
	_, ok := s.pages[bn]
	return ok
}
