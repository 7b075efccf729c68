package btree

import (
	"nonstopsql/internal/cache"
	"nonstopsql/internal/keys"
)

// Count returns the number of records in r.
func (t *Tree) Count(r keys.Range) (int, error) {
	n := 0
	err := t.scan(r, cache.Keyed, nil, func(run Run) (bool, error) {
		n += run.Len()
		return true, nil
	})
	return n, err
}
