package expr

import (
	"encoding/binary"
	"fmt"
)

// DecodeAssignments parses a serialized SET list into the tree form the
// requester builds: the reference a SetList is held to. The Disk Process
// decodes SET lists into a SetList.
func DecodeAssignments(b []byte) ([]Assignment, error) {
	if len(b) == 0 {
		return nil, nil
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("expr: bad assignment header")
	}
	b = b[sz:]
	// n is untrusted; an assignment is a field, a length and at least one
	// byte of expression.
	if n > uint64(len(b))/3 {
		return nil, fmt.Errorf("expr: %d assignments in %d bytes", n, len(b))
	}
	out := make([]Assignment, 0, n)
	for i := uint64(0); i < n; i++ {
		f, sz, err := ordinal(b)
		if err != nil {
			return nil, err
		}
		b = b[sz:]
		l, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < l {
			return nil, fmt.Errorf("expr: bad assignment body")
		}
		b = b[sz:]
		e, rest, err := decodeExpr(b[:l], maxDepth)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("expr: trailing assignment bytes")
		}
		out = append(out, Assignment{Field: f, E: e})
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("expr: %d trailing bytes after assignments", len(b))
	}
	return out, nil
}
