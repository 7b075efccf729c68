package expr

import (
	"encoding/binary"
	"fmt"

	"nonstopsql/internal/record"
)

// Wire node tags.
const (
	nodeConst = 1
	nodeField = 2
	nodeBin   = 3
	nodeUnary = 4
	nodeParam = 5
)

// Bounds on what Decode accepts. The bytes are a message off the network,
// so the decoder refuses shapes no encoder here produces before they cost
// anything.
const (
	// maxDepth caps operator nesting. decodeExpr recurses once per level,
	// and a stack overflow is fatal — no recover catches it — so 16 MiB of
	// unary operators must be an error. The SQL parser nests one level per
	// operator in a left-deep chain; the deepest compiled statement in the
	// tests, examples and benchmark nests under 20.
	maxDepth = 1024
	// maxOrdinal caps a field ordinal or parameter slot, which index a
	// record and a parameter vector of at most a few hundred entries.
	maxOrdinal = 1<<16 - 1
)

// Encode serializes an expression for the FS-DP wire. A nil expression
// encodes to an empty slice.
func Encode(e Expr) []byte {
	if e == nil {
		return nil
	}
	return appendExpr(nil, e)
}

func appendExpr(b []byte, e Expr) []byte {
	switch n := e.(type) {
	case Const:
		b = append(b, nodeConst)
		return record.AppendValue(b, n.V)
	case FieldRef:
		b = append(b, nodeField)
		b = binary.AppendUvarint(b, uint64(n.Index))
		b = binary.AppendUvarint(b, uint64(len(n.Name)))
		return append(b, n.Name...)
	case Binary:
		b = append(b, nodeBin, byte(n.Op))
		b = appendExpr(b, n.L)
		return appendExpr(b, n.R)
	case Unary:
		b = append(b, nodeUnary, byte(n.Op))
		return appendExpr(b, n.E)
	case Param:
		b = append(b, nodeParam, byte(n.Hint))
		return binary.AppendUvarint(b, uint64(n.Index))
	}
	panic(fmt.Sprintf("expr: cannot encode %T", e))
}

// Decode parses a serialized expression. An empty slice decodes to nil.
func Decode(b []byte) (Expr, error) {
	if len(b) == 0 {
		return nil, nil
	}
	e, rest, err := decodeExpr(b, maxDepth)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("expr: %d trailing bytes", len(rest))
	}
	return e, nil
}

// ordinal reads a field ordinal or parameter slot.
func ordinal(b []byte) (int, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > maxOrdinal {
		return 0, 0, fmt.Errorf("expr: bad ordinal")
	}
	return int(v), n, nil
}

// decodeExpr decodes one node and its operands, which may nest depth
// levels further.
func decodeExpr(b []byte, depth int) (Expr, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("expr: truncated expression")
	}
	if depth == 0 {
		return nil, nil, fmt.Errorf("expr: nested deeper than %d operators", maxDepth)
	}
	tag, rest := b[0], b[1:]
	switch tag {
	case nodeConst:
		v, rest, err := record.DecodeValue(rest)
		if err != nil {
			return nil, nil, err
		}
		return Const{V: v}, rest, nil
	case nodeField:
		idx, n, err := ordinal(rest)
		if err != nil {
			return nil, nil, err
		}
		rest = rest[n:]
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return nil, nil, fmt.Errorf("expr: bad field name")
		}
		name := string(rest[n : n+int(l)])
		return FieldRef{Index: idx, Name: name}, rest[n+int(l):], nil
	case nodeBin:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("expr: truncated binary op")
		}
		op := Op(rest[0])
		l, rest, err := decodeExpr(rest[1:], depth-1)
		if err != nil {
			return nil, nil, err
		}
		r, rest, err := decodeExpr(rest, depth-1)
		if err != nil {
			return nil, nil, err
		}
		return Binary{Op: op, L: l, R: r}, rest, nil
	case nodeUnary:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("expr: truncated unary op")
		}
		op := Op(rest[0])
		e, rest, err := decodeExpr(rest[1:], depth-1)
		if err != nil {
			return nil, nil, err
		}
		return Unary{Op: op, E: e}, rest, nil
	case nodeParam:
		if len(rest) == 0 {
			return nil, nil, fmt.Errorf("expr: truncated parameter")
		}
		hint := record.Type(rest[0])
		idx, n, err := ordinal(rest[1:])
		if err != nil {
			return nil, nil, err
		}
		return Param{Index: idx, Hint: hint}, rest[1+n:], nil
	}
	return nil, nil, fmt.Errorf("expr: unknown node tag %d", tag)
}

// EncodeAssignments serializes a SET list for the FS-DP wire.
func EncodeAssignments(as []Assignment) []byte {
	b := binary.AppendUvarint(nil, uint64(len(as)))
	for _, a := range as {
		b = binary.AppendUvarint(b, uint64(a.Field))
		sub := appendExpr(nil, a.E)
		b = binary.AppendUvarint(b, uint64(len(sub)))
		b = append(b, sub...)
	}
	return b
}

// DecodeAssignments parses a serialized SET list.
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
