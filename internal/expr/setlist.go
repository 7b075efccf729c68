package expr

import (
	"encoding/binary"
	"fmt"

	"nonstopsql/internal/record"
)

// A SetList is a SET list decoded for the Disk Process, which runs it on
// one record or many: every right-hand side flattened into one postfix
// program. Decoding the next list into the same SetList reuses its
// arrays, so a keyed write's service slot and a Subset Control Block that
// own one decode without allocating once the arrays fit (a string
// constant is the exception: its value is copied out of the message).
//
// It is what DecodeAssignments decodes, run the way AppendAssignments
// runs it: the same bytes accepted and refused with the same errors, the
// same results and evaluation errors, in the same order — operands left
// to right, through the evaluator's own operators (unaryValue,
// binaryValue). FuzzExpr holds the two forms to each other. A SetList is
// used by one goroutine at a time; the zero SetList is the empty list.
type SetList struct {
	code  []step      // every right-hand side, in postfix, one after another
	sets  []setTarget // per assignment: the field it sets, where its code ends
	stack []record.Value
}

// A step is one postfix instruction: push a constant, push a field, fail
// on a parameter slot, or apply an operator to the top of the stack.
type step struct {
	tag uint8 // nodeConst, nodeField, nodeParam, nodeUnary or nodeBin
	op  Op
	idx int // field ordinal or parameter slot
	v   record.Value
}

type setTarget struct {
	field int
	end   int // the code of this assignment ends at code[end]
}

// Decode replaces s with the SET list b (EncodeAssignments). On an error
// s is the empty list.
func (s *SetList) Decode(b []byte) error {
	s.code, s.sets = s.code[:0], s.sets[:0]
	if err := s.decode(b); err != nil {
		s.code, s.sets = s.code[:0], s.sets[:0]
		return err
	}
	return nil
}

func (s *SetList) decode(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("expr: bad assignment header")
	}
	b = b[sz:]
	// n is untrusted; an assignment is a field, a length and at least one
	// byte of expression.
	if n > uint64(len(b))/3 {
		return fmt.Errorf("expr: %d assignments in %d bytes", n, len(b))
	}
	for i := uint64(0); i < n; i++ {
		f, sz, err := ordinal(b)
		if err != nil {
			return err
		}
		b = b[sz:]
		l, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < l {
			return fmt.Errorf("expr: bad assignment body")
		}
		b = b[sz:]
		rest, err := s.decodeSteps(b[:l], maxDepth)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("expr: trailing assignment bytes")
		}
		s.sets = append(s.sets, setTarget{field: f, end: len(s.code)})
		b = b[l:]
	}
	if len(b) != 0 {
		return fmt.Errorf("expr: %d trailing bytes after assignments", len(b))
	}
	return nil
}

// decodeSteps is decodeExpr emitting postfix: one node and its operands,
// which may nest depth levels further, with decodeExpr's checks and
// errors.
func (s *SetList) decodeSteps(b []byte, depth int) ([]byte, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("expr: truncated expression")
	}
	if depth == 0 {
		return nil, fmt.Errorf("expr: nested deeper than %d operators", maxDepth)
	}
	tag, rest := b[0], b[1:]
	switch tag {
	case nodeConst:
		v, rest, err := record.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		s.code = append(s.code, step{tag: nodeConst, v: v})
		return rest, nil
	case nodeField:
		idx, n, err := ordinal(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[n:]
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			return nil, fmt.Errorf("expr: bad field name")
		}
		s.code = append(s.code, step{tag: nodeField, idx: idx}) // the name is for diagnostics only
		return rest[n+int(l):], nil
	case nodeBin:
		if len(rest) == 0 {
			return nil, fmt.Errorf("expr: truncated binary op")
		}
		op := Op(rest[0])
		rest, err := s.decodeSteps(rest[1:], depth-1)
		if err != nil {
			return nil, err
		}
		if rest, err = s.decodeSteps(rest, depth-1); err != nil {
			return nil, err
		}
		s.code = append(s.code, step{tag: nodeBin, op: op})
		return rest, nil
	case nodeUnary:
		if len(rest) == 0 {
			return nil, fmt.Errorf("expr: truncated unary op")
		}
		op := Op(rest[0])
		rest, err := s.decodeSteps(rest[1:], depth-1)
		if err != nil {
			return nil, err
		}
		s.code = append(s.code, step{tag: nodeUnary, op: op})
		return rest, nil
	case nodeParam:
		if len(rest) == 0 {
			return nil, fmt.Errorf("expr: truncated parameter")
		}
		idx, n, err := ordinal(rest[1:])
		if err != nil {
			return nil, err
		}
		s.code = append(s.code, step{tag: nodeParam, idx: idx})
		return rest[1+n:], nil
	}
	return nil, fmt.Errorf("expr: unknown node tag %d", tag)
}

// Append is AppendAssignments with s: row with every assignment's value
// stored in it, appended to dst. Every right-hand side sees row as it is.
func (s *SetList) Append(dst, row record.Row) (record.Row, error) {
	start := len(dst)
	out := append(dst, row...)
	out = out[start:len(out):len(out)]
	from := 0
	for _, t := range s.sets {
		v, err := s.run(s.code[from:t.end], row)
		if err != nil {
			return nil, err
		}
		if t.field < 0 || t.field >= len(out) {
			return nil, errEval("assignment target %d out of range", t.field)
		}
		out[t.field] = v
		from = t.end
	}
	return out, nil
}

// run evaluates one right-hand side's code against row, on s's stack.
func (s *SetList) run(code []step, row record.Row) (record.Value, error) {
	st := s.stack[:0]
	defer func() { s.stack = st }()
	for _, c := range code {
		switch c.tag {
		case nodeConst:
			st = append(st, c.v)
		case nodeField:
			if c.idx >= len(row) {
				return record.Null, fieldOutOfRange(c.idx, len(row))
			}
			st = append(st, row[c.idx])
		case nodeParam:
			return record.Null, errParam(c.idx)
		case nodeUnary:
			v, err := unaryValue(c.op, st[len(st)-1])
			if err != nil {
				return record.Null, err
			}
			st[len(st)-1] = v
		case nodeBin:
			v, err := binaryValue(c.op, st[len(st)-2], st[len(st)-1])
			if err != nil {
				return record.Null, err
			}
			st = st[:len(st)-1]
			st[len(st)-1] = v
		}
	}
	return st[0], nil
}
