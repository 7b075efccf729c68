package expr

import (
	"cmp"
	"math"
	"strings"

	"nonstopsql/internal/record"
)

// A Program is a predicate compiled for the Disk Process's per-record
// loop: built once, when a Subset Control Block is opened, and run against
// every record of the conversation where it lies (record.View). The
// top-level AND is flattened into conjuncts; a conjunct of the form
// FIELD op CONSTANT (either order, a non-NULL constant) is a comparison on
// the encoded field — no record.Value is built to look at it — and every
// other shape is handed to eval unchanged.
//
// Satisfied is observably what evaluating the tree on the record is
// (satisfied over a View, which the tests keep as the reference): the same
// keep or reject and, on a type error, the same error. In particular
// every conjunct is evaluated on every record — eval's AND does not
// short-circuit, so `x < 2 AND name < 5` fails on a VARCHAR name even
// where x < 2 is false — and NULL rejects.
//
// A Program holds no per-record state: it may be shared. A nil *Program
// accepts every record.
type Program struct {
	conj []conjunct
}

// conjunct is one top-level AND factor: generic (eval decides), or the
// comparison "field idx op c".
type conjunct struct {
	generic Expr
	idx     int
	op      Op // as if the field stood on the left
	c       record.Value
	flipped bool // the constant stood on the left: it is named first in a type error
}

// Compile prepares pred. nil compiles to nil.
func Compile(pred Expr) *Program {
	if pred == nil {
		return nil
	}
	p := &Program{conj: make([]conjunct, 0, countAnd(pred))}
	if !p.add(pred) {
		// eval's AND checks that an operand is boolean only after it has
		// evaluated the operand's sibling, so with an operand that may be
		// something else (`5 AND x`, a bare column) which error surfaces
		// first depends on the tree's shape. Such a predicate is one
		// conjunct: the tree, as it is.
		p.conj = append(p.conj[:0], conjunct{generic: pred})
	}
	return p
}

// countAnd counts e's top-level AND factors. Unlike Conjuncts it counts a
// nil operand, which eval refuses.
func countAnd(e Expr) int {
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		return countAnd(b.L) + countAnd(b.R)
	}
	return 1
}

// add appends e's top-level AND factors, compiled, in evaluation order. It
// stops and reports false at one that may yield something other than a
// boolean.
func (p *Program) add(e Expr) bool {
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		return p.add(b.L) && p.add(b.R)
	}
	if !YieldsBool(e) {
		return false
	}
	p.conj = append(p.conj, compileConjunct(e))
	return true
}

// YieldsBool reports whether e evaluates to TRUE, FALSE, NULL or an
// error whatever the record: what an AND operand must be, and what no SUM
// may add up.
func YieldsBool(e Expr) bool {
	switch n := e.(type) {
	case Const:
		return n.V.IsNull() || n.V.Kind == record.TypeBool
	case Binary:
		switch n.Op {
		case OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE, OpAnd, OpOr, OpLike:
			return true
		}
	case Unary:
		switch n.Op {
		case OpNot, OpIsNull, OpIsNotNull:
			return true
		}
	}
	return false
}

func compileConjunct(e Expr) conjunct {
	if b, ok := e.(Binary); ok && OpEQ <= b.Op && b.Op <= OpGE {
		if f, ok := b.L.(FieldRef); ok {
			if c, ok := b.R.(Const); ok && !c.V.IsNull() {
				return conjunct{idx: f.Index, op: b.Op, c: c.V}
			}
		}
		if f, ok := b.R.(FieldRef); ok {
			if c, ok := b.L.(Const); ok && !c.V.IsNull() {
				return conjunct{idx: f.Index, op: flip(b.Op), c: c.V, flipped: true}
			}
		}
	}
	return conjunct{generic: e}
}

// Satisfied reports whether the predicate is TRUE for the record.
func (p *Program) Satisfied(v *record.View) (bool, error) {
	if p == nil {
		return true, nil
	}
	keep := true
	for i := range p.conj {
		ok, err := p.conj[i].test(v)
		if err != nil {
			return false, err
		}
		keep = keep && ok
	}
	return keep, nil
}

func (c *conjunct) test(v *record.View) (bool, error) {
	if c.generic != nil {
		return satisfied(c.generic, &fields{view: v})
	}
	if c.idx < 0 || c.idx >= v.Len() {
		return false, errEval("field ordinal %d out of range (row has %d fields)", c.idx, v.Len())
	}
	kind := v.Kind(c.idx)
	numeric := c.c.Kind == record.TypeInt || c.c.Kind == record.TypeFloat
	switch {
	case kind == 0:
		return false, nil // a comparison with NULL is NULL, which rejects
	case kind == record.TypeInt && numeric:
		return c.number(kind, uint64(v.Int(c.idx))), nil
	case kind == record.TypeFloat && numeric:
		return c.number(kind, math.Float64bits(v.Float(c.idx))), nil
	case kind != c.c.Kind:
		l, r := kind, c.c.Kind
		if c.flipped {
			l, r = r, l
		}
		return false, errEval("cannot compare %v with %v", l, r)
	case kind == record.TypeString:
		return c.op.holds(strings.Compare(v.Str(c.idx), c.c.S)), nil
	}
	// BOOLEAN: false before true
	return c.op.holds(cmp.Compare(b2i(v.Bool(c.idx)), b2i(c.c.B))), nil
}

// number judges a field that is a number, or NULL, against the conjunct's
// constant, which is a number: the field as a column holds it
// (record.NumericField), its type — zero for NULL — and an INTEGER's
// int64 or a FLOAT's float64 bits. The order is Value.Compare(field,
// constant), case by case, exact between an INTEGER and a FLOAT; a NaN on
// either side is unknown, as in eval, and rejects, and so does NULL.
func (c *conjunct) number(kind record.Type, bits uint64) bool {
	var order int
	switch {
	case kind == record.TypeInt && c.c.Kind == record.TypeInt:
		order = cmp.Compare(int64(bits), c.c.I)
	case kind == record.TypeInt:
		if c.c.F != c.c.F {
			return false
		}
		order = record.CompareIntFloat(int64(bits), c.c.F)
	case kind == record.TypeFloat:
		f := math.Float64frombits(bits)
		if f != f {
			return false
		}
		if c.c.Kind == record.TypeInt {
			order = -record.CompareIntFloat(c.c.I, f)
		} else {
			if c.c.F != c.c.F {
				return false
			}
			order = cmp.Compare(f, c.c.F)
		}
	default: // NULL
		return false
	}
	return c.op.holds(order)
}

// holds reports whether a comparison op holds between two values that
// order says how to order (cmp.Compare's answer).
func (op Op) holds(order int) bool {
	switch op {
	case OpEQ:
		return order == 0
	case OpNE:
		return order != 0
	case OpLT:
		return order < 0
	case OpLE:
		return order <= 0
	case OpGT:
		return order > 0
	}
	return order >= 0
}

// A ColumnTest is a compiled conjunct FIELD op CONSTANT whose constant is
// a number, judged on the field's entry in a column (record.NumericField:
// its type, zero for NULL, and an INTEGER's int64 or a FLOAT's float64
// bits). On a record whose field is an INTEGER, a FLOAT or NULL the
// conjunct cannot fail, and Test answers what it answers, by the same
// code (conjunct.number): NULL and a NaN on either side reject, and an
// INTEGER meets a FLOAT exactly.
type ColumnTest struct{ c conjunct }

// ColumnTests appends the program's conjuncts to dst as column tests and
// reports whether every one of them is one. When it is, the program keeps
// a record whose tested fields are all INTEGER, FLOAT or NULL exactly
// when every test passes, and never fails on it: the tests may be run in
// any order and stop at the first that rejects. A nil program has no
// conjuncts.
func (p *Program) ColumnTests(dst []ColumnTest) ([]ColumnTest, bool) {
	if p == nil {
		return dst, true
	}
	for _, c := range p.conj {
		if c.generic != nil || (c.c.Kind != record.TypeInt && c.c.Kind != record.TypeFloat) {
			return dst, false
		}
	}
	for _, c := range p.conj {
		dst = append(dst, ColumnTest{c})
	}
	return dst, true
}

// Field returns the ordinal of the field the test reads.
func (t *ColumnTest) Field() int { return t.c.idx }

// Test judges one column entry of the field.
func (t *ColumnTest) Test(kind record.Type, bits uint64) bool { return t.c.number(kind, bits) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
