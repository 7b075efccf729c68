package expr

import (
	"cmp"
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
	if kind == 0 {
		return false, nil // a comparison with NULL is NULL, which rejects
	}
	// order is Value.Compare(field, constant), case by case; a NaN on either
	// side is unknown, as in eval, and rejects.
	var order int
	switch {
	case kind == record.TypeInt && c.c.Kind == record.TypeInt:
		order = cmp.Compare(v.Int(c.idx), c.c.I)
	case kind == record.TypeInt && c.c.Kind == record.TypeFloat:
		if c.c.F != c.c.F {
			return false, nil
		}
		order = record.CompareIntFloat(v.Int(c.idx), c.c.F)
	case kind == record.TypeFloat && c.c.Kind == record.TypeInt:
		f := v.Float(c.idx)
		if f != f {
			return false, nil
		}
		order = -record.CompareIntFloat(c.c.I, f)
	case kind != c.c.Kind:
		l, r := kind, c.c.Kind
		if c.flipped {
			l, r = r, l
		}
		return false, errEval("cannot compare %v with %v", l, r)
	case kind == record.TypeFloat:
		f := v.Float(c.idx)
		if f != f || c.c.F != c.c.F {
			return false, nil
		}
		order = cmp.Compare(f, c.c.F)
	case kind == record.TypeString:
		order = strings.Compare(v.Str(c.idx), c.c.S)
	default: // BOOLEAN: false before true
		order = cmp.Compare(b2i(v.Bool(c.idx)), b2i(c.c.B))
	}
	switch c.op {
	case OpEQ:
		return order == 0, nil
	case OpNE:
		return order != 0, nil
	case OpLT:
		return order < 0, nil
	case OpLE:
		return order <= 0, nil
	case OpGT:
		return order > 0, nil
	}
	return order >= 0, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
