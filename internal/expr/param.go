package expr

import (
	"fmt"

	"nonstopsql/internal/record"
)

// NumParams returns the number of parameter slots an expression needs:
// one past the highest Param index, 0 when the tree has none.
func NumParams(e Expr) int {
	n := 0
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case Param:
			if x.Index+1 > n {
				n = x.Index + 1
			}
		case Binary:
			walk(x.L)
			walk(x.R)
		case Unary:
			walk(x.E)
		}
	}
	if e != nil {
		walk(e)
	}
	return n
}

// HasParams reports whether the tree contains any parameter slot.
func HasParams(e Expr) bool { return NumParams(e) > 0 }

// Substitute returns e with every Param replaced by the corresponding
// constant from params. Subtrees without parameters are shared, not
// copied, so a cached plan template can be substituted on every
// execution without rebuilding the whole tree. Values are checked
// against each slot's type hint but never coerced — the substituted
// tree must evaluate exactly as if the value had been written as a
// literal.
func Substitute(e Expr, params []record.Value) (Expr, error) {
	out, _, err := subst(e, params)
	return out, err
}

func subst(e Expr, params []record.Value) (Expr, bool, error) {
	switch n := e.(type) {
	case Param:
		v, err := paramValue(n, params)
		if err != nil {
			return nil, false, err
		}
		return Const{V: v}, true, nil
	case Binary:
		l, cl, err := subst(n.L, params)
		if err != nil {
			return nil, false, err
		}
		r, cr, err := subst(n.R, params)
		if err != nil {
			return nil, false, err
		}
		if !cl && !cr {
			return e, false, nil
		}
		return Binary{Op: n.Op, L: l, R: r}, true, nil
	case Unary:
		sub, ch, err := subst(n.E, params)
		if err != nil {
			return nil, false, err
		}
		if !ch {
			return e, false, nil
		}
		return Unary{Op: n.Op, E: sub}, true, nil
	}
	return e, false, nil
}

// paramValue is the value params holds for slot p, checked against the
// slot's type hint.
// Value returns the argument p stands for in params, checked against its
// hint: what Substitute puts in its place.
func (p Param) Value(params []record.Value) (record.Value, error) { return paramValue(p, params) }

func paramValue(p Param, params []record.Value) (record.Value, error) {
	if p.Index < 0 || p.Index >= len(params) {
		return record.Null, errEval("parameter ?%d out of range (%d supplied)", p.Index+1, len(params))
	}
	v := params[p.Index]
	if err := CheckHint(p.Hint, v); err != nil {
		return record.Null, fmt.Errorf("%w in slot ?%d", err, p.Index+1)
	}
	return v, nil
}

// CheckHint validates a parameter value against a binder type hint.
// NULL satisfies any hint; numeric hints accept either numeric kind
// (comparison and key-range extraction both handle INT/FLOAT mixes).
func CheckHint(hint record.Type, v record.Value) error {
	if hint == 0 || v.IsNull() {
		return nil
	}
	numeric := func(t record.Type) bool {
		return t == record.TypeInt || t == record.TypeFloat
	}
	if v.Kind == hint || (numeric(hint) && numeric(v.Kind)) {
		return nil
	}
	return errEval("parameter of type %v where %v is expected", v.Kind, hint)
}

// SubstituteAssignments substitutes params into each assignment's value
// expression, sharing parameter-free subtrees.
func SubstituteAssignments(as []Assignment, params []record.Value) ([]Assignment, error) {
	changed := false
	for _, a := range as {
		if HasParams(a.E) {
			changed = true
			break
		}
	}
	if !changed {
		return as, nil
	}
	out := make([]Assignment, len(as))
	for i, a := range as {
		e, err := Substitute(a.E, params)
		if err != nil {
			return nil, err
		}
		out[i] = Assignment{Field: a.Field, E: e}
	}
	return out, nil
}
