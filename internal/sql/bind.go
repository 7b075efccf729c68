package sql

import (
	"fmt"
	"strconv"
	"strings"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/record"
)

// A scope maps qualified column names to field ordinals in the
// executor's (possibly concatenated) row. For a join, the inner table's
// fields sit at an offset after the outer's.
type scope struct {
	entries []scopeEntry
}

type scopeEntry struct {
	alias  string // upper-cased table name or alias
	schema *record.Schema
	offset int
}

func (s *scope) add(alias string, schema *record.Schema, offset int) {
	s.entries = append(s.entries, scopeEntry{alias: strings.ToUpper(alias), schema: schema, offset: offset})
}

// resolve finds the row ordinal for a column reference.
func (s *scope) resolve(c aCol) (int, error) {
	found := -1
	for _, e := range s.entries {
		if c.Table != "" && c.Table != e.alias && c.Table != e.schema.Name {
			continue
		}
		i := e.schema.FieldIndex(c.Name)
		if i < 0 {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", c.Name)
		}
		found = e.offset + i
	}
	if found < 0 {
		if c.Table != "" {
			return 0, fmt.Errorf("sql: no column %s.%s", c.Table, c.Name)
		}
		return 0, fmt.Errorf("sql: no column %q", c.Name)
	}
	return found, nil
}

// typeOf returns the declared type of a resolved row ordinal, 0 when it
// falls outside every scope entry.
func (s *scope) typeOf(ord int) record.Type {
	for _, e := range s.entries {
		if ord >= e.offset && ord < e.offset+len(e.schema.Fields) {
			return e.schema.Fields[ord-e.offset].Type
		}
	}
	return 0
}

// bind resolves an unresolved AST expression into an executable
// expr.Expr. Aggregate calls are rejected here — the planner strips them
// first.
func bind(e aExpr, s *scope) (expr.Expr, error) {
	switch n := e.(type) {
	case nil:
		return nil, nil
	case aConst:
		return expr.C(n.V), nil
	case aCol:
		i, err := s.resolve(n)
		if err != nil {
			return nil, err
		}
		return expr.FieldRef{Index: i, Name: n.Name}, nil
	case aBin:
		l, err := bind(n.L, s)
		if err != nil {
			return nil, err
		}
		r, err := bind(n.R, s)
		if err != nil {
			return nil, err
		}
		// Typed placeholder slots: a parameter compared against a column
		// inherits the column's declared type as its EXECUTE-time check.
		if isComparison(n.Op) {
			if p, ok := l.(expr.Param); ok && p.Hint == 0 {
				if f, ok := r.(expr.FieldRef); ok {
					p.Hint = s.typeOf(f.Index)
					l = p
				}
			}
			if p, ok := r.(expr.Param); ok && p.Hint == 0 {
				if f, ok := l.(expr.FieldRef); ok {
					p.Hint = s.typeOf(f.Index)
					r = p
				}
			}
		}
		return expr.Binary{Op: n.Op, L: l, R: r}, nil
	case aUnary:
		sub, err := bind(n.E, s)
		if err != nil {
			return nil, err
		}
		return expr.Unary{Op: n.Op, E: sub}, nil
	case aCall:
		return nil, fmt.Errorf("sql: aggregate %s not allowed here", n.Fn)
	case aParam:
		return expr.Param{Index: n.Index}, nil
	}
	return nil, fmt.Errorf("sql: cannot bind %T", e)
}

// isComparison reports whether op compares its operands (the shapes a
// parameter type hint can be inferred from).
func isComparison(op expr.Op) bool {
	switch op {
	case expr.OpEQ, expr.OpNE, expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE, expr.OpLike:
		return true
	}
	return false
}

// columnsOf lists the aCol references in an unresolved expression.
func columnsOf(e aExpr) []aCol {
	var out []aCol
	var walk func(aExpr)
	walk = func(e aExpr) {
		switch n := e.(type) {
		case aCol:
			out = append(out, n)
		case aBin:
			walk(n.L)
			walk(n.R)
		case aUnary:
			walk(n.E)
		case aCall:
			if n.Arg != nil {
				walk(n.Arg)
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// hasAggregate reports whether the expression contains an aggregate call.
func hasAggregate(e aExpr) bool {
	switch n := e.(type) {
	case aCall:
		return true
	case aBin:
		return hasAggregate(n.L) || hasAggregate(n.R)
	case aUnary:
		return hasAggregate(n.E)
	}
	return false
}

// displayName invents a result column label for an expression, as the
// compiler sees it: a parameter marker shows as ?N, so two markers never
// name the same expression (GROUP BY and HAVING match by this name).
func displayName(e aExpr) string { return nameWith(e, nil) }

// nameWith is displayName with parameter values in hand: a marker whose
// value is known shows as that value, exactly as the literal would.
func nameWith(e aExpr, params []record.Value) string {
	switch n := e.(type) {
	case aCol:
		return n.Name
	case aCall:
		switch {
		case n.Star:
			return n.Fn + "(*)"
		case n.Distinct:
			return n.Fn + "(DISTINCT " + nameWith(n.Arg, params) + ")"
		}
		return n.Fn + "(" + nameWith(n.Arg, params) + ")"
	case aConst:
		return n.V.Format()
	case aParam:
		if n.Index < len(params) {
			return params[n.Index].Format()
		}
		return "?" + strconv.Itoa(n.Index+1)
	case aBin:
		return "(" + nameWith(n.L, params) + " " + n.Op.String() + " " + nameWith(n.R, params) + ")"
	case aUnary:
		return "(" + n.Op.String() + " " + nameWith(n.E, params) + ")"
	}
	return "?"
}
