// Package expr implements the expression machinery of the SQL FS-DP
// interface: typed predicates ("selection expressions"), update
// expressions (SET BALANCE = BALANCE * 1.07), and CHECK constraints.
//
// Expressions are serializable so that the File System can attach them to
// set-oriented request messages and the Disk Process can evaluate them at
// the data source — the core of the paper's "filter data at its source"
// optimization. Field references are ordinals into a single record
// descriptor: by the time an expression reaches this package it is a
// single-variable query in the paper's sense (the SQL executor decomposes
// multi-variable queries before invoking the File System).
package expr

import (
	"fmt"
	"strings"

	"nonstopsql/internal/record"
)

// Op enumerates expression operators.
type Op uint8

const (
	opInvalid Op = iota
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
	OpNot
	OpNeg
	OpIsNull
	OpIsNotNull
)

var opNames = map[Op]string{
	OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpMod: "%", OpLike: "LIKE", OpNot: "NOT", OpNeg: "-", OpIsNull: "IS NULL",
	OpIsNotNull: "IS NOT NULL",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Expr is a node in an expression tree.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Const is a literal value.
type Const struct {
	V record.Value
}

// FieldRef names a field of the single record variable by ordinal. Name
// is carried for diagnostics only.
type FieldRef struct {
	Index int
	Name  string
}

// Binary applies a two-operand operator.
type Binary struct {
	Op   Op
	L, R Expr
}

// Unary applies a one-operand operator.
type Unary struct {
	Op Op
	E  Expr
}

// Param is a typed placeholder slot for a PREPARE-time parameter marker
// (?). Index is the zero-based marker position within the statement;
// Hint, when non-zero, is the column type the binder inferred from the
// comparison context, checked against the supplied value at EXECUTE. A
// Param never reaches a Disk Process: Substitute replaces every slot
// with a Const before the plan ships.
type Param struct {
	Index int
	Hint  record.Type
}

func (Const) isExpr()    {}
func (FieldRef) isExpr() {}
func (Binary) isExpr()   {}
func (Unary) isExpr()    {}
func (Param) isExpr()    {}

func (c Const) String() string {
	if c.V.Kind == record.TypeString {
		return "'" + strings.ReplaceAll(c.V.S, "'", "''") + "'"
	}
	return c.V.Format()
}

func (f FieldRef) String() string {
	if f.Name != "" {
		return f.Name
	}
	return fmt.Sprintf("$%d", f.Index)
}

func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (u Unary) String() string {
	switch u.Op {
	case OpIsNull, OpIsNotNull:
		return fmt.Sprintf("(%s %s)", u.E, u.Op)
	default:
		return fmt.Sprintf("(%s %s)", u.Op, u.E)
	}
}

func (p Param) String() string { return fmt.Sprintf("?%d", p.Index+1) }

// Convenience constructors.

// C wraps a value as a constant expression.
func C(v record.Value) Expr { return Const{V: v} }

// CInt is a constant INTEGER expression.
func CInt(v int64) Expr { return Const{V: record.Int(v)} }

// CFloat is a constant FLOAT expression.
func CFloat(v float64) Expr { return Const{V: record.Float(v)} }

// CString is a constant VARCHAR expression.
func CString(v string) Expr { return Const{V: record.String(v)} }

// F references field i with display name name.
func F(i int, name string) Expr { return FieldRef{Index: i, Name: name} }

// Bin builds a binary node.
func Bin(op Op, l, r Expr) Expr { return Binary{Op: op, L: l, R: r} }

// And conjoins expressions; nil operands are dropped; returns nil when
// both are nil (vacuously true predicate).
func And(l, r Expr) Expr {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return Binary{Op: OpAnd, L: l, R: r}
}

// An Assignment is one SET clause: target field ordinal and the value
// expression to evaluate against the record at hand.
type Assignment struct {
	Field int
	E     Expr
}

// errEval reports type errors during evaluation.
func errEval(format string, args ...any) error {
	return fmt.Errorf("expr: %s", fmt.Sprintf(format, args...))
}

// fields is the single record variable an expression reads: a decoded
// record.Row, or (view != nil) the encoded record where it lies in a Disk
// Process cache buffer — there eval runs the conjuncts a Program did not
// compile to a comparison on the field's bytes. One evaluator serves both;
// they part only at the FieldRef leaf. A struct of the two rather than an
// interface over them: boxing a Row would cost Eval's callers an
// allocation per call.
type fields struct {
	row  record.Row
	view *record.View
}

func (f *fields) len() int {
	if f.view != nil {
		return f.view.Len()
	}
	return len(f.row)
}

// Eval evaluates e against row using SQL three-valued logic: any
// comparison or arithmetic over NULL yields NULL; AND/OR follow Kleene
// semantics.
func Eval(e Expr, row record.Row) (record.Value, error) { return eval(e, &fields{row: row}) }

func eval(e Expr, row *fields) (record.Value, error) {
	switch n := e.(type) {
	case Const:
		return n.V, nil
	case FieldRef:
		if n.Index < 0 || n.Index >= row.len() {
			return record.Null, fieldOutOfRange(n.Index, row.len())
		}
		if row.view != nil {
			return row.view.Value(n.Index), nil
		}
		return row.row[n.Index], nil
	case Unary:
		v, err := eval(n.E, row)
		if err != nil {
			return record.Null, err
		}
		return unaryValue(n.Op, v)
	case Binary:
		return evalBinary(n, row)
	case Param:
		return record.Null, errParam(n.Index)
	case nil:
		return record.Null, errEval("nil expression")
	}
	return record.Null, errEval("unknown node %T", e)
}

// unaryValue applies a one-operand operator to its evaluated operand.
func unaryValue(op Op, v record.Value) (record.Value, error) {
	switch op {
	case OpIsNull:
		return record.Bool(v.IsNull()), nil
	case OpIsNotNull:
		return record.Bool(!v.IsNull()), nil
	case OpNot:
		if v.IsNull() {
			return record.Null, nil
		}
		if v.Kind != record.TypeBool {
			return record.Null, errEval("NOT applied to %v", v.Kind)
		}
		return record.Bool(!v.B), nil
	case OpNeg:
		switch v.Kind {
		case 0:
			return record.Null, nil
		case record.TypeInt:
			return record.Int(-v.I), nil
		case record.TypeFloat:
			return record.Float(-v.F), nil
		}
		return record.Null, errEval("unary - applied to %v", v.Kind)
	}
	return record.Null, errEval("bad unary op %v", op)
}

// evalBinary evaluates both operands, left first — AND and OR do not
// short-circuit — and applies the operator.
// errParam is the error of evaluating parameter slot i: the statement
// was run without its arguments.
func errParam(i int) error {
	return errEval("unsubstituted parameter ?%d (EXECUTE the prepared statement with arguments)", i+1)
}

// fieldOutOfRange is the error of reading field i of a record of n.
func fieldOutOfRange(i, n int) error {
	return errEval("field ordinal %d out of range (row has %d fields)", i, n)
}

func evalBinary(n Binary, row *fields) (record.Value, error) {
	l, err := eval(n.L, row)
	if err != nil {
		return record.Null, err
	}
	r, err := eval(n.R, row)
	if err != nil {
		return record.Null, err
	}
	return binaryValue(n.Op, l, r)
}

// binaryValue applies a two-operand operator to its evaluated operands.
func binaryValue(op Op, l, r record.Value) (record.Value, error) {
	switch op {
	case OpAnd, OpOr:
		// Kleene AND/OR: a definite answer on one side decides even if the
		// other side is NULL.
		lb, lnull, err := asBool(&l)
		if err != nil {
			return record.Null, err
		}
		rb, rnull, err := asBool(&r)
		if err != nil {
			return record.Null, err
		}
		if op == OpAnd {
			if (!lnull && !lb) || (!rnull && !rb) {
				return record.Bool(false), nil
			}
			if lnull || rnull {
				return record.Null, nil
			}
			return record.Bool(true), nil
		}
		if (!lnull && lb) || (!rnull && rb) {
			return record.Bool(true), nil
		}
		if lnull || rnull {
			return record.Null, nil
		}
		return record.Bool(false), nil
	case OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE:
		if l.IsNull() || r.IsNull() {
			return record.Null, nil
		}
		if !comparable(l, r) {
			return record.Null, errEval("cannot compare %v with %v", l.Kind, r.Kind)
		}
		if isNaN(l) || isNaN(r) {
			return record.Null, nil // NaN is neither below, above nor equal to anything: unknown
		}
		c := l.Compare(r)
		var b bool
		switch op {
		case OpEQ:
			b = c == 0
		case OpNE:
			b = c != 0
		case OpLT:
			b = c < 0
		case OpLE:
			b = c <= 0
		case OpGT:
			b = c > 0
		case OpGE:
			b = c >= 0
		}
		return record.Bool(b), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(op, l, r)
	case OpLike:
		if l.IsNull() || r.IsNull() {
			return record.Null, nil
		}
		if l.Kind != record.TypeString || r.Kind != record.TypeString {
			return record.Null, errEval("LIKE requires strings")
		}
		return record.Bool(likeMatch(l.S, r.S)), nil
	}
	return record.Null, errEval("bad binary op %v", op)
}

func comparable(l, r record.Value) bool {
	if l.Kind == r.Kind {
		return true
	}
	ln := l.Kind == record.TypeInt || l.Kind == record.TypeFloat
	rn := r.Kind == record.TypeInt || r.Kind == record.TypeFloat
	return ln && rn
}

func isNaN(v record.Value) bool { return v.Kind == record.TypeFloat && v.F != v.F }

func asBool(v *record.Value) (b, isNull bool, err error) {
	if v.IsNull() {
		return false, true, nil
	}
	if v.Kind != record.TypeBool {
		return false, false, errEval("boolean operand required, got %v", v.Kind)
	}
	return v.B, false, nil
}

func evalArith(op Op, l, r record.Value) (record.Value, error) {
	if l.IsNull() || r.IsNull() {
		return record.Null, nil
	}
	ln := l.Kind == record.TypeInt || l.Kind == record.TypeFloat
	rn := r.Kind == record.TypeInt || r.Kind == record.TypeFloat
	if !ln || !rn {
		if op == OpAdd && l.Kind == record.TypeString && r.Kind == record.TypeString {
			return record.String(l.S + r.S), nil
		}
		return record.Null, errEval("arithmetic on %v and %v", l.Kind, r.Kind)
	}
	if l.Kind == record.TypeInt && r.Kind == record.TypeInt && op != OpDiv {
		switch op {
		case OpAdd:
			return record.Int(l.I + r.I), nil
		case OpSub:
			return record.Int(l.I - r.I), nil
		case OpMul:
			return record.Int(l.I * r.I), nil
		case OpMod:
			if r.I == 0 {
				return record.Null, errEval("division by zero")
			}
			return record.Int(l.I % r.I), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return record.Float(a + b), nil
	case OpSub:
		return record.Float(a - b), nil
	case OpMul:
		return record.Float(a * b), nil
	case OpDiv:
		if b == 0 {
			return record.Null, errEval("division by zero")
		}
		// Integer division stays integral when exact, matching SQL INTEGER
		// semantics loosely; we keep float to avoid surprises.
		return record.Float(a / b), nil
	case OpMod:
		if b == 0 {
			return record.Null, errEval("division by zero")
		}
		return record.Float(float64(int64(a) % int64(b))), nil
	}
	return record.Null, errEval("bad arith op %v", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// byte): two cursors, and on a mismatch a return to the last % with one
// more byte given to it. No allocation.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // last % in pat, and how far into s it reaches so far
	for si < len(s) {
		switch {
		case pi < len(pat) && pat[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// Satisfied reports whether the predicate is TRUE for the row (NULL and
// FALSE both reject, per SQL WHERE semantics). A nil predicate accepts
// every row.
func Satisfied(pred Expr, row record.Row) (bool, error) { return satisfied(pred, &fields{row: row}) }

func satisfied(pred Expr, row *fields) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := eval(pred, row)
	if err != nil {
		return false, err
	}
	return v.Kind == record.TypeBool && v.B, nil
}

// ApplyAssignments evaluates every SET clause against the current row and
// stores the results, returning the updated copy. All right-hand sides
// see the pre-update row, per SQL semantics.
func ApplyAssignments(row record.Row, as []Assignment) (record.Row, error) {
	return AppendAssignments(make(record.Row, 0, len(row)), row, as)
}

// AppendAssignments is ApplyAssignments with the updated copy appended to
// dst: it is the slice of dst's array that the copy occupies, clipped to
// its length.
func AppendAssignments(dst, row record.Row, as []Assignment) (record.Row, error) {
	start := len(dst)
	out := append(dst, row...)
	out = out[start:len(out):len(out)]
	for _, a := range as {
		v, err := Eval(a.E, row)
		if err != nil {
			return nil, err
		}
		if a.Field < 0 || a.Field >= len(out) {
			return nil, errEval("assignment target %d out of range", a.Field)
		}
		out[a.Field] = v
	}
	return out, nil
}

// Conjuncts splits a predicate into its top-level AND factors.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Conjoin rebuilds a predicate from conjuncts; nil for an empty list.
func Conjoin(cs []Expr) Expr {
	var out Expr
	for _, c := range cs {
		out = And(out, c)
	}
	return out
}
