package expr

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// bound is one comparison constraint on a single key column: the column
// compared with a non-NULL constant (stated over the column's type:
// coerce), or — when the analysis reads a template — with a parameter slot
// where such a constant will stand.
type bound struct {
	op     Op
	v      record.Value // the constant, or
	slot   Param        // (isSlot) the slot
	isSlot bool
	none   bool // no value of the column's type satisfies the bound (id = 1.5): the span is empty
	ci     int  // the conjunct it came from
}

// keyBounds sorts a predicate's top-level conjuncts of the form
// KEYCOL op operand by key position. found reports whether there is one.
func keyBounds(conjuncts []Expr, schema *record.Schema, slots bool) (byPos [][]bound, found bool) {
	byPos = make([][]bound, len(schema.KeyFields))
	for ci, c := range conjuncts {
		col, b, ok := columnBound(c, schema, slots)
		if !ok {
			continue
		}
		if pos := keyPosition(schema, col); pos >= 0 {
			b.ci = ci
			byPos[pos] = append(byPos[pos], b)
			found = true
		}
	}
	return byPos, found
}

// walkKey is the rule that turns key-column bounds into a key span, stated
// once for ExtractKeyRange and ExtractUniqueKey: walking the key columns in
// key order, the first equality on each column extends the prefix; the
// first column without one closes the span with whatever bounds it has.
// It trims byPos to exactly the bounds the span absorbs — one equality
// for each of the first eqs columns, the closing bounds at column eqs,
// nothing after — so a second bound on an equality column, or any bound
// past the closing column, stays in the residual.
func walkKey(byPos [][]bound) (eqs int) {
	for pos, bs := range byPos {
		i := slices.IndexFunc(bs, func(b bound) bool { return b.op == OpEQ })
		if i < 0 {
			clear(byPos[pos+1:])
			return pos
		}
		byPos[pos] = bs[i : i+1]
	}
	return len(byPos)
}

// residualOf conjoins every conjunct the walk did not absorb.
func residualOf(conjuncts []Expr, absorbed [][]bound) Expr {
	var residual []Expr
	for ci, c := range conjuncts {
		if !slices.ContainsFunc(absorbed, func(bs []bound) bool {
			return slices.ContainsFunc(bs, func(b bound) bool { return b.ci == ci })
		}) {
			residual = append(residual, c)
		}
	}
	return Conjoin(residual)
}

// ExtractKeyRange analyzes a predicate against a schema's primary key and
// returns (1) the narrowest encoded key range implied by the predicate's
// top-level conjuncts and (2) the residual predicate that must still be
// evaluated per record.
//
// This is the query-compiler step that lets the File System send a
// bounded [begin-key, end-key] span in the set-oriented FS-DP request so
// the Disk Process can use bulk I/O and pre-fetch over exactly the blocks
// containing the span. Conjuncts of the form KEYCOL op CONSTANT on a
// prefix of the key columns are absorbed (walkKey); everything else stays
// in the residual.
func ExtractKeyRange(pred Expr, schema *record.Schema) (keys.Range, Expr) {
	conjuncts := Conjuncts(pred)
	byPos, found := keyBounds(conjuncts, schema, false)
	if !found {
		// No key conjuncts at all: full range, whole predicate residual.
		return keys.All(), pred
	}
	eqs := walkKey(byPos)
	var prefix []byte
	for _, eq := range byPos[:eqs] {
		prefix = eq[0].v.AppendKey(prefix)
	}
	r := keys.All()
	switch {
	case slices.ContainsFunc(byPos, func(bs []bound) bool {
		return slices.ContainsFunc(bs, func(b bound) bool { return b.none })
	}):
		// An absorbed bound nothing satisfies: an empty span, not a scan.
		k := keys.Successor(prefix)
		r = keys.Range{Low: k, High: k}
	case eqs == len(byPos):
		r = keys.Point(prefix)
	case len(byPos[eqs]) > 0:
		r = rangeFromBounds(prefix, byPos[eqs], eqs == len(byPos)-1)
	case eqs > 0:
		r = keys.Prefix(prefix)
	}
	return r, residualOf(conjuncts, byPos)
}

// A UniqueKey is ExtractKeyRange done once, at compile time, for the
// predicates it would turn into a point: an equality with a constant or a
// parameter slot on every primary-key column. An execution encodes the key
// straight from its values (Key) and evaluates Residual — still a
// template — on the one record. Built on walkKey, so for the same values
// Key returns the key of the point ExtractKeyRange(Substitute(pred, vals))
// would return, and Residual substitutes to its residual.
type UniqueKey struct {
	Residual Expr

	schema *record.Schema
	at     []bound // per key position: the equality's constant or slot
}

// ExtractUniqueKey returns the unique-key form of a predicate template,
// or nil when the predicate does not pin every key column (a key prefix
// or a range is a subset, not a record).
func ExtractUniqueKey(pred Expr, schema *record.Schema) *UniqueKey {
	conjuncts := Conjuncts(pred)
	byPos, _ := keyBounds(conjuncts, schema, true)
	if eqs := walkKey(byPos); eqs == 0 || eqs < len(byPos) {
		return nil
	}
	u := &UniqueKey{Residual: residualOf(conjuncts, byPos), schema: schema}
	for _, eq := range byPos {
		u.at = append(u.at, eq[0])
	}
	return u
}

// AppendKey encodes the primary key for one execution's values, appending
// it to dst, and checks each slot's value as Substitute would. ok is false
// when a key value is NULL, or no value of the column's type (a FLOAT with
// a fraction on an INTEGER column): such an equality is never true, so no
// record qualifies.
func (u *UniqueKey) AppendKey(dst []byte, vals []record.Value) (key []byte, ok bool, err error) {
	key, ok = dst, true
	for pos, at := range u.at {
		if at.isSlot {
			if at.v, err = paramValue(at.slot, vals); err != nil {
				return nil, false, err
			}
			at, _ = at.coerce(u.schema, u.schema.KeyFields[pos]) // an equality always constrains
		}
		if at.v.IsNull() || at.none {
			ok = false
		}
		key = at.v.AppendKey(key)
	}
	return key, ok, nil
}

// String renders the key as its equalities, in key order.
func (u *UniqueKey) String() string {
	var sb strings.Builder
	for pos, at := range u.at {
		if pos > 0 {
			sb.WriteString(", ")
		}
		var operand Expr = Const{V: at.v}
		if at.isSlot {
			operand = at.slot
		}
		fmt.Fprintf(&sb, "%s = %s", u.schema.Fields[u.schema.KeyFields[pos]].Name, operand)
	}
	return sb.String()
}

// columnBound matches FieldRef op operand (either orientation) over
// comparison operators and returns the field ordinal and normalized
// bound (field on the left). The operand is a non-NULL Const or, when
// slots is set, a Param.
func columnBound(e Expr, schema *record.Schema, slots bool) (int, bound, bool) {
	b, ok := e.(Binary)
	if !ok {
		return 0, bound{}, false
	}
	switch b.Op {
	case OpEQ, OpLT, OpLE, OpGT, OpGE:
	default:
		return 0, bound{}, false
	}
	operand := func(f FieldRef, e Expr, op Op) (bound, bool) {
		switch x := e.(type) {
		case Const:
			if x.V.IsNull() {
				return bound{}, false
			}
			return bound{op: op, v: x.V}.coerce(schema, f.Index)
		case Param:
			return bound{op: op, slot: x, isSlot: true}, slots
		}
		return bound{}, false
	}
	if f, ok := b.L.(FieldRef); ok {
		if bd, ok := operand(f, b.R, b.Op); ok {
			return f.Index, bd, true
		}
	}
	if f, ok := b.R.(FieldRef); ok {
		if bd, ok := operand(f, b.L, flip(b.Op)); ok {
			return f.Index, bd, true
		}
	}
	return 0, bound{}, false
}

// coerce states the bound "column op v" over the column's own type, so
// that the encoded key bound compares correctly with the stored keys. It is
// the one place a constant meets a key column's type, for ExtractKeyRange
// and UniqueKey.Key alike. constrains is false when every value of the
// column satisfies the bound (id < 1e300): it is then no bound at all and
// the conjunct stays in the residual.
//
//   - An INTEGER constant against a FLOAT column widens to the float when
//     the float is exact. Past 2^53 one may not be: then the bound is
//     stated over the floats, the nearest float inside it (> i → >= the
//     first float above i, < i → <= the last float below) and = i → none.
//   - A FLOAT constant f against an INTEGER column is stated over the
//     integers, exactly: an integral f narrows to the integer; one with a
//     fraction tightens the bound to the next integer inside it
//     (> 1.5 → >= 2, >= 1.5 → >= 2, < 1.5 → <= 1, <= 1.5 → <= 1) and
//     equals no integer (= 1.5 → none). Past int64's range (|f| >= 2^63,
//     ±Inf) no integer lies beyond f: the bound that looks outward is none
//     and the one that looks inward does not constrain.
//   - NaN is below, above and equal to no number, of either column type:
//     every bound with it is none.
//
// Exactly, and with NaN unknown, is how the evaluator compares too
// (record.CompareIntFloat; expr's comparisons), so that KEY op f and
// KEY + 0 op f select the same records.
func (b bound) coerce(schema *record.Schema, field int) (_ bound, constrains bool) {
	if field < 0 || field >= len(schema.Fields) {
		return b, true
	}
	switch col := schema.Fields[field].Type; {
	case (col == record.TypeInt || col == record.TypeFloat) && isNaN(b.v):
		b.none = true
	case col == record.TypeFloat && b.v.Kind == record.TypeInt:
		i, f := b.v.I, float64(b.v.I)
		switch c := record.CompareIntFloat(i, f); {
		case c == 0:
			b.v = record.Float(f)
		case b.op == OpEQ:
			b.none = true
		case b.op == OpGT || b.op == OpGE:
			if c > 0 { // f rounded down
				f = math.Nextafter(f, math.Inf(1))
			}
			b.op, b.v = OpGE, record.Float(f)
		default: // OpLT, OpLE
			if c < 0 { // f rounded up
				f = math.Nextafter(f, math.Inf(-1))
			}
			b.op, b.v = OpLE, record.Float(f)
		}
	case col == record.TypeInt && b.v.Kind == record.TypeFloat:
		f := b.v.F
		const two63 = 1 << 63 // as a float64: one past the largest int64
		switch {
		case f >= two63:
			b.none = b.op == OpEQ || b.op == OpGT || b.op == OpGE
			return b, b.none
		case f < -two63:
			b.none = b.op == OpEQ || b.op == OpLT || b.op == OpLE
			return b, b.none
		case f == math.Trunc(f):
			b.v = record.Int(int64(f))
		case b.op == OpEQ:
			b.none = true
		case b.op == OpGT || b.op == OpGE:
			b.op, b.v = OpGE, record.Int(int64(math.Ceil(f)))
		default: // OpLT, OpLE
			b.op, b.v = OpLE, record.Int(int64(math.Floor(f)))
		}
	}
	return b, true
}

func flip(op Op) Op {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	}
	return op
}

// keyPosition returns the position of field ordinal col within the key
// column list, or -1.
func keyPosition(schema *record.Schema, col int) int {
	for i, k := range schema.KeyFields {
		if k == col {
			return i
		}
	}
	return -1
}

// rangeFromBounds builds the encoded range for inequality bounds on the
// column following the equality prefix. isLast reports whether this
// column is the final key column (affects inclusive-bound encoding,
// because non-final columns have arbitrary suffixes after the bound
// value).
func rangeFromBounds(prefix []byte, bs []bound, isLast bool) keys.Range {
	r := keys.Range{}
	if prefix != nil {
		r = keys.Prefix(prefix)
	}
	for _, b := range bs {
		key := b.v.AppendKey(append([]byte(nil), prefix...))
		var c keys.Range
		switch b.op {
		case OpGT:
			if isLast {
				c = keys.Range{Low: key, LowExcl: true}
			} else {
				c = keys.Range{Low: keys.PrefixSuccessor(key)}
			}
		case OpGE:
			c = keys.Range{Low: key}
		case OpLT:
			c = keys.Range{High: key}
		case OpLE:
			if isLast {
				c = keys.Range{High: key, HighIncl: true}
			} else {
				c = keys.Range{High: keys.PrefixSuccessor(key)}
			}
		default:
			continue
		}
		if c.Low == nil && b.v.Kind == record.TypeFloat {
			// A NaN key lies below -Inf and below no bound: a FLOAT span
			// that looks downward stops at -Inf.
			c.Low = record.Float(math.Inf(-1)).AppendKey(append([]byte(nil), prefix...))
		}
		r = r.Intersect(c)
	}
	return r
}

// SelectivityHint crudely estimates the fraction of rows surviving the
// predicate; used only by the planner's pushdown-vs-RSBB choice and by
// benchmark reporting. Equality on a column ≈ 1%, range ≈ 33%, AND
// multiplies, OR adds.
func SelectivityHint(e Expr) float64 {
	switch n := e.(type) {
	case nil:
		return 1
	case Binary:
		switch n.Op {
		case OpAnd:
			return SelectivityHint(n.L) * SelectivityHint(n.R)
		case OpOr:
			s := SelectivityHint(n.L) + SelectivityHint(n.R)
			if s > 1 {
				return 1
			}
			return s
		case OpEQ:
			return 0.01
		case OpNE:
			return 0.99
		case OpLT, OpLE, OpGT, OpGE:
			return 0.33
		case OpLike:
			return 0.1
		}
	case Unary:
		if n.Op == OpNot {
			return 1 - SelectivityHint(n.E)
		}
		return 0.5
	}
	return 0.5
}
