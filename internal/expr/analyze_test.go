package expr

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// ORDERS(CUSTNO int, ORDNO int, ITEM string, QTY int) key (CUSTNO, ORDNO)
func ordersSchema(t testing.TB) *record.Schema {
	t.Helper()
	return record.MustSchema("ORDERS", []record.Field{
		{Name: "CUSTNO", Type: record.TypeInt, NotNull: true},
		{Name: "ORDNO", Type: record.TypeInt, NotNull: true},
		{Name: "ITEM", Type: record.TypeString},
		{Name: "QTY", Type: record.TypeInt},
	}, []int{0, 1})
}

func key2(c, o int64) []byte {
	return keys.AppendInt64(keys.AppendInt64(nil, c), o)
}

func TestExtractKeyRangePointSingleKey(t *testing.T) {
	emp := empSchema(t)
	pred := Bin(OpEQ, F(0, "EMPNO"), CInt(7))
	r, res := ExtractKeyRange(pred, emp)
	if res != nil {
		t.Errorf("residual %s, want nil", res)
	}
	k := keys.AppendInt64(nil, 7)
	if !r.Contains(k) || r.Contains(keys.AppendInt64(nil, 8)) || r.Contains(keys.AppendInt64(nil, 6)) {
		t.Errorf("bad point range %v", r)
	}
}

func TestExtractKeyRangePaperExample(t *testing.T) {
	// SELECT ... WHERE EMPNO <= 1000 AND SALARY > 32000
	// → range [LOW-VALUE, 1000], residual SALARY > 32000.
	emp := empSchema(t)
	pred := Bin(OpAnd,
		Bin(OpLE, F(0, "EMPNO"), CInt(1000)),
		Bin(OpGT, F(3, "SALARY"), CInt(32000)))
	r, res := ExtractKeyRange(pred, emp)
	if r.Low != nil {
		t.Errorf("low should be LOW-VALUE, got %v", r)
	}
	if !r.Contains(keys.AppendInt64(nil, 1000)) || r.Contains(keys.AppendInt64(nil, 1001)) {
		t.Errorf("bad high bound %v", r)
	}
	if res == nil {
		t.Fatal("residual lost")
	}
	// Residual must be exactly the salary conjunct.
	ok, _ := Satisfied(res, record.Row{record.Int(1), record.Null, record.Null, record.Float(33000)})
	if !ok {
		t.Error("residual rejects qualifying row")
	}
	ok, _ = Satisfied(res, record.Row{record.Int(1), record.Null, record.Null, record.Float(31000)})
	if ok {
		t.Error("residual accepts non-qualifying row")
	}
}

func TestExtractKeyRangeBothBounds(t *testing.T) {
	emp := empSchema(t)
	pred := Bin(OpAnd,
		Bin(OpGE, F(0, "EMPNO"), CInt(10)),
		Bin(OpLT, F(0, "EMPNO"), CInt(20)))
	r, res := ExtractKeyRange(pred, emp)
	if res != nil {
		t.Errorf("residual %s", res)
	}
	for v, want := range map[int64]bool{9: false, 10: true, 19: true, 20: false} {
		if got := r.Contains(keys.AppendInt64(nil, v)); got != want {
			t.Errorf("Contains(%d) = %v want %v", v, got, want)
		}
	}
}

func TestExtractKeyRangeFlippedOperands(t *testing.T) {
	emp := empSchema(t)
	// 1000 >= EMPNO means EMPNO <= 1000.
	pred := Bin(OpGE, CInt(1000), F(0, "EMPNO"))
	r, res := ExtractKeyRange(pred, emp)
	if res != nil {
		t.Errorf("residual %s", res)
	}
	if !r.Contains(keys.AppendInt64(nil, 1000)) || r.Contains(keys.AppendInt64(nil, 1001)) {
		t.Errorf("bad range %v", r)
	}
}

func TestExtractKeyRangeCompositeEqPrefix(t *testing.T) {
	orders := ordersSchema(t)
	// CUSTNO = 5 → prefix range over all that customer's orders.
	pred := Bin(OpEQ, F(0, "CUSTNO"), CInt(5))
	r, res := ExtractKeyRange(pred, orders)
	if res != nil {
		t.Errorf("residual %s", res)
	}
	if !r.Contains(key2(5, 1)) || !r.Contains(key2(5, 1<<40)) {
		t.Error("prefix range misses customer 5 orders")
	}
	if r.Contains(key2(4, 99)) || r.Contains(key2(6, 0)) {
		t.Error("prefix range leaks other customers")
	}
}

func TestExtractKeyRangeCompositeEqPlusRange(t *testing.T) {
	orders := ordersSchema(t)
	// CUSTNO = 5 AND ORDNO > 100
	pred := Bin(OpAnd,
		Bin(OpEQ, F(0, "CUSTNO"), CInt(5)),
		Bin(OpGT, F(1, "ORDNO"), CInt(100)))
	r, res := ExtractKeyRange(pred, orders)
	if res != nil {
		t.Errorf("residual %s", res)
	}
	if r.Contains(key2(5, 100)) || !r.Contains(key2(5, 101)) || r.Contains(key2(6, 0)) {
		t.Errorf("bad range %v", r)
	}
}

func TestExtractKeyRangeCompositeFullEq(t *testing.T) {
	orders := ordersSchema(t)
	pred := Bin(OpAnd,
		Bin(OpEQ, F(0, "CUSTNO"), CInt(5)),
		Bin(OpEQ, F(1, "ORDNO"), CInt(42)))
	r, res := ExtractKeyRange(pred, orders)
	if res != nil {
		t.Errorf("residual %s", res)
	}
	if !r.Contains(key2(5, 42)) || r.Contains(key2(5, 43)) || r.Contains(key2(5, 41)) {
		t.Errorf("bad point range %v", r)
	}
}

func TestExtractKeyRangeSkipsNonPrefix(t *testing.T) {
	orders := ordersSchema(t)
	// Bound only on second key column: cannot form a range; everything
	// stays residual.
	pred := Bin(OpGT, F(1, "ORDNO"), CInt(100))
	r, res := ExtractKeyRange(pred, orders)
	if r.Low != nil || r.High != nil {
		t.Errorf("expected full range, got %v", r)
	}
	if res == nil {
		t.Error("predicate dropped")
	}
}

func TestExtractKeyRangeRangeThenMore(t *testing.T) {
	orders := ordersSchema(t)
	// CUSTNO > 3 AND ORDNO = 1: only the CUSTNO bound folds; ORDNO conjunct
	// must remain residual.
	pred := Bin(OpAnd,
		Bin(OpGT, F(0, "CUSTNO"), CInt(3)),
		Bin(OpEQ, F(1, "ORDNO"), CInt(1)))
	r, res := ExtractKeyRange(pred, orders)
	if r.Contains(key2(3, 999)) || !r.Contains(key2(4, 0)) {
		t.Errorf("bad range %v", r)
	}
	if res == nil {
		t.Fatal("ORDNO conjunct dropped")
	}
	ok, _ := Satisfied(res, record.Row{record.Int(9), record.Int(1), record.Null, record.Null})
	if !ok {
		t.Error("residual rejects qualifying row")
	}
	ok, _ = Satisfied(res, record.Row{record.Int(9), record.Int(2), record.Null, record.Null})
	if ok {
		t.Error("residual accepts non-qualifying row")
	}
}

func TestExtractKeyRangeNoKeyConjuncts(t *testing.T) {
	emp := empSchema(t)
	pred := Bin(OpGT, F(3, "SALARY"), CInt(0))
	r, res := ExtractKeyRange(pred, emp)
	if r.Low != nil || r.High != nil {
		t.Errorf("want full range, got %v", r)
	}
	if res == nil {
		t.Error("predicate dropped")
	}
}

func TestExtractKeyRangeNil(t *testing.T) {
	emp := empSchema(t)
	r, res := ExtractKeyRange(nil, emp)
	if r.Low != nil || r.High != nil || res != nil {
		t.Error("nil predicate should give full range, nil residual")
	}
}

func TestExtractKeyRangeORNotAbsorbed(t *testing.T) {
	emp := empSchema(t)
	pred := Bin(OpOr,
		Bin(OpEQ, F(0, "EMPNO"), CInt(1)),
		Bin(OpEQ, F(0, "EMPNO"), CInt(2)))
	r, res := ExtractKeyRange(pred, emp)
	if r.Low != nil || r.High != nil {
		t.Errorf("OR should not narrow range, got %v", r)
	}
	if res == nil {
		t.Error("OR predicate dropped")
	}
}

func TestExtractKeyRangeFloatCoercion(t *testing.T) {
	emp := empSchema(t)
	sal := record.MustSchema("S", []record.Field{
		{Name: "SALARY", Type: record.TypeFloat, NotNull: true},
	}, []int{0})
	pred := Bin(OpGE, F(0, "SALARY"), CInt(1000)) // int literal, float column
	r, res := ExtractKeyRange(pred, sal)
	if res != nil {
		t.Errorf("residual %s", res)
	}
	if !r.Contains(keys.AppendFloat64(nil, 1000)) || !r.Contains(keys.AppendFloat64(nil, 1000.5)) {
		t.Errorf("coerced bound broken: %v", r)
	}
	if r.Contains(keys.AppendFloat64(nil, 999.9)) {
		t.Error("low bound leaks")
	}
	_ = emp
}

func TestSelectivityHint(t *testing.T) {
	eq := Bin(OpEQ, F(0, "A"), CInt(1))
	rng := Bin(OpGT, F(0, "A"), CInt(1))
	if SelectivityHint(nil) != 1 {
		t.Error("nil hint")
	}
	if s := SelectivityHint(eq); s != 0.01 {
		t.Errorf("eq hint %v", s)
	}
	and := Bin(OpAnd, eq, rng)
	if s := SelectivityHint(and); s >= SelectivityHint(eq) {
		t.Errorf("AND should narrow: %v", s)
	}
	or := Bin(OpOr, rng, rng)
	if s := SelectivityHint(or); s <= SelectivityHint(rng) {
		t.Errorf("OR should widen: %v", s)
	}
}

// TestUniqueKeyIsExtractKeyRangesPoint is the no-drift property: whenever
// a template compiles to a unique key and an execution's key values name a
// key, Key is byte for byte the point ExtractKeyRange finds after
// substituting the same values, and the residuals agree — an integral
// FLOAT value on an INTEGER key (which both narrow to the integer),
// flipped operands, repeated and contradictory bounds and composite keys
// included. With a NULL key value, or a FLOAT with a fraction on an
// INTEGER key column, Key reports that nothing qualifies; the substituted
// predicate indeed accepts no record of the schema, and in the second case
// ExtractKeyRange's span is empty too.
func TestUniqueKeyIsExtractKeyRangesPoint(t *testing.T) {
	orders := ordersSchema(t)
	sal := record.MustSchema("SAL", []record.Field{
		{Name: "AMT", Type: record.TypeFloat, NotNull: true}, {Name: "WHO", Type: record.TypeString},
	}, []int{0})
	rng := rand.New(rand.NewSource(22))
	sawNull := false
	randVal := func() record.Value {
		switch rng.Intn(6) {
		case 0:
			sawNull = true
			return record.Null
		case 1:
			return record.Float(float64(rng.Intn(8)) + 0.5*float64(rng.Intn(2)))
		}
		return record.Int(int64(rng.Intn(8)))
	}
	// randRecord is a record the schema admits: key columns never NULL.
	randRecord := func(schema *record.Schema) record.Row {
		row := make(record.Row, len(schema.Fields))
		for i, f := range schema.Fields {
			switch {
			case !f.NotNull && rng.Intn(6) == 0:
			case f.Type == record.TypeInt:
				row[i] = record.Int(int64(rng.Intn(8)))
			case f.Type == record.TypeFloat:
				row[i] = record.Float(float64(rng.Intn(8)) + 0.5*float64(rng.Intn(2)))
			default:
				row[i] = record.String(string(rune('a' + rng.Intn(3))))
			}
		}
		return row
	}
	compiled, nulls, fractions := 0, 0, 0
	for i := 0; i < 4000; i++ {
		sawNull = false
		schema := orders
		if i%4 == 0 {
			schema = sal
		}
		nSlots := 0
		operand := func() Expr {
			if rng.Intn(2) == 0 {
				nSlots++
				return Param{Index: nSlots - 1}
			}
			return C(randVal())
		}
		var tmpl Expr
		for n := 1 + rng.Intn(5); n > 0; n-- {
			col := rng.Intn(len(schema.Fields))
			op := OpEQ
			if rng.Intn(4) == 0 {
				op = []Op{OpLT, OpLE, OpGT, OpGE, OpNE}[rng.Intn(5)]
			}
			c := Bin(op, F(col, schema.Fields[col].Name), operand())
			switch rng.Intn(8) {
			case 0:
				c = Bin(op, c.(Binary).R, c.(Binary).L)
			case 1:
				c = Bin(OpOr, c, Bin(OpEQ, F(0, schema.Fields[0].Name), operand()))
			}
			tmpl = And(tmpl, c)
		}
		vals := make([]record.Value, nSlots)
		for j := range vals {
			vals[j] = randVal()
		}
		u := ExtractUniqueKey(tmpl, schema)
		if u == nil {
			continue
		}
		compiled++
		sub, err := Substitute(tmpl, vals)
		if err != nil {
			t.Fatal(err)
		}
		key, ok, err := u.AppendKey(nil, vals)
		if err != nil {
			t.Fatalf("%s with %v: %v", tmpl, vals, err)
		}
		if !ok {
			if sawNull {
				nulls++
			} else if r, _ := ExtractKeyRange(sub, schema); !r.Empty() {
				t.Fatalf("%s: Key says no %s key equals these values, ExtractKeyRange scans %v", sub, schema.Name, r)
			} else {
				fractions++
			}
			for trial := 0; trial < 50; trial++ {
				row := randRecord(schema)
				if sat, err := Satisfied(sub, row); err == nil && sat {
					t.Fatalf("%s: Key says nothing qualifies, but %v satisfies it", sub, row)
				}
			}
			continue
		}
		r, res := ExtractKeyRange(sub, schema)
		if !reflect.DeepEqual(r, keys.Point(key)) {
			t.Fatalf("%s with %v: compiled key %x, ExtractKeyRange %v", tmpl, vals, key, r)
		}
		ures, err := Substitute(u.Residual, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ures, res) {
			t.Fatalf("%s with %v: compiled residual %v, ExtractKeyRange's %v", tmpl, vals, ures, res)
		}
	}
	if compiled < 200 || nulls < 20 || fractions < 20 {
		t.Fatalf("only %d templates compiled to a unique key (%d with a NULL value, %d with a fraction on an INTEGER key): the generator no longer reaches the rule", compiled, nulls, fractions)
	}

	// What is not a unique key: a key prefix, a range that happens to be a
	// point, an equality with a literal NULL.
	for _, pred := range []Expr{
		Bin(OpEQ, F(0, "CUSTNO"), Param{Index: 0}),
		And(Bin(OpEQ, F(0, "CUSTNO"), CInt(1)), And(Bin(OpGE, F(1, "ORDNO"), CInt(2)), Bin(OpLE, F(1, "ORDNO"), CInt(2)))),
		And(Bin(OpEQ, F(0, "CUSTNO"), CInt(1)), Bin(OpEQ, F(1, "ORDNO"), C(record.Null))),
		nil,
	} {
		if u := ExtractUniqueKey(pred, orders); u != nil {
			t.Errorf("%v compiled to the unique key %s", pred, u)
		}
	}
}

// TestExtractKeyRangeKeepsWhatItDoesNotAbsorb: only the equality that
// extends the prefix is absorbed; a second, contradicting bound on the same
// column must stay in the residual (it was silently dropped).
func TestExtractKeyRangeKeepsWhatItDoesNotAbsorb(t *testing.T) {
	emp := empSchema(t)
	id := F(0, "EMPNO")
	for _, other := range []Expr{Bin(OpEQ, id, CInt(7)), Bin(OpGT, id, CInt(7))} {
		r, res := ExtractKeyRange(And(Bin(OpEQ, id, CInt(5)), other), emp)
		if !reflect.DeepEqual(r, keys.Point(keys.AppendInt64(nil, 5))) || !reflect.DeepEqual(res, other) {
			t.Errorf("EMPNO = 5 AND %s: range %v residual %v", other, r, res)
		}
	}
}

// TestKeyBoundCoercion states the rule by which a constant of one numeric
// type bounds a key column of the other — bound.coerce, the one place it
// is decided — case by case, the edges included: what NaN, the infinities
// and floats past int64 do is written down here, not left to the encoding.
func TestKeyBoundCoercion(t *testing.T) {
	emp := empSchema(t) // EMPNO INTEGER key
	sal := record.MustSchema("S", []record.Field{{Name: "AMT", Type: record.TypeFloat, NotNull: true}}, []int{0})
	const (
		asIs = iota // the bound stands as written
		none        // nothing satisfies it
		free        // everything does: not a bound
	)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		schema *record.Schema
		op     Op
		v      record.Value
		how    int
		wantOp Op
		want   record.Value
	}{
		{sal, OpGE, record.Int(1000), asIs, OpGE, record.Float(1000)},
		{emp, OpEQ, record.Int(7), asIs, OpEQ, record.Int(7)},
		{emp, OpEQ, record.String("7"), asIs, OpEQ, record.String("7")},
		// Integral floats narrow, whatever the operator.
		{emp, OpEQ, record.Float(1), asIs, OpEQ, record.Int(1)},
		{emp, OpGT, record.Float(-3), asIs, OpGT, record.Int(-3)},
		{emp, OpLE, record.Float(0), asIs, OpLE, record.Int(0)},
		{emp, OpGE, record.Float(-(1 << 63)), asIs, OpGE, record.Int(math.MinInt64)},
		{emp, OpLT, record.Float(1 << 62), asIs, OpLT, record.Int(1 << 62)},
		// A fraction tightens the bound to the integer inside it.
		{emp, OpGT, record.Float(1.5), asIs, OpGE, record.Int(2)},
		{emp, OpGE, record.Float(1.5), asIs, OpGE, record.Int(2)},
		{emp, OpLT, record.Float(1.5), asIs, OpLE, record.Int(1)},
		{emp, OpLE, record.Float(1.5), asIs, OpLE, record.Int(1)},
		{emp, OpGT, record.Float(-1.5), asIs, OpGE, record.Int(-1)},
		{emp, OpLT, record.Float(-1.5), asIs, OpLE, record.Int(-2)},
		{emp, OpEQ, record.Float(1.5), none, 0, record.Null},
		// Past int64, and the infinities: outward none, inward free.
		{emp, OpEQ, record.Float(1 << 63), none, 0, record.Null},
		{emp, OpGT, record.Float(1 << 63), none, 0, record.Null},
		{emp, OpGE, record.Float(1e300), none, 0, record.Null},
		{emp, OpLT, record.Float(1 << 63), free, 0, record.Null},
		{emp, OpLE, record.Float(inf), free, 0, record.Null},
		{emp, OpGT, record.Float(inf), none, 0, record.Null},
		{emp, OpEQ, record.Float(-1e300), none, 0, record.Null},
		{emp, OpLT, record.Float(-1e300), none, 0, record.Null},
		{emp, OpLE, record.Float(-inf), none, 0, record.Null},
		{emp, OpGT, record.Float(-1e300), free, 0, record.Null},
		{emp, OpGE, record.Float(-inf), free, 0, record.Null},
		// No integer is below, above or equal to NaN.
		{emp, OpEQ, record.Float(nan), none, 0, record.Null},
		{emp, OpLT, record.Float(nan), none, 0, record.Null},
		{emp, OpLE, record.Float(nan), none, 0, record.Null},
		{emp, OpGT, record.Float(nan), none, 0, record.Null},
		{emp, OpGE, record.Float(nan), none, 0, record.Null},
	} {
		got, constrains := bound{op: c.op, v: c.v}.coerce(c.schema, 0)
		switch c.how {
		case asIs:
			if !constrains || got.none || got.op != c.wantOp || got.v != c.want {
				t.Errorf("%s %s %s: bound %s %+v (none %v, constrains %v), want %s %+v", c.schema.Fields[0].Name, c.op, c.v.Format(), got.op, got.v, got.none, constrains, c.wantOp, c.want)
			}
		case none:
			if !constrains || !got.none {
				t.Errorf("%s %s %s: none %v, constrains %v; want an empty span", c.schema.Fields[0].Name, c.op, c.v.Format(), got.none, constrains)
			}
		case free:
			if constrains {
				t.Errorf("%s %s %s constrains (%+v); every integer satisfies it", c.schema.Fields[0].Name, c.op, c.v.Format(), got)
			}
		}
		// Either way the span and the residual together accept what the
		// predicate accepts.
		pred := Bin(c.op, F(0, "K"), C(c.v))
		r, residual := ExtractKeyRange(pred, c.schema)
		if c.how == none && !r.Empty() {
			t.Errorf("%s: span %v, want an empty one", pred, r)
		}
		if c.how == free && (r.Low != nil || r.High != nil || residual == nil) {
			t.Errorf("%s: span %v residual %v, want the conjunct left alone", pred, r, residual)
		}
	}
}

// TestFloatBoundOnIntegerKeyMatchesEvaluation is the differential that
// found the bug: KEY op f must select what KEY + 0 op f selects — the
// second never becomes a key bound, so it is the evaluator's word — for
// integral, fractional, negative and out-of-range floats, written as a
// literal and supplied for a marker, through ExtractKeyRange's span and
// residual and through a UniqueKey. Past 2^53, where float64 no longer
// holds every integer, the evaluator compares exactly as the key bound
// does; and NaN, which no key bound selects, is unknown to the evaluator.
func TestFloatBoundOnIntegerKeyMatchesEvaluation(t *testing.T) {
	emp := empSchema(t)
	floats := []float64{0, 1, -1, 1.5, -1.5, 2.000001, 0.999999, -0.5, 3, -3, 2.5, 100, -100,
		1 << 53, -(1 << 53), 1 << 62, 1 << 63, -(1 << 63), -(1 << 63) * 1.5, 1e300, -1e300, math.Inf(1), math.Inf(-1),
		math.Nextafter(1<<53, math.Inf(1)), math.Nextafter(-(1 << 53), math.Inf(-1)), math.Nextafter(1<<63, 0), math.NaN()}
	ids := []int64{-101, -100, -4, -3, -2, -1, 0, 1, 2, 3, 4, 100, 101, 1 << 53, -(1 << 53), 1 << 62,
		1<<53 + 1, 1<<53 - 1, 1<<53 + 2, 1<<53 + 3, -(1 << 53) - 1, -(1 << 53) - 2, 1<<62 + 1, 1<<62 - 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	k := F(0, "EMPNO")
	for _, f := range floats {
		for _, op := range []Op{OpEQ, OpLT, OpLE, OpGT, OpGE} {
			for _, flipped := range []bool{false, true} {
				lit, tmpl := Bin(op, k, CFloat(f)), Bin(op, k, Param{Index: 0})
				ref := Bin(op, Bin(OpAdd, k, CInt(0)), CFloat(f))
				if flipped {
					lit, tmpl = Bin(op, CFloat(f), k), Bin(op, Param{Index: 0}, k)
					ref = Bin(op, CFloat(f), Bin(OpAdd, k, CInt(0)))
				}
				sub, err := Substitute(tmpl, []record.Value{record.Float(f)})
				if err != nil || (f == f && !reflect.DeepEqual(sub, lit)) {
					t.Fatalf("%s with %v: %v, %v", tmpl, f, sub, err)
				}
				r, residual := ExtractKeyRange(lit, emp)
				u := ExtractUniqueKey(tmpl, emp)
				if (u != nil) != (op == OpEQ) {
					t.Fatalf("%s: unique key %v", tmpl, u)
				}
				for _, id := range ids {
					row := record.Row{record.Int(id), record.String("n"), record.String("d"), record.Float(0)}
					want, err := Satisfied(ref, row)
					if err != nil {
						t.Fatal(err)
					}
					got := r.Contains(emp.Key(row))
					if got {
						if got, err = Satisfied(residual, row); err != nil {
							t.Fatal(err)
						}
					}
					if got != want {
						t.Errorf("%s selects EMPNO %d: %v; %s says %v (span %v, residual %v)", lit, id, got, ref, want, r, residual)
					}
					if u == nil {
						continue
					}
					key, ok, err := u.AppendKey(nil, []record.Value{record.Float(f)})
					if err != nil {
						t.Fatal(err)
					}
					if got := ok && bytes.Equal(key, emp.Key(row)); got != want {
						t.Errorf("%s with %v reads EMPNO %d: %v; %s says %v", tmpl, f, id, got, ref, want)
					}
				}
			}
		}
	}
}

// TestIntegerBoundOnFloatKeyMatchesEvaluation is the same differential
// the other way round: KEY op i on a FLOAT key selects what KEY + 0.0 op i
// selects, for integers float64 does not hold (past 2^53) and ones it does,
// and stored floats on both sides of them, NaN among them.
func TestIntegerBoundOnFloatKeyMatchesEvaluation(t *testing.T) {
	sal := record.MustSchema("S", []record.Field{{Name: "AMT", Type: record.TypeFloat, NotNull: true}}, []int{0})
	ints := []int64{0, 3, -3, 1 << 53, 1<<53 + 1, 1<<53 + 3, -(1 << 53) - 1, 1<<62 + 1, math.MaxInt64, math.MinInt64}
	var amts []float64
	for _, i := range ints {
		f := float64(i)
		amts = append(amts, f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)))
	}
	amts = append(amts, 0.5, -0.5, math.Inf(1), math.Inf(-1), math.NaN())
	k := F(0, "AMT")
	for _, i := range ints {
		for _, op := range []Op{OpEQ, OpLT, OpLE, OpGT, OpGE} {
			lit, ref := Bin(op, k, CInt(i)), Bin(op, Bin(OpAdd, k, CFloat(0)), CInt(i))
			r, residual := ExtractKeyRange(lit, sal)
			for _, amt := range amts {
				row := record.Row{record.Float(amt)}
				want, err := Satisfied(ref, row)
				if err != nil {
					t.Fatal(err)
				}
				got := r.Contains(sal.Key(row))
				if got {
					if got, err = Satisfied(residual, row); err != nil {
						t.Fatal(err)
					}
				}
				if got != want {
					t.Errorf("%s selects AMT %v: %v; %s says %v (span %v, residual %v)", lit, amt, got, ref, want, r, residual)
				}
			}
		}
	}
}
