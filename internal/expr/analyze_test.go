package expr

import (
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
// a template compiles to a unique key and an execution's key values are
// not NULL, Key is byte for byte the point ExtractKeyRange finds after
// substituting the same values, and the residuals agree — a FLOAT value on
// an INTEGER key, flipped operands, repeated and contradictory bounds and
// composite keys included. With a NULL key value Key reports that nothing
// qualifies, and the substituted predicate indeed accepts no row.
func TestUniqueKeyIsExtractKeyRangesPoint(t *testing.T) {
	orders := ordersSchema(t)
	sal := record.MustSchema("SAL", []record.Field{
		{Name: "AMT", Type: record.TypeFloat, NotNull: true}, {Name: "WHO", Type: record.TypeString},
	}, []int{0})
	rng := rand.New(rand.NewSource(22))
	randVal := func() record.Value {
		switch rng.Intn(6) {
		case 0:
			return record.Null
		case 1:
			return record.Float(float64(rng.Intn(8)) + 0.5*float64(rng.Intn(2)))
		}
		return record.Int(int64(rng.Intn(8)))
	}
	compiled, nulls := 0, 0
	for i := 0; i < 4000; i++ {
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
		key, ok, err := u.Key(vals)
		if err != nil {
			t.Fatalf("%s with %v: %v", tmpl, vals, err)
		}
		if !ok {
			nulls++
			for trial := 0; trial < 50; trial++ {
				row := record.Row{randVal(), randVal(), randVal(), randVal()}[:len(schema.Fields)]
				if sat, err := Satisfied(sub, row); err == nil && sat {
					t.Fatalf("%s: Key says a NULL key value qualifies nothing, but %v satisfies it", sub, row)
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
	if compiled < 200 || nulls < 20 {
		t.Fatalf("only %d templates compiled to a unique key (%d with a NULL value): the generator no longer reaches the rule", compiled, nulls)
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
