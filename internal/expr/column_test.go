package expr

import (
	"math"
	"math/rand"
	"testing"

	"nonstopsql/internal/record"
)

// columnValues are the field values the column tests meet: NULL, zeros of
// both signs, integers around the float mantissa's edge, NaN, infinities,
// a fraction — and values no column holds.
var columnValues = []record.Value{
	record.Null, record.Int(0), record.Int(-1), record.Int(7), record.Int(1 << 53), record.Int(1<<53 + 1),
	record.Int(math.MaxInt64), record.Int(math.MinInt64),
	record.Float(0), record.Float(math.Copysign(0, -1)), record.Float(7), record.Float(7.5), record.Float(math.NaN()),
	record.Float(math.Inf(1)), record.Float(math.Inf(-1)), record.Float(1 << 53), record.Float(-9.2e18),
	record.String("7"), record.Bool(true),
}

// checkColumnTests holds the column tests of pred's program to Satisfied
// on the record rec: when every conjunct is a column test and every field
// they read is a column entry (record.NumericField), Satisfied does not
// fail, and it keeps the record exactly when every test passes.
func checkColumnTests(t *testing.T, pred Expr, rec []byte) {
	t.Helper()
	p := Compile(pred)
	tests, ok := p.ColumnTests(nil)
	var v record.View
	if !ok || v.Reset(rec) != nil {
		return
	}
	starts := make([]uint16, 0, 8)
	starts, _ = record.FieldStarts(rec, starts)
	pass := true
	for i := range tests {
		kind, bits, ok := record.NumericField(rec, starts, tests[i].Field())
		if !ok {
			return
		}
		pass = pass && tests[i].Test(kind, bits)
	}
	keep, err := p.Satisfied(&v)
	if err != nil || keep != pass {
		t.Fatalf("%v on %x: the column tests say %v, Satisfied %v, %v", pred, rec, pass, keep, err)
	}
}

// TestColumnTestsMatchSatisfied runs random ANDs of FIELD op CONSTANT,
// either operand order, over random records of the values above.
func TestColumnTestsMatchSatisfied(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	pick := func() record.Value { return columnValues[rng.Intn(len(columnValues))] }
	for range 20000 {
		row := make(record.Row, 1+rng.Intn(3))
		for i := range row {
			row[i] = pick()
		}
		var pred Expr
		for range 1 + rng.Intn(3) {
			c := pick()
			if c.Kind == record.TypeString || c.IsNull() {
				c = record.Int(rng.Int63n(20) - 10)
			}
			op := OpEQ + Op(rng.Intn(int(OpGE-OpEQ)+1))
			var conj Expr = Bin(op, F(rng.Intn(4), "F"), C(c))
			if rng.Intn(2) == 0 {
				conj = Bin(op, C(c), F(rng.Intn(4), "F"))
			}
			if pred == nil {
				pred = conj
			} else {
				pred = And(pred, conj)
			}
		}
		checkColumnTests(t, pred, record.Encode(row))
	}
	// A conjunct that is not a comparison with a number: no column tests.
	for _, e := range []Expr{
		Bin(OpLT, F(0, "F"), CString("a")), Bin(OpLT, F(0, "F"), C(record.Bool(true))),
		Bin(OpOr, Bin(OpLT, F(0, "F"), CInt(1)), Bin(OpGT, F(0, "F"), CInt(5))),
		And(Bin(OpLT, F(0, "F"), CInt(1)), Unary{Op: OpIsNull, E: F(1, "G")}),
	} {
		if _, ok := Compile(e).ColumnTests(nil); ok {
			t.Errorf("%v compiled to column tests", e)
		}
	}
}

// FuzzColumnTests holds the column evaluator to Program.Satisfied over
// whatever decodes as a predicate and a record.
func FuzzColumnTests(f *testing.F) {
	for _, e := range []Expr{
		Bin(OpLT, F(1, "GRP"), CInt(10)),
		And(Bin(OpGE, F(0, "ID"), CFloat(2.5)), Bin(OpNE, CInt(7), F(2, "BAL"))),
		And(Bin(OpEQ, F(0, "ID"), CFloat(math.NaN())), Bin(OpLE, F(1, "GRP"), CFloat(math.Copysign(0, -1)))),
		Bin(OpGT, F(3, "PAST"), CInt(0)),
	} {
		for _, row := range []record.Row{
			{record.Int(7), record.Int(3), record.Float(7)},
			{record.Float(math.NaN()), record.Null, record.Float(math.Copysign(0, -1))},
			{record.Int(1<<53 + 1), record.Float(1 << 53), record.Int(-7)},
			{record.Int(1), record.String("x"), record.Int(2)},
			{record.Int(1)},
		} {
			f.Add(Encode(e), record.Encode(row))
		}
	}
	f.Fuzz(func(t *testing.T, data, rec []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		checkColumnTests(t, e, rec)
	})
}
