package expr

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nonstopsql/internal/record"
)

// EMP(EMPNO int key, NAME string, HIRE_DATE string, SALARY float)
func empSchema(t testing.TB) *record.Schema {
	t.Helper()
	return record.MustSchema("EMP", []record.Field{
		{Name: "EMPNO", Type: record.TypeInt, NotNull: true},
		{Name: "NAME", Type: record.TypeString},
		{Name: "HIRE_DATE", Type: record.TypeString},
		{Name: "SALARY", Type: record.TypeFloat},
	}, []int{0})
}

func empRow() record.Row {
	return record.Row{record.Int(7), record.String("alice"), record.String("1984-06-01"), record.Float(40000)}
}

func mustEval(t *testing.T, e Expr, row record.Row) record.Value {
	t.Helper()
	v, err := Eval(e, row)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func TestEvalComparisons(t *testing.T) {
	row := empRow()
	cases := []struct {
		e    Expr
		want bool
	}{
		{Bin(OpEQ, F(0, "EMPNO"), CInt(7)), true},
		{Bin(OpNE, F(0, "EMPNO"), CInt(7)), false},
		{Bin(OpLT, F(3, "SALARY"), CFloat(50000)), true},
		{Bin(OpLE, F(3, "SALARY"), CInt(40000)), true},
		{Bin(OpGT, F(3, "SALARY"), CInt(32000)), true},
		{Bin(OpGE, F(1, "NAME"), CString("alice")), true},
		{Bin(OpLT, F(1, "NAME"), CString("alice")), false},
	}
	for _, c := range cases {
		if v := mustEval(t, c.e, row); v.Kind != record.TypeBool || v.B != c.want {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestEvalArithmetic(t *testing.T) {
	row := empRow()
	v := mustEval(t, Bin(OpMul, F(3, "SALARY"), CFloat(1.07)), row)
	if v.Kind != record.TypeFloat || v.F != 40000*1.07 {
		t.Errorf("got %v", v)
	}
	v = mustEval(t, Bin(OpAdd, CInt(2), CInt(3)), row)
	if v.Kind != record.TypeInt || v.I != 5 {
		t.Errorf("got %v", v)
	}
	v = mustEval(t, Bin(OpSub, CInt(2), CInt(3)), row)
	if v.I != -1 {
		t.Errorf("got %v", v)
	}
	v = mustEval(t, Bin(OpMod, CInt(7), CInt(3)), row)
	if v.I != 1 {
		t.Errorf("got %v", v)
	}
	v = mustEval(t, Bin(OpDiv, CInt(7), CInt(2)), row)
	if v.Kind != record.TypeFloat || v.F != 3.5 {
		t.Errorf("got %v", v)
	}
	v = mustEval(t, Bin(OpAdd, CString("ab"), CString("cd")), row)
	if v.S != "abcd" {
		t.Errorf("got %v", v)
	}
	if _, err := Eval(Bin(OpDiv, CInt(1), CInt(0)), row); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := Eval(Bin(OpMod, CInt(1), CInt(0)), row); err == nil {
		t.Error("mod by zero accepted")
	}
}

func TestEvalUnary(t *testing.T) {
	row := empRow()
	if v := mustEval(t, Unary{Op: OpNeg, E: CInt(5)}, row); v.I != -5 {
		t.Errorf("got %v", v)
	}
	if v := mustEval(t, Unary{Op: OpNeg, E: CFloat(2.5)}, row); v.F != -2.5 {
		t.Errorf("got %v", v)
	}
	if v := mustEval(t, Unary{Op: OpNot, E: Bin(OpEQ, CInt(1), CInt(2))}, row); !v.B {
		t.Errorf("got %v", v)
	}
	if v := mustEval(t, Unary{Op: OpIsNull, E: C(record.Null)}, row); !v.B {
		t.Errorf("got %v", v)
	}
	if v := mustEval(t, Unary{Op: OpIsNotNull, E: CInt(1)}, row); !v.B {
		t.Errorf("got %v", v)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	row := empRow()
	null := C(record.Null)
	tru := Bin(OpEQ, CInt(1), CInt(1))
	fls := Bin(OpEQ, CInt(1), CInt(2))
	nullCmp := Bin(OpEQ, null, CInt(1)) // evaluates to NULL

	// NULL comparisons are NULL.
	if v := mustEval(t, nullCmp, row); !v.IsNull() {
		t.Errorf("NULL = 1 should be NULL, got %v", v)
	}
	// FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
	if v := mustEval(t, Bin(OpAnd, fls, nullCmp), row); v.IsNull() || v.B {
		t.Errorf("FALSE AND NULL = %v", v)
	}
	if v := mustEval(t, Bin(OpAnd, tru, nullCmp), row); !v.IsNull() {
		t.Errorf("TRUE AND NULL = %v", v)
	}
	// TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
	if v := mustEval(t, Bin(OpOr, tru, nullCmp), row); v.IsNull() || !v.B {
		t.Errorf("TRUE OR NULL = %v", v)
	}
	if v := mustEval(t, Bin(OpOr, fls, nullCmp), row); !v.IsNull() {
		t.Errorf("FALSE OR NULL = %v", v)
	}
	// NOT NULL = NULL.
	if v := mustEval(t, Unary{Op: OpNot, E: nullCmp}, row); !v.IsNull() {
		t.Errorf("NOT NULL = %v", v)
	}
	// NULL arithmetic is NULL.
	if v := mustEval(t, Bin(OpAdd, null, CInt(1)), row); !v.IsNull() {
		t.Errorf("NULL + 1 = %v", v)
	}
}

func TestEvalErrors(t *testing.T) {
	row := empRow()
	bad := []Expr{
		F(99, "X"),
		Bin(OpEQ, CInt(1), CString("a")),
		Bin(OpAdd, CInt(1), Bin(OpEQ, CInt(1), CInt(1))),
		Unary{Op: OpNot, E: CInt(1)},
		Unary{Op: OpNeg, E: CString("a")},
		Bin(OpAnd, CInt(1), CInt(2)),
		Bin(OpLike, CInt(1), CString("a")),
	}
	for _, e := range bad {
		if _, err := Eval(e, row); err == nil {
			t.Errorf("Eval(%s) accepted", e)
		}
	}
	if _, err := Eval(nil, row); err == nil {
		t.Error("nil expr accepted")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_go", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%%", true},
		{"BAIRXXX", "BAIR%", true},
	}
	for _, c := range cases {
		e := Bin(OpLike, CString(c.s), CString(c.p))
		if v := mustEval(t, e, nil); v.B != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, v.B, c.want)
		}
	}
}

func TestSatisfied(t *testing.T) {
	row := empRow()
	ok, err := Satisfied(nil, row)
	if err != nil || !ok {
		t.Error("nil predicate should accept")
	}
	ok, _ = Satisfied(Bin(OpGT, F(3, "SALARY"), CInt(32000)), row)
	if !ok {
		t.Error("true predicate rejected")
	}
	// NULL predicate value rejects.
	ok, _ = Satisfied(Bin(OpEQ, C(record.Null), CInt(1)), row)
	if ok {
		t.Error("NULL predicate accepted row")
	}
}

func TestApplyAssignments(t *testing.T) {
	row := empRow()
	// Classic paper example: BALANCE = BALANCE * 1.07 — all RHS see the
	// pre-update row.
	out, err := ApplyAssignments(row, []Assignment{
		{Field: 3, E: Bin(OpMul, F(3, "SALARY"), CFloat(2))},
		{Field: 1, E: Bin(OpAdd, F(1, "NAME"), CString("!"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[3].F != 80000 || out[1].S != "alice!" {
		t.Errorf("got %v", out)
	}
	// Original untouched.
	if row[3].F != 40000 {
		t.Error("ApplyAssignments mutated input")
	}
	// Swap via pre-update semantics.
	r2 := record.Row{record.Int(1), record.Int(2)}
	out2, err := ApplyAssignments(r2, []Assignment{
		{Field: 0, E: F(1, "B")},
		{Field: 1, E: F(0, "A")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out2[0].I != 2 || out2[1].I != 1 {
		t.Errorf("swap failed: %v", out2)
	}
	if _, err := ApplyAssignments(row, []Assignment{{Field: 9, E: CInt(1)}}); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestFieldsUsed(t *testing.T) {
	e := Bin(OpAnd,
		Bin(OpGT, F(3, "SALARY"), CInt(0)),
		Bin(OpOr, Bin(OpEQ, F(1, "NAME"), CString("x")), Unary{Op: OpIsNull, E: F(2, "H")}))
	if got := FieldsUsed(e); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("got %v", got)
	}
	if got := FieldsUsed(nil); got != nil {
		t.Errorf("got %v", got)
	}
}

func TestConjunctsConjoin(t *testing.T) {
	a := Bin(OpGT, F(0, "A"), CInt(1))
	b := Bin(OpLT, F(0, "A"), CInt(9))
	c := Bin(OpEQ, F(1, "B"), CString("x"))
	e := And(And(a, b), c)
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("got %d conjuncts", len(cs))
	}
	back := Conjoin(cs)
	row := record.Row{record.Int(5), record.String("x")}
	v1 := mustEval(t, e, row)
	v2 := mustEval(t, back, row)
	if v1 != v2 {
		t.Error("Conjoin(Conjuncts(e)) differs from e")
	}
	if Conjuncts(nil) != nil || Conjoin(nil) != nil {
		t.Error("nil handling broken")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	exprs := []Expr{
		CInt(42),
		CString("o'neill"),
		C(record.Null),
		F(3, "SALARY"),
		Bin(OpAnd, Bin(OpLE, F(0, "EMPNO"), CInt(1000)), Bin(OpGT, F(3, "SALARY"), CInt(32000))),
		Unary{Op: OpNot, E: Bin(OpLike, F(1, "NAME"), CString("a%"))},
		Bin(OpMul, F(3, "SALARY"), CFloat(1.07)),
	}
	for _, e := range exprs {
		enc := Encode(e)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%s): %v", e, err)
		}
		if !reflect.DeepEqual(e, dec) {
			t.Errorf("round trip: %s != %s", e, dec)
		}
	}
	// nil round trip
	if Encode(nil) != nil {
		t.Error("Encode(nil) not empty")
	}
	if d, err := Decode(nil); err != nil || d != nil {
		t.Error("Decode(nil) broken")
	}
}

func TestCodecErrors(t *testing.T) {
	bad := [][]byte{
		{nodeBin},
		{nodeBin, byte(OpEQ)},
		{nodeUnary},
		{nodeField, 0x80},
		{99},
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x) accepted", b)
		}
	}
	good := Encode(CInt(1))
	if _, err := Decode(append(good, 1, 2, 3)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestAssignmentsCodec(t *testing.T) {
	as := []Assignment{
		{Field: 3, E: Bin(OpMul, F(3, "SALARY"), CFloat(1.07))},
		{Field: 1, E: CString("renamed")},
	}
	enc := EncodeAssignments(as)
	dec, err := DecodeAssignments(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(as, dec) {
		t.Errorf("got %+v want %+v", dec, as)
	}
	if d, err := DecodeAssignments(nil); err != nil || d != nil {
		t.Error("empty assignments broken")
	}
	if _, err := DecodeAssignments([]byte{0x02, 0x01}); err == nil {
		t.Error("truncated assignments accepted")
	}
}

func TestStringRendering(t *testing.T) {
	e := Bin(OpAnd, Bin(OpLE, F(0, "EMPNO"), CInt(1000)), Bin(OpGT, F(3, "SALARY"), CInt(32000)))
	if got := e.String(); got != "((EMPNO <= 1000) AND (SALARY > 32000))" {
		t.Errorf("got %q", got)
	}
	if got := CString("o'neill").String(); got != "'o''neill'" {
		t.Errorf("got %q", got)
	}
	if got := (FieldRef{Index: 2}).String(); got != "$2" {
		t.Errorf("got %q", got)
	}
	if got := (Unary{Op: OpIsNull, E: F(1, "N")}).String(); got != "(N IS NULL)" {
		t.Errorf("got %q", got)
	}
}

// randExpr builds a random well-typed-ish expression over the EMP row.
func randExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(5) {
		case 0:
			return CInt(int64(rng.Intn(1000) - 500))
		case 1:
			return CFloat(rng.Float64() * 100)
		case 2:
			return CString(string(rune('a' + rng.Intn(26))))
		case 3:
			return C(record.Null)
		default:
			return F(rng.Intn(4), "")
		}
	}
	switch rng.Intn(3) {
	case 0:
		ops := []Op{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE, OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpLike}
		return Bin(ops[rng.Intn(len(ops))], randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 1:
		ops := []Op{OpNot, OpNeg, OpIsNull, OpIsNotNull}
		return Unary{Op: ops[rng.Intn(len(ops))], E: randExpr(rng, depth-1)}
	default:
		return randExpr(rng, depth-1)
	}
}

func TestRandomExprCodecAndEvalStability(t *testing.T) {
	// Property: any expression round-trips the wire codec, and the
	// decoded copy evaluates identically (same value or same error).
	row := record.Row{record.Int(7), record.String("alice"), record.String("1984"), record.Float(40000)}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		e := randExpr(rng, 4)
		dec, err := Decode(Encode(e))
		if err != nil {
			t.Fatalf("iter %d: decode: %v (%s)", i, err, e)
		}
		if !reflect.DeepEqual(e, dec) {
			t.Fatalf("iter %d: round trip mismatch: %s vs %s", i, e, dec)
		}
		v1, err1 := Eval(e, row)
		v2, err2 := Eval(dec, row)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: eval divergence: %v vs %v (%s)", i, err1, err2, e)
		}
		if err1 == nil && v1 != v2 {
			t.Fatalf("iter %d: value divergence: %v vs %v (%s)", i, v1, v2, e)
		}
	}
}

func TestRandomExtractKeyRangeSoundness(t *testing.T) {
	// Property: for any predicate, range+residual must accept exactly the
	// rows the original predicate accepts (range checked on the encoded
	// key, residual on the row).
	schema := empSchema(t)
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 500; i++ {
		pred := randExpr(rng, 3)
		r, residual := ExtractKeyRange(pred, schema)
		for trial := 0; trial < 20; trial++ {
			row := record.Row{
				record.Int(int64(rng.Intn(1000) - 500)),
				record.String(string(rune('a' + rng.Intn(26)))),
				record.String("1984"),
				record.Float(rng.Float64() * 100),
			}
			wantOK, wantErr := Satisfied(pred, row)
			key := schema.Key(row)
			gotOK := r.Contains(key)
			if gotOK {
				resOK, resErr := Satisfied(residual, row)
				if (wantErr == nil) != (resErr == nil) {
					continue // eval errors: both sides may differ in where they fail
				}
				gotOK = resOK
			}
			if wantErr != nil {
				continue
			}
			if wantOK && !gotOK {
				t.Fatalf("iter %d: predicate %s accepts row but range %v + residual %s rejects", i, pred, r, residual)
			}
			if !wantOK && gotOK {
				t.Fatalf("iter %d: predicate %s rejects row but decomposition accepts", i, pred)
			}
		}
	}
}

// TestSetList: a SetList decodes what EncodeAssignments writes and makes
// what ApplyAssignments makes — NULL arithmetic, strings, negation, every
// right-hand side seeing the record as it was — and decoding the next list
// into it reuses its arrays: nothing is allocated.
func TestSetList(t *testing.T) {
	row := record.Row{record.Int(1), record.String("ab"), record.Float(2.5), record.Null}
	as := []Assignment{
		{Field: 0, E: Bin(OpAdd, F(0, "A"), CInt(1))},
		{Field: 1, E: Bin(OpAdd, F(1, "B"), CString("c"))},
		{Field: 2, E: Unary{Op: OpNeg, E: Bin(OpMul, F(2, "C"), F(0, "A"))}},
		{Field: 3, E: Bin(OpSub, F(3, "D"), CInt(1))},
	}
	var sl SetList
	if err := sl.Decode(EncodeAssignments(as)); err != nil {
		t.Fatal(err)
	}
	got, err := sl.Append(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ApplyAssignments(row, as)
	if !slices.EqualFunc(got, want, record.Value.Equal) || !got[3].IsNull() {
		t.Fatalf("SetList made %v, ApplyAssignments %v", got, want)
	}
	if _, err := sl.Append(nil, row[:2]); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("a short record: %v", err)
	}
	debit := EncodeAssignments([]Assignment{{Field: 2, E: Bin(OpSub, F(2, "C"), CInt(1))}})
	credit := EncodeAssignments([]Assignment{{Field: 2, E: Bin(OpAdd, F(2, "C"), CInt(1))}})
	dst := make(record.Row, 0, len(row))
	if n := testing.AllocsPerRun(100, func() {
		for _, b := range [][]byte{debit, credit} {
			if sl.Decode(b) != nil {
				t.Fatal("decode")
			}
			if _, err := sl.Append(dst, row); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("decoding and running two SET lists allocates %.0f objects, want 0", n)
	}
}
