package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nonstopsql/internal/record"
)

// randRow is a random four-field row over every kind, NULLs included, so
// the random expressions below hit the Kleene cases, incomparable kinds
// and LIKE over real strings.
func randRow(rng *rand.Rand) record.Row {
	row := make(record.Row, 4)
	for i := range row {
		switch rng.Intn(6) {
		case 0:
			row[i] = record.Null
		case 1:
			row[i] = record.Int(int64(rng.Intn(1000) - 500))
		case 2:
			row[i] = record.Float(rng.Float64()*200 - 100)
		case 3:
			row[i] = record.String(string(rune('a' + rng.Intn(26))))
		case 4:
			row[i] = record.String("%_a"[rng.Intn(3):])
		default:
			row[i] = record.Bool(rng.Intn(2) == 0)
		}
	}
	return row
}

// randConjunct is a top-level AND factor of the shapes Compile
// distinguishes: FIELD op CONSTANT in either order over every constant
// kind, NULL included (which it leaves to eval), ordinals running past
// the row — or anything at all.
func randConjunct(rng *rand.Rand) Expr {
	if rng.Intn(4) == 0 {
		return randExpr(rng, 3)
	}
	var c Expr
	switch rng.Intn(6) {
	case 0:
		c = C(record.Null)
	case 1:
		c = CInt(int64(rng.Intn(1000) - 500))
	case 2:
		c = CFloat(rng.Float64()*200 - 100)
	case 3:
		c = CString(string(rune('a' + rng.Intn(26))))
	case 4:
		c = CString("%_a"[rng.Intn(3):])
	default:
		c = C(record.Bool(rng.Intn(2) == 0))
	}
	f := F(rng.Intn(6)-1, "") // -1 and 4 are out of range
	op := []Op{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}[rng.Intn(6)]
	if rng.Intn(2) == 0 {
		return Bin(op, c, f)
	}
	return Bin(op, f, c)
}

// randPredicate is randExpr half the time and otherwise an AND, nested
// to the left or to the right at random, of up to four randConjuncts.
func randPredicate(rng *rand.Rand) Expr {
	if rng.Intn(2) == 0 {
		return randExpr(rng, 4)
	}
	e := randConjunct(rng)
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(2) == 0 {
			e = Bin(OpAnd, e, randConjunct(rng))
		} else {
			e = Bin(OpAnd, randConjunct(rng), e)
		}
	}
	return e
}

// errText renders an error for comparison: two paths agree when both
// succeed or both fail with the same words.
func errText(err error) string { return fmt.Sprint(err) }

// checkThreeWays holds the three readers of one predicate to each other
// on one record: eval over the Row (the reference), eval over a View of
// the row's encoding, and the compiled Program over that View. The first
// two agree on the value or the error text; all three agree on keep or
// reject and on the error text.
func checkThreeWays(t testing.TB, e Expr, row record.Row, v *record.View) (record.Value, error) {
	t.Helper()
	want, wantErr := Eval(e, row)
	got, gotErr := eval(e, &fields{view: v})
	if errText(wantErr) != errText(gotErr) {
		t.Fatalf("%s over %v: Row says %v, View says %v", e, row, wantErr, gotErr)
	}
	if wantErr == nil && want != got && !(want.Kind == record.TypeFloat && got.Kind == record.TypeFloat && want.F != want.F && got.F != got.F) {
		t.Fatalf("%s over %v: Row gives %+v, View gives %+v", e, row, want, got)
	}
	wantOK, wantErr := Satisfied(e, row)
	viewOK, viewErr := satisfied(e, &fields{view: v})
	progOK, progErr := Compile(e).Satisfied(v)
	if wantOK != viewOK || errText(wantErr) != errText(viewErr) {
		t.Fatalf("%s over %v: Satisfied %v, %v on the Row; %v, %v on the View", e, row, wantOK, wantErr, viewOK, viewErr)
	}
	if wantOK != progOK || errText(wantErr) != errText(progErr) {
		t.Fatalf("%s over %v: Satisfied %v, %v; compiled %v, %v", e, row, wantOK, wantErr, progOK, progErr)
	}
	return want, wantErr
}

// TestEvalOnViewMatchesEvalOnRow: a predicate has three readers and this
// is the check that they are indistinguishable — for random expressions
// over random rows, evaluating against the Row, against a View of its
// encoding, and running the compiled Program on that View give the same
// value, the same keep or reject, or the same error text. Field ordinals
// run past the row (randExpr draws 0..3; outOfRange and randConjunct add 4
// and -1), so the out-of-range message is compared too, and half the
// predicates are ANDs of the FIELD op CONSTANT shape the Program compares
// on the encoded field, so an error in a later conjunct behind a false
// earlier one is compared as well.
func TestEvalOnViewMatchesEvalOnRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var v record.View
	outcomes := map[string]int{}
	for i := 0; i < 5000; i++ {
		e := randPredicate(rng)
		switch rng.Intn(20) {
		case 0:
			e = Bin(OpOr, e, Bin(OpEQ, F(4, "past"), CInt(1)))
		case 1:
			e = Bin(OpAnd, F(-1, "before"), e)
		}
		row := randRow(rng)
		if err := v.Reset(record.Encode(row)); err != nil {
			t.Fatal(err)
		}
		want, wantErr := checkThreeWays(t, e, row, &v)
		switch {
		case wantErr != nil:
			outcomes["error"]++
		case want.IsNull():
			outcomes["null"]++
		default:
			outcomes["value"]++
		}
		if p := Compile(e); p != nil {
			for _, c := range p.conj {
				if c.generic == nil {
					outcomes["compared on the field"]++
					break
				}
			}
		}
	}
	// The generator must actually reach all three outcomes, and the
	// compiler the shape it exists for.
	for _, k := range []string{"error", "null", "value", "compared on the field"} {
		if outcomes[k] < 100 {
			t.Errorf("only %d of 5000 evaluations ended in %q: %v", outcomes[k], k, outcomes)
		}
	}
}

// TestCompiledEvaluatesEveryConjunct pins the rules a compiled predicate
// could most cheaply break: no short-circuit (a type error behind a false
// conjunct still surfaces, as eval's AND surfaces it), the constant named
// first in the error when it stood first, NULL rejecting, the mixed
// INTEGER/FLOAT comparison exact — 2^53+1 is above 2^53 as a FLOAT, not
// equal to it — and a NaN on either side unknown: rejected, and so is its
// NOT.
func TestCompiledEvaluatesEveryConjunct(t *testing.T) {
	row := record.Row{record.Int(5), record.String("bob"), record.Null, record.Int(1<<53 + 1), record.Float(2.5), record.Float(math.NaN())}
	var v record.View
	if err := v.Reset(record.Encode(row)); err != nil {
		t.Fatal(err)
	}
	nan := CFloat(math.NaN())
	for _, c := range []struct {
		e    Expr
		keep bool
		err  string
	}{
		{And(Bin(OpLT, F(0, "x"), CInt(2)), Bin(OpLT, F(1, "name"), CInt(5))), false, "expr: cannot compare VARCHAR with INTEGER"},
		{And(Bin(OpLT, F(0, "x"), CInt(2)), Bin(OpLT, CInt(5), F(1, "name"))), false, "expr: cannot compare INTEGER with VARCHAR"},
		{And(Bin(OpLT, F(0, "x"), CInt(2)), Bin(OpEQ, F(9, "past"), CInt(5))), false, "expr: field ordinal 9 out of range (row has 6 fields)"},
		{And(Bin(OpEQ, F(0, "x"), CInt(5)), Bin(OpEQ, F(2, "nul"), CInt(5))), false, ""},
		{And(Bin(OpEQ, F(0, "x"), CFloat(5)), Bin(OpGT, CString("c"), F(1, "name"))), true, ""},
		{Bin(OpEQ, F(3, "big"), CFloat(1<<53)), false, ""},
		{Bin(OpGT, F(3, "big"), CFloat(1<<53)), true, ""},
		{Bin(OpLT, CFloat(1<<53), F(3, "big")), true, ""},
		{Bin(OpLE, CInt(2), F(4, "f")), true, ""},
		{Bin(OpEQ, F(0, "x"), nan), false, ""},
		{Bin(OpNE, F(0, "x"), nan), false, ""},
		{Unary{Op: OpNot, E: Bin(OpEQ, F(0, "x"), nan)}, false, ""},
		{Bin(OpGE, nan, F(4, "f")), false, ""},
		{Bin(OpLT, F(4, "f"), nan), false, ""},
		{Bin(OpEQ, F(5, "nan"), F(5, "nan")), false, ""},
		{Bin(OpNE, F(5, "nan"), CInt(1)), false, ""},
		{Unary{Op: OpNot, E: Bin(OpLT, F(5, "nan"), CFloat(1))}, false, ""},
		{Bin(OpEQ, F(1, "name"), nan), false, "expr: cannot compare VARCHAR with FLOAT"},
	} {
		keep, err := Compile(c.e).Satisfied(&v)
		if keep != c.keep || (err == nil) != (c.err == "") || (err != nil && err.Error() != c.err) {
			t.Errorf("%s: compiled says %v, %v; want %v, %q", c.e, keep, err, c.keep, c.err)
		}
		checkThreeWays(t, c.e, row, &v)
	}
	if keep, err := Compile(nil).Satisfied(&v); !keep || err != nil {
		t.Errorf("no predicate: %v, %v", keep, err)
	}
	// A predicate whose AND operands are not all boolean-valued is left
	// whole: which error eval reports first depends on the tree's shape.
	for _, e := range []Expr{
		Bin(OpAnd, Bin(OpAnd, CInt(5), Bin(OpLT, F(1, "name"), CInt(5))), Bin(OpEQ, F(0, "x"), CInt(5))),
		Bin(OpAnd, CInt(5), Bin(OpAnd, Bin(OpLT, F(1, "name"), CInt(5)), Bin(OpEQ, F(0, "x"), CInt(5)))),
		Bin(OpAnd, F(0, "x"), Bin(OpEQ, F(9, "past"), CInt(5))),
		Bin(OpAnd, nil, Bin(OpEQ, F(0, "x"), CInt(5))),
	} {
		if p := Compile(e); len(p.conj) != 1 || p.conj[0].generic == nil {
			t.Errorf("%v: compiled to %+v, not left to eval whole", e, p.conj)
		}
		checkThreeWays(t, e, row, &v)
	}
}

// likeMatchMemo is the implementation likeMatch replaced — memoised
// recursion over (string position, pattern position), two maps per call —
// kept as the reference the two-cursor matcher is pinned against.
func likeMatchMemo(s, pat string) bool {
	var match func(si, pi int) bool
	memo := make(map[[2]int]bool)
	seen := make(map[[2]int]bool)
	match = func(si, pi int) bool {
		k := [2]int{si, pi}
		if seen[k] {
			return memo[k]
		}
		seen[k] = true
		var res bool
		switch {
		case pi == len(pat):
			res = si == len(s)
		case pat[pi] == '%':
			res = match(si, pi+1) || (si < len(s) && match(si+1, pi))
		case si < len(s) && (pat[pi] == '_' || pat[pi] == s[si]):
			res = match(si+1, pi+1)
		}
		memo[k] = res
		return res
	}
	return match(0, 0)
}

func TestLikeMatchEquivalence(t *testing.T) {
	// Every pattern against every string, both drawn from an alphabet
	// small enough that matches and near-misses are common: the wildcards,
	// two letters, and a two-byte rune (LIKE is bytewise: _ is one byte).
	alphabet := []string{"%", "_", "a", "b", "é"}
	var table []string
	var build func(prefix string, n int)
	build = func(prefix string, n int) {
		table = append(table, prefix)
		if n == 0 {
			return
		}
		for _, c := range alphabet {
			build(prefix+c, n-1)
		}
	}
	build("", 4)
	table = append(table, "%%", "a%%b", "ab_", "_", "%_%_%", "ab%ab%ab", "aaaaaaaaaaaaaaaaaaaab", "%a%a%a%a%a%a%a%b")
	for _, pat := range table {
		for _, s := range table {
			if got, want := likeMatch(s, pat), likeMatchMemo(s, pat); got != want {
				t.Fatalf("%q LIKE %q = %v, the reference says %v", s, pat, got, want)
			}
		}
	}
	if got := testing.AllocsPerRun(100, func() { likeMatch("ab%ab%abXab", "ab%ab%ab") }); got != 0 {
		t.Errorf("likeMatch allocates %.1f times per call", got)
	}
}
