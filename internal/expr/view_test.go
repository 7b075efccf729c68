package expr

import (
	"fmt"
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

// TestEvalOnViewMatchesEvalOnRow: the evaluator has one body, and this is
// the check that its two field sources are indistinguishable through it —
// for random expressions over random rows, evaluating against the Row and
// against a View of its encoding gives the same value, or the same error
// text. Field ordinals run past the row (randExpr draws 0..3, outOfRange
// adds 4 and -1), so the out-of-range message is compared too.
func TestEvalOnViewMatchesEvalOnRow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var v record.View
	outcomes := map[string]int{}
	for i := 0; i < 5000; i++ {
		e := randExpr(rng, 4)
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
		want, wantErr := Eval(e, row)
		got, gotErr := EvalView(e, &v)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("iter %d: %s over %v: Row says %v, View says %v", i, e, row, wantErr, gotErr)
		}
		if wantErr == nil && want != got {
			t.Fatalf("iter %d: %s over %v: Row gives %+v, View gives %+v", i, e, row, want, got)
		}
		wantOK, _ := Satisfied(e, row)
		gotOK, _ := SatisfiedView(e, &v)
		if wantOK != gotOK {
			t.Fatalf("iter %d: %s over %v: Satisfied %v on the Row, %v on the View", i, e, row, wantOK, gotOK)
		}
		switch {
		case wantErr != nil:
			outcomes["error"]++
		case want.IsNull():
			outcomes["null"]++
		default:
			outcomes["value"]++
		}
	}
	// The generator must actually reach all three outcomes.
	for _, k := range []string{"error", "null", "value"} {
		if outcomes[k] < 100 {
			t.Errorf("only %d of 5000 evaluations ended in %q: %v", outcomes[k], k, outcomes)
		}
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
