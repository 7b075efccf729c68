package sql_test

import (
	"reflect"
	"strings"
	"testing"

	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// The requester's GROUP BY and the Disk Processes' AGG^FIRST/NEXT fold
// through one partial state (fsdp.AggPartial), so the pushdown differential
// compares two callers of the same code. The tests here pin what that code
// answers to results worked out by hand over loadM's table instead:
//
//	180 rows, id 0..179; dept SALES, ENG, HR, NULL by id % 4; grade id % 3;
//	pay id + 0.5; bonus id % 7, NULL when id % 5 == 0.
//
// Per dept (45 rows each): bonus counts 36, sums 104 (ENG, SALES) and 111
// (HR, NULL), takes all 7 values; the least pay is 1.5 (ENG), 2.5 (HR),
// 0.5 (SALES), 3.5 (NULL). Over the table: 144 bonuses summing 430, pay
// sums to 16 200.

var (
	i64 = record.Int
	f64 = record.Float
	str = record.String
	nul = record.Null
)

// aggCase is a statement over loadM's table and the result it must give,
// row by row, value by value — kinds included — with pushdown on and off.
type aggCase struct {
	stmt string
	cols []string
	rows []record.Row
}

var aggCases = []aggCase{
	// The empty set: COUNT is 0, every other aggregate NULL; grouped, no row.
	{"SELECT COUNT(*), COUNT(bonus), SUM(bonus), AVG(pay), MIN(dept), MAX(pay), COUNT(DISTINCT dept) FROM m WHERE pay < -1000",
		[]string{"COUNT(*)", "COUNT(BONUS)", "SUM(BONUS)", "AVG(PAY)", "MIN(DEPT)", "MAX(PAY)", "COUNT(DISTINCT DEPT)"},
		[]record.Row{{i64(0), i64(0), nul, nul, nul, nul, i64(0)}}},
	{"SELECT dept, COUNT(*) FROM m WHERE pay < -1000 GROUP BY dept",
		[]string{"DEPT", "COUNT(*)"}, nil},
	// NULLs are ignored; an INTEGER SUM stays INTEGER, a FLOAT in it makes
	// it FLOAT; AVG is FLOAT either way.
	{"SELECT COUNT(*), COUNT(bonus), SUM(bonus), SUM(pay), SUM(bonus + pay), AVG(bonus), AVG(pay) FROM m",
		[]string{"COUNT(*)", "COUNT(BONUS)", "SUM(BONUS)", "SUM(PAY)", "SUM((BONUS + PAY))", "AVG(BONUS)", "AVG(PAY)"},
		[]record.Row{{i64(180), i64(144), i64(430), f64(16200), f64(13462), f64(430.0 / 144), f64(90)}}},
	// MIN and MAX of VARCHAR; COUNT(DISTINCT) does not count NULL.
	{"SELECT MIN(dept), MAX(dept), COUNT(DISTINCT dept), COUNT(DISTINCT bonus) FROM m",
		[]string{"MIN(DEPT)", "MAX(DEPT)", "COUNT(DISTINCT DEPT)", "COUNT(DISTINCT BONUS)"},
		[]record.Row{{str("ENG"), str("SALES"), i64(3), i64(7)}}},
	// Grouped, in group-key order (NULL first), requester-side: an
	// expression argument, DISTINCT.
	{"SELECT dept, SUM(pay + 1), COUNT(bonus), SUM(bonus), COUNT(DISTINCT bonus), MIN(pay) FROM m GROUP BY dept",
		[]string{"DEPT", "SUM((PAY + 1))", "COUNT(BONUS)", "SUM(BONUS)", "COUNT(DISTINCT BONUS)", "MIN(PAY)"},
		[]record.Row{
			{nul, f64(4162.5), i64(36), i64(111), i64(7), f64(3.5)},
			{str("ENG"), f64(4072.5), i64(36), i64(104), i64(7), f64(1.5)},
			{str("HR"), f64(4117.5), i64(36), i64(111), i64(7), f64(2.5)},
			{str("SALES"), f64(4027.5), i64(36), i64(104), i64(7), f64(0.5)},
		}},
}

func TestAggregatesByHand(t *testing.T) {
	d := newDB(t)
	d.exec(t, createM)
	loadM(t, d)
	checkAggCases(t, d, aggCases)
}

func checkAggCases(t *testing.T, d *db, cases []aggCase) {
	t.Helper()
	for _, c := range cases {
		for _, push := range []bool{true, false} {
			d.s.SetPushdown(push)
			res, err := d.s.Exec(c.stmt)
			if err != nil {
				t.Fatalf("%q (pushdown %v): %v", c.stmt, push, err)
			}
			if !reflect.DeepEqual(res.Columns, c.cols) || !sameRows(res.Rows, c.rows) {
				t.Errorf("%q (pushdown %v):\n%swant columns %v, rows %v", c.stmt, push, sql.FormatResult(res), c.cols, c.rows)
			}
		}
	}
	d.s.SetPushdown(true)
}

// sameRows compares rows value for value, kinds included; nil and empty
// are the same.
func sameRows(got, want []record.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// TestDistinctAggregateKeepsItsName: COUNT(DISTINCT x) is not COUNT(x).
// Its header says DISTINCT, and HAVING and ORDER BY — which find an
// aggregate by its name — bind to it, not to a COUNT(x) beside it. With
// DISTINCT dropped from the name, the HAVING below kept no group (it read
// COUNT(dept), 45) and the ORDER BY sorted by COUNT(grade).
func TestDistinctAggregateKeepsItsName(t *testing.T) {
	d := newDB(t)
	d.exec(t, createM)
	loadM(t, d)
	checkAggCases(t, d, []aggCase{
		{"SELECT dept, COUNT(dept), COUNT(DISTINCT dept) FROM m GROUP BY dept",
			[]string{"DEPT", "COUNT(DEPT)", "COUNT(DISTINCT DEPT)"},
			[]record.Row{{nul, i64(0), i64(0)}, {str("ENG"), i64(45), i64(1)}, {str("HR"), i64(45), i64(1)}, {str("SALES"), i64(45), i64(1)}}},
		{"SELECT dept, COUNT(dept) FROM m GROUP BY dept HAVING COUNT(DISTINCT dept) = 1",
			[]string{"DEPT", "COUNT(DEPT)"},
			[]record.Row{{str("ENG"), i64(45)}, {str("HR"), i64(45)}, {str("SALES"), i64(45)}}},
		// id < 10: grade 0 has four rows, grades 1 and 2 three each, and
		// one distinct grade each — so only the grade breaks the tie.
		{"SELECT grade, COUNT(grade), COUNT(DISTINCT grade) FROM m WHERE id < 10 GROUP BY grade ORDER BY COUNT(DISTINCT grade), grade",
			[]string{"GRADE", "COUNT(GRADE)", "COUNT(DISTINCT GRADE)"},
			[]record.Row{{i64(0), i64(4), i64(1)}, {i64(1), i64(3), i64(1)}, {i64(2), i64(3), i64(1)}}},
	})
	// A DISTINCT in HAVING does not merge across partitions: the statement
	// folds in the requester.
	plan, err := d.s.Explain("SELECT dept, COUNT(dept) FROM m GROUP BY dept HAVING COUNT(DISTINCT dept) = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "aggregate in requester") {
		t.Errorf("a DISTINCT in HAVING was pushed down:\n%s", plan)
	}
}

// TestSumOfTruthValuesIsRefused: SUM and AVG of an argument that is a
// truth value by construction — a comparison, AND, OR, NOT, IS NULL, LIKE —
// or a constant that is no number are refused when the statement is
// bound, as a BOOLEAN or VARCHAR column is; they used to fold to 0.
// Expressions whose type only a value decides, and the other aggregates of
// truth values, still run.
func TestSumOfTruthValuesIsRefused(t *testing.T) {
	d := newDB(t)
	d.exec(t, createM)
	loadM(t, d)
	const refusal = "the argument must be numeric, and "
	for _, c := range []struct{ stmt, is string }{
		{"SELECT SUM(pay > 30) FROM m", "(PAY > 30) is BOOLEAN"},
		{"SELECT AVG(pay > 30) FROM m", "(PAY > 30) is BOOLEAN"},
		{"SELECT dept, SUM(pay > 30) FROM m GROUP BY dept", "(PAY > 30) is BOOLEAN"},
		{"SELECT dept, AVG(bonus IS NULL) FROM m GROUP BY dept", "is BOOLEAN"},
		{"SELECT SUM(NOT (grade = 1)) FROM m", "is BOOLEAN"},
		{"SELECT SUM(dept LIKE 'E%' OR grade = 2) FROM m", "is BOOLEAN"},
		{"SELECT dept FROM m GROUP BY dept HAVING SUM(pay > 30) > 1", "(PAY > 30) is BOOLEAN"},
		{"SELECT SUM(TRUE) FROM m", "TRUE is BOOLEAN"},
		{"SELECT AVG('x') FROM m", "x is VARCHAR"},
		{"SELECT SUM(pay > ?) FROM m", "is BOOLEAN"},
	} {
		for _, push := range []bool{true, false} {
			d.s.SetPushdown(push)
			if _, err := d.s.Exec(c.stmt); err == nil || !strings.Contains(err.Error(), refusal) || !strings.Contains(strings.ToUpper(err.Error()), strings.ToUpper(c.is)) {
				t.Errorf("%q (pushdown %v): %v, want %q…%q", c.stmt, push, err, refusal, c.is)
			}
			if _, err := d.s.Prepare(c.stmt); err == nil || !strings.Contains(err.Error(), refusal) {
				t.Errorf("Prepare(%q) (pushdown %v): %v, want %q", c.stmt, push, err, refusal)
			}
		}
	}
	d.s.SetPushdown(true)
	for _, stmt := range []string{
		"SELECT SUM(NULL), SUM(pay * 2), SUM(-bonus), COUNT(pay > 30), MIN(pay > 30), MAX(dept = 'HR') FROM m",
		"SELECT SUM(?) FROM m",
	} {
		if _, err := d.s.Prepare(stmt); err != nil {
			t.Errorf("Prepare(%q): %v", stmt, err)
		}
	}
}
