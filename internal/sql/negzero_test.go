package sql_test

import (
	"math"
	"strings"
	"testing"

	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// negZeroTable is t(k, f) with f indexed and holding both zeros: +0 at
// k = 1, −0 at k = 2. The two compare equal, so they must be one key.
func negZeroTable(t *testing.T) *db {
	d := newDB(t)
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY, f FLOAT)")
	d.exec(t, "CREATE INDEX t_f ON t (f)")
	d.exec(t, "INSERT INTO t VALUES (1, 0.0)")
	d.exec(t, "INSERT INTO t VALUES (2, -0.0)")
	if res := d.exec(t, "SELECT f FROM t WHERE k = 2"); len(res.Rows) != 1 || !math.Signbit(res.Rows[0][0].F) {
		t.Fatalf("the second row does not hold -0: %v", res.Rows)
	}
	return d
}

// TestNegativeZeroGroupsWithZero: GROUP BY a FLOAT meets −0 and +0 as one
// group, with the Disk Processes folding (pushdown) and in the requester,
// and the group's value is +0 either way.
func TestNegativeZeroGroupsWithZero(t *testing.T) {
	d := negZeroTable(t)
	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		res := d.exec(t, "SELECT f, COUNT(*) FROM t GROUP BY f")
		if len(res.Rows) != 1 || res.Rows[0][1] != record.Int(2) {
			t.Fatalf("pushdown=%v: groups %v, want one group of two", push, res.Rows)
		}
		if f := res.Rows[0][0]; f.Kind != record.TypeFloat || f.F != 0 || math.Signbit(f.F) {
			t.Errorf("pushdown=%v: the group's value is %v, want +0", push, f)
		}
	}
}

// TestNegativeZeroThroughTheIndex: WHERE f = 0.0 through the index on f
// finds both rows, as the same predicate read by a scan does.
func TestNegativeZeroThroughTheIndex(t *testing.T) {
	d := negZeroTable(t)
	const probe = "SELECT k FROM t WHERE f = 0.0"
	if plan, err := d.s.Explain(probe); err != nil || !strings.Contains(plan, "via T_F") {
		t.Fatalf("%q does not read the index (%v):\n%s", probe, err, plan)
	}
	want := sql.FormatResult(d.exec(t, "SELECT k FROM t WHERE f + 0.0 = 0.0"))
	if got := sql.FormatResult(d.exec(t, probe)); got != want {
		t.Errorf("through the index:\n%s\nby a scan:\n%s", got, want)
	}
	if res := d.exec(t, probe); len(res.Rows) != 2 {
		t.Errorf("%q returned %v, want k = 1 and 2", probe, res.Rows)
	}
}

// TestNegativeZeroIsADuplicateKey: a FLOAT primary key holding 0.0
// refuses −0.0 as a duplicate.
func TestNegativeZeroIsADuplicateKey(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE p (f FLOAT PRIMARY KEY)")
	d.exec(t, "INSERT INTO p VALUES (0.0)")
	if _, err := d.s.Exec("INSERT INTO p VALUES (-0.0)"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("inserting -0.0 beside 0.0: %v, want a duplicate key", err)
	}
	if res := d.exec(t, "SELECT COUNT(*) FROM p"); res.Rows[0][0] != record.Int(1) {
		t.Errorf("p holds %v rows", res.Rows[0][0])
	}
}
