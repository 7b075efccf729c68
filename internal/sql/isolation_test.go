package sql_test

import (
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/sql"
)

// readIsolation is TestPointReadIsolation's shape for a statement that
// reads a subset inside a transaction. T1 holds an uncommitted change — an
// update of employee 5's salary unless the test names another — that
// changes what stmt returns. T2's stmt reads the records through a
// conversation — a VSBB scan, a COUNT, an aggregate, or a batched join
// probe — and waits at the lock it takes on the span it read. Once T1
// ends, T2 must return the committed state: what stmt returned before the
// change if T1 rolls back, and what it returns after if T1 commits — never
// what it read before the wait.
func readIsolation(t *testing.T, stmt, change string, setup func(*db)) {
	d := newDBOpts(t, cluster.Options{LockTimeout: 30 * time.Second})
	setupPartitionedEmp(t, d, 10)
	if setup != nil {
		setup(d)
	}
	t1 := d.s
	t2 := sql.NewSession(d.cat, d.c.NewFS(0, 1))
	t2.SetPushdown(true)
	update := change
	if update == "" {
		update = "UPDATE emp SET salary = 9999.5 WHERE empno = 5"
	}
	before := sql.FormatResult(d.exec(t, stmt))
	for _, end := range []string{"ROLLBACK WORK", "COMMIT WORK"} {
		d.exec(t, "BEGIN WORK")
		d.exec(t, update)
		if _, err := t2.Exec("BEGIN WORK"); err != nil {
			t.Fatal(err)
		}
		var got *sql.Result
		done := blocked(t, d, func() (res *sql.Result, err error) {
			got, err = t2.Exec(stmt)
			return got, err
		})
		t1.MustExec(end)
		if err := <-done; err != nil {
			t.Fatalf("T2's %q after T1's %s: %v", stmt, end, err)
		}
		if _, err := t2.Exec("COMMIT WORK"); err != nil {
			t.Fatal(err)
		}
		want := before
		if end == "COMMIT WORK" {
			if want = sql.FormatResult(d.exec(t, stmt)); want == before {
				t.Fatalf("%q reads the same before and after %q: the test shows nothing", stmt, update)
			}
		}
		if s := sql.FormatResult(got); s != want {
			t.Errorf("after T1's %s, T2's %q returned\n%s\nwant\n%s", end, stmt, s, want)
		}
	}
}

// TestReadIsolationRange: an in-transaction key-range SELECT (GET^VSBB).
func TestReadIsolationRange(t *testing.T) {
	readIsolation(t, "SELECT empno, salary FROM emp WHERE empno >= 3 AND empno < 8", "", nil)
}

// TestReadIsolationCount: an in-transaction COUNT^FIRST/NEXT, where the
// uncommitted salary is what qualifies the record.
func TestReadIsolationCount(t *testing.T) {
	readIsolation(t, "SELECT COUNT(*) FROM emp WHERE salary > 8000", "", nil)
}

// TestReadIsolationGroupBy: an in-transaction GROUP BY pushed to the Disk
// Process (AGG^FIRST/NEXT), whose fold of the uncommitted salary must be
// undone.
func TestReadIsolationGroupBy(t *testing.T) {
	readIsolation(t, "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept", "", nil)
}

// pickJoin is a join whose inner rows, employees 4, 5 and 6, are probed by
// primary key in blocks (PROBE^BLOCK).
const pickJoin = "SELECT p.id, e.salary FROM pick p, emp e WHERE p.e = e.empno"

func pickSetup(t *testing.T) func(*db) {
	return func(d *db) {
		d.exec(t, "CREATE TABLE pick (id INTEGER PRIMARY KEY, e INTEGER)")
		d.exec(t, "INSERT INTO pick VALUES (1, 4)")
		d.exec(t, "INSERT INTO pick VALUES (2, 5)")
		d.exec(t, "INSERT INTO pick VALUES (3, 6)")
		if plan, err := d.s.Explain(pickJoin); err != nil || !strings.Contains(plan, "PROBE^BLOCK") {
			t.Fatalf("the join does not probe in blocks (%v):\n%s", err, plan)
		}
	}
}

// TestReadIsolationJoinProbe: an in-transaction join whose inner rows are
// probed by primary key in blocks (PROBE^BLOCK).
func TestReadIsolationJoinProbe(t *testing.T) {
	readIsolation(t, pickJoin, "", pickSetup(t))
}

// The change T1 holds can also take a record out of what T2 returns. The
// record then does not qualify, or is not there, when T2 reads: T2 must
// still wait for T1, on the lock over the span it read.

// TestReadIsolationDisqualified: the uncommitted update lowers the only
// salary a COUNT counts, so the scan turns the record away.
func TestReadIsolationDisqualified(t *testing.T) {
	readIsolation(t, "SELECT COUNT(*) FROM emp WHERE salary > 8000", "UPDATE emp SET salary = 100 WHERE empno = 9", nil)
}

// TestReadIsolationDeleted: the uncommitted delete takes the only record a
// COUNT counts out of its range.
func TestReadIsolationDeleted(t *testing.T) {
	readIsolation(t, "SELECT COUNT(*) FROM emp WHERE salary > 8000", "DELETE FROM emp WHERE empno = 9", nil)
}

// TestReadIsolationProbeMisses: the uncommitted delete takes a probed
// record away, so its probe matches nothing.
func TestReadIsolationProbeMisses(t *testing.T) {
	readIsolation(t, pickJoin, "DELETE FROM emp WHERE empno = 5", pickSetup(t))
}
