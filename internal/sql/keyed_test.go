package sql_test

import (
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/sql"
)

// TestKeyedWriteIsolation: a write judges a record by what is committed,
// or by what its own transaction wrote — never by another transaction's
// uncommitted change. T2 holds emp 3 raised to 9999; T1's write WHERE
// salary >= 9500 waits on emp 3's lock; T2 rolls back. No committed version
// of any record qualified, so T1 changes nothing. A keyed write gets this
// by locking the key before it reads; a write over a scan, which reads
// without locks, by judging each record again once its lock is granted.
// Every form here used to act on the 9999 it saw before waiting: the
// UPDATEs left emp 3 at -6500 and the DELETEs removed it.
func TestKeyedWriteIsolation(t *testing.T) {
	d := newDBOpts(t, cluster.Options{LockTimeout: 30 * time.Second})
	setupPartitionedEmp(t, d, 10) // salary = 1000 * empno
	t1 := d.s
	t2 := sql.NewSession(d.cat, d.c.NewFS(0, 1))
	for _, stmt := range []string{
		"UPDATE emp SET salary = salary - 9500 WHERE empno = 3 AND salary >= 9500",
		"UPDATE emp SET salary = salary - 9500 WHERE salary >= 9500",
		"DELETE FROM emp WHERE empno = 3 AND salary >= 9500",
		"DELETE FROM emp WHERE salary >= 9500",
	} {
		for _, s := range []string{"BEGIN WORK", "UPDATE emp SET salary = 9999 WHERE empno = 3"} {
			if _, err := t2.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
		var res *sql.Result
		done := blocked(t, d, func() (r *sql.Result, err error) {
			res, err = t1.Exec(stmt)
			return res, err
		})
		if _, err := t2.Exec("ROLLBACK WORK"); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%q after T2's rollback: %v", stmt, err)
		}
		if res.Affected != 0 {
			t.Errorf("%q affected %d rows after T2's rollback, want 0", stmt, res.Affected)
		}
		if got := d.exec(t, "SELECT salary FROM emp WHERE empno = 3").Rows; len(got) != 1 || got[0][0].F != 3000 {
			t.Errorf("after %q emp 3 reads %v, want its committed 3000", stmt, got)
		}
	}
}

// TestExplainAnalyzeKeyedWrite: a keyed write's node reconciles with the
// message system and the Disk Processes — inside a transaction, so the
// statement's own traffic is all the network carries: one request, its
// bytes and its reply's, and Affected equal to the records the Disk
// Processes updated or deleted. A key value no key equals sends nothing
// and has no node.
func TestExplainAnalyzeKeyedWrite(t *testing.T) {
	d := newDB(t)
	setupPartitionedEmp(t, d, 300)
	d.exec(t, "BEGIN WORK")
	for _, c := range []struct {
		stmt, label string
		affected    int
	}{
		{"UPDATE emp SET salary = salary + 1 WHERE empno = 250", "update EMP (UPDATE^KEY)", 1},
		{"UPDATE emp SET salary = salary + 1 WHERE empno = 250 AND dept = 'nowhere'", "update EMP (UPDATE^KEY)", 0},
		{"UPDATE emp SET salary = salary + 1 WHERE empno = 999", "update EMP (UPDATE^KEY)", 0},
		{"DELETE FROM emp WHERE empno = 251", "delete EMP (DELETE^KEY)", 1},
		{"DELETE FROM emp WHERE empno = 251", "delete EMP (DELETE^KEY)", 0},
		{"UPDATE emp SET salary = 0 WHERE empno = 1.5", "", 0},
	} {
		net0 := d.c.Net.Stats()
		_, _, u0, del0 := dpTotals(d)
		a, err := d.s.ExplainAnalyzeStmt(c.stmt)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %q: %v", c.stmt, err)
		}
		net1 := d.c.Net.Stats()
		_, _, u1, del1 := dpTotals(d)
		msgs := net1.Requests - net0.Requests
		if written := int(u1 - u0 + del1 - del0); written != c.affected || a.Result.Affected != c.affected {
			t.Errorf("%q: the statement affected %d rows, the Disk Processes wrote %d, want %d", c.stmt, a.Result.Affected, written, c.affected)
		}
		if c.label == "" {
			if len(a.Nodes) != 0 || msgs != 0 || !strings.Contains(a.Plan, "access EMP: none (") {
				t.Errorf("%q: %d nodes, %d messages; want none:\n%s", c.stmt, len(a.Nodes), msgs, a.Plan)
			}
			continue
		}
		n := findNode(t, a, c.label)
		if len(a.Nodes) != 1 || n.Messages != 1 || n.Messages != msgs {
			t.Errorf("%q: %d nodes, %d messages, the network counted %d requests", c.stmt, len(a.Nodes), n.Messages, msgs)
		}
		if n.Bytes == 0 || n.Bytes != net1.Bytes()-net0.Bytes() {
			t.Errorf("%q: node bytes %d, the network moved %d", c.stmt, n.Bytes, net1.Bytes()-net0.Bytes())
		}
		if n.Affected != c.affected || n.Lat.Count() != 1 {
			t.Errorf("%q: node affected %d with %d latency samples, want %d and 1", c.stmt, n.Affected, n.Lat.Count(), c.affected)
		}
	}
	d.exec(t, "COMMIT WORK")
}
