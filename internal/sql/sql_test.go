package sql_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// db is a one-node test database with three volumes.
type db struct {
	c   *cluster.Cluster
	cat *sql.Catalog
	s   *sql.Session
}

func newDB(t testing.TB) *db {
	t.Helper()
	return newDBOpts(t, cluster.Options{})
}

func (d *db) exec(t testing.TB, stmt string) *sql.Result {
	t.Helper()
	res, err := d.s.Exec(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", stmt, err)
	}
	return res
}

func (d *db) mustFail(t testing.TB, stmt string, needle string) {
	t.Helper()
	_, err := d.s.Exec(stmt)
	if err == nil {
		t.Fatalf("exec %q succeeded, want error containing %q", stmt, needle)
	}
	if needle != "" && !strings.Contains(err.Error(), needle) {
		t.Fatalf("exec %q: error %q does not contain %q", stmt, err, needle)
	}
}

func setupEmp(t testing.TB, d *db, n int) {
	t.Helper()
	d.exec(t, `CREATE TABLE emp (
		empno INTEGER PRIMARY KEY,
		name VARCHAR(30),
		dept VARCHAR(10),
		salary FLOAT)`)
	d.exec(t, "BEGIN WORK")
	for i := 0; i < n; i++ {
		d.exec(t, fmt.Sprintf("INSERT INTO emp VALUES (%d, 'emp-%05d', '%s', %d)",
			i, i, []string{"SALES", "ENG", "HR"}[i%3], 1000*i))
	}
	d.exec(t, "COMMIT WORK")
}

func TestCreateInsertSelect(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 10)
	res := d.exec(t, "SELECT name, salary FROM emp WHERE empno = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "emp-00003" || res.Rows[0][1].F != 3000 {
		t.Fatalf("%+v", res.Rows)
	}
	if res.Columns[0] != "NAME" || res.Columns[1] != "SALARY" {
		t.Errorf("columns %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 5)
	res := d.exec(t, "SELECT * FROM emp")
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("%d rows, %v", len(res.Rows), res.Columns)
	}
}

func TestWherePaperExample(t *testing.T) {
	// SELECT NAME, HIRE_DATE FROM EMP WHERE EMPNO <= 1000 AND SALARY > 32000
	d := newDB(t)
	setupEmp(t, d, 100)
	res := d.exec(t, "SELECT name FROM emp WHERE empno <= 50 AND salary > 32000")
	if len(res.Rows) != 18 { // empno 33..50
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

func TestKeyRangeLimitsDPTraffic(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 100)
	d.c.DP("$DATA1").ResetStats()
	d.exec(t, "SELECT name FROM emp WHERE empno >= 10 AND empno < 20")
	st := d.c.DP("$DATA1").Stats()
	if st.RowsScanned > 12 {
		t.Errorf("key range not pushed: scanned %d rows for 10", st.RowsScanned)
	}
}

func TestPredicateFilteredAtDP(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 100)
	d.c.DP("$DATA1").ResetStats()
	res := d.exec(t, "SELECT name FROM emp WHERE salary > 90000")
	if len(res.Rows) != 9 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	st := d.c.DP("$DATA1").Stats()
	if st.RowsFiltered == 0 || st.RowsReturned != 9 {
		t.Errorf("filtering not at DP: %+v", st)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 20)
	res := d.exec(t, "SELECT empno FROM emp ORDER BY salary DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][0].I != 19 || res.Rows[2][0].I != 17 {
		t.Fatalf("%+v", res.Rows)
	}
	res = d.exec(t, "SELECT empno FROM emp ORDER BY name")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("%+v", res.Rows[0])
	}
	res = d.exec(t, "SELECT empno FROM emp LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("limit: %d", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 10) // salaries 0..9000
	res := d.exec(t, "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp")
	row := res.Rows[0]
	if row[0].I != 10 || row[1].AsFloat() != 45000 || row[2].F != 4500 || row[3].AsFloat() != 0 || row[4].AsFloat() != 9000 {
		t.Fatalf("%+v", row)
	}
	// Aggregates over empty set.
	res = d.exec(t, "SELECT COUNT(*), SUM(salary) FROM emp WHERE empno > 999")
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("%+v", res.Rows[0])
	}
}

func TestGroupBy(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 30)
	res := d.exec(t, "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept")
	if len(res.Rows) != 3 {
		t.Fatalf("%d groups", len(res.Rows))
	}
	if res.Rows[0][0].S != "ENG" || res.Rows[0][1].I != 10 {
		t.Fatalf("%+v", res.Rows[0])
	}
}

func TestCountDistinct(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 30)
	res := d.exec(t, "SELECT COUNT(DISTINCT dept) FROM emp")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("%+v", res.Rows[0])
	}
}

func TestUpdatePushdownPaperExample(t *testing.T) {
	// UPDATE ACCOUNT SET BALANCE = BALANCE * 1.07 WHERE BALANCE > 0
	d := newDB(t)
	d.exec(t, "CREATE TABLE account (acctno INTEGER PRIMARY KEY, balance FLOAT)")
	d.exec(t, "BEGIN")
	for i := 0; i < 50; i++ {
		d.exec(t, fmt.Sprintf("INSERT INTO account VALUES (%d, %d)", i, i*10))
	}
	d.exec(t, "COMMIT")
	d.c.Net.ResetStats()
	res := d.exec(t, "UPDATE account SET balance = balance * 1.07 WHERE balance > 0")
	if res.Affected != 49 {
		t.Fatalf("affected %d", res.Affected)
	}
	// Pushdown: the whole statement is a handful of messages, not 2/record.
	if msgs := d.c.Net.Stats().Requests; msgs > 6 {
		t.Errorf("subset update used %d messages", msgs)
	}
	r := d.exec(t, "SELECT balance FROM account WHERE acctno = 10")
	if r.Rows[0][0].F != 100*1.07 {
		t.Errorf("balance %v", r.Rows[0][0].F)
	}
}

func TestDeleteWithKeyRange(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 100)
	res := d.exec(t, "DELETE FROM emp WHERE empno >= 50")
	if res.Affected != 50 {
		t.Fatalf("affected %d", res.Affected)
	}
	r := d.exec(t, "SELECT COUNT(*) FROM emp")
	if r.Rows[0][0].I != 50 {
		t.Fatalf("count %v", r.Rows[0][0])
	}
}

func TestCheckConstraint(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE part (partno INTEGER PRIMARY KEY, quantity INTEGER, CHECK (quantity >= 0))")
	d.exec(t, "INSERT INTO part VALUES (1, 10)")
	d.mustFail(t, "INSERT INTO part VALUES (2, -1)", "CHECK")
	d.mustFail(t, "UPDATE part SET quantity = quantity - 100 WHERE partno = 1", "CHECK")
	// Autocommit rolled back: quantity unchanged.
	r := d.exec(t, "SELECT quantity FROM part WHERE partno = 1")
	if r.Rows[0][0].I != 10 {
		t.Fatalf("quantity %v", r.Rows[0][0])
	}
}

func TestTransactionsCommitRollback(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	d.exec(t, "BEGIN WORK")
	d.exec(t, "INSERT INTO t VALUES (1, 1)")
	d.exec(t, "ROLLBACK WORK")
	if r := d.exec(t, "SELECT COUNT(*) FROM t"); r.Rows[0][0].I != 0 {
		t.Fatal("rollback did not undo")
	}
	d.exec(t, "BEGIN WORK")
	d.exec(t, "INSERT INTO t VALUES (1, 1)")
	d.exec(t, "COMMIT WORK")
	if r := d.exec(t, "SELECT COUNT(*) FROM t"); r.Rows[0][0].I != 1 {
		t.Fatal("commit lost data")
	}
	d.mustFail(t, "COMMIT", "no transaction")
	d.mustFail(t, "ROLLBACK", "no transaction")
}

func TestPartitionedTableSQL(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE big (
		id INTEGER PRIMARY KEY, v VARCHAR(10)
	) PARTITION ON ("$DATA1", "$DATA2" FROM 100, "$DATA3" FROM 200)`)
	d.exec(t, "BEGIN")
	for i := 0; i < 300; i += 10 {
		d.exec(t, fmt.Sprintf("INSERT INTO big VALUES (%d, 'v%d')", i, i))
	}
	d.exec(t, "COMMIT")
	for vol, want := range map[string]int{"$DATA1": 10, "$DATA2": 10, "$DATA3": 10} {
		if n, _ := countFile(d.c.DP(vol), "BIG"); n != want {
			t.Errorf("%s: %d records", vol, n)
		}
	}
	r := d.exec(t, "SELECT COUNT(*) FROM big WHERE id >= 50 AND id < 250")
	if r.Rows[0][0].I != 20 {
		t.Fatalf("count %v", r.Rows[0][0])
	}
}

func TestSecondaryIndexViaSQL(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 50)
	d.exec(t, "CREATE INDEX emp_name ON emp (name)")
	// Probe through the index: message flow is index DP + base DP.
	d.c.Net.ResetStats()
	r := d.exec(t, "SELECT empno FROM emp WHERE name = 'emp-00042'")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 42 {
		t.Fatalf("%+v", r.Rows)
	}
	msgs := d.c.Net.Stats().Requests
	if msgs > 3 {
		t.Errorf("index probe used %d messages", msgs)
	}
	// The index is maintained by further DML.
	d.exec(t, "INSERT INTO emp VALUES (100, 'zz-new', 'ENG', 1)")
	r = d.exec(t, "SELECT empno FROM emp WHERE name = 'zz-new'")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 100 {
		t.Fatalf("index stale after insert: %+v", r.Rows)
	}
	d.exec(t, "UPDATE emp SET name = 'zz-renamed' WHERE empno = 100")
	r = d.exec(t, "SELECT empno FROM emp WHERE name = 'zz-renamed'")
	if len(r.Rows) != 1 {
		t.Fatalf("index stale after update: %+v", r.Rows)
	}
	d.exec(t, "DELETE FROM emp WHERE empno = 100")
	r = d.exec(t, "SELECT empno FROM emp WHERE name = 'zz-renamed'")
	if len(r.Rows) != 0 {
		t.Fatalf("index stale after delete: %+v", r.Rows)
	}
}

func TestJoinDecomposition(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE dept (deptno INTEGER PRIMARY KEY, dname VARCHAR(10), budget FLOAT)")
	d.exec(t, "CREATE TABLE staff (id INTEGER PRIMARY KEY, deptno INTEGER, sname VARCHAR(10))")
	d.exec(t, "BEGIN")
	for i := 0; i < 5; i++ {
		d.exec(t, fmt.Sprintf("INSERT INTO dept VALUES (%d, 'dept%d', %d)", i, i, 1000*i))
	}
	for i := 0; i < 20; i++ {
		d.exec(t, fmt.Sprintf("INSERT INTO staff VALUES (%d, %d, 'person%d')", i, i%5, i))
	}
	d.exec(t, "COMMIT")

	r := d.exec(t, `SELECT s.sname, d.dname FROM staff s, dept d
		WHERE s.deptno = d.deptno AND d.budget >= 3000`)
	if len(r.Rows) != 8 { // depts 3,4 × 4 staff each
		t.Fatalf("join rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1].S != "dept3" && row[1].S != "dept4" {
			t.Fatalf("wrong dept %v", row[1])
		}
	}
	// Inner access by key: the join instantiates d.deptno = const, so the
	// dept DP sees point requests, not full scans.
	r = d.exec(t, "SELECT COUNT(*) FROM staff s, dept d WHERE s.deptno = d.deptno")
	if r.Rows[0][0].I != 20 {
		t.Fatalf("count %v", r.Rows[0][0])
	}
}

func TestJoinStar(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE a (k INTEGER PRIMARY KEY, x INTEGER)")
	d.exec(t, "CREATE TABLE b (k INTEGER PRIMARY KEY, y INTEGER)")
	d.exec(t, "INSERT INTO a VALUES (1, 10)")
	d.exec(t, "INSERT INTO b VALUES (1, 20)")
	r := d.exec(t, "SELECT * FROM a, b WHERE a.k = b.k")
	if len(r.Rows) != 1 || len(r.Columns) != 4 {
		t.Fatalf("%v %v", r.Columns, r.Rows)
	}
}

func TestInExpansion(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 20)
	r := d.exec(t, "SELECT COUNT(*) FROM emp WHERE empno IN (1, 5, 9, 999)")
	if r.Rows[0][0].I != 3 {
		t.Fatalf("%v", r.Rows[0][0])
	}
}

func TestBetweenAndLike(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 30)
	r := d.exec(t, "SELECT COUNT(*) FROM emp WHERE empno BETWEEN 10 AND 19")
	if r.Rows[0][0].I != 10 {
		t.Fatalf("%v", r.Rows[0][0])
	}
	r = d.exec(t, "SELECT COUNT(*) FROM emp WHERE name LIKE 'emp-0000%'")
	if r.Rows[0][0].I != 10 {
		t.Fatalf("%v", r.Rows[0][0])
	}
	r = d.exec(t, "SELECT COUNT(*) FROM emp WHERE empno NOT BETWEEN 10 AND 19")
	if r.Rows[0][0].I != 20 {
		t.Fatalf("%v", r.Rows[0][0])
	}
}

func TestNullHandling(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE n (k INTEGER PRIMARY KEY, v INTEGER)")
	d.exec(t, "INSERT INTO n VALUES (1, NULL), (2, 5)")
	r := d.exec(t, "SELECT COUNT(*) FROM n WHERE v IS NULL")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("%v", r.Rows[0][0])
	}
	r = d.exec(t, "SELECT COUNT(*) FROM n WHERE v = 5")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("%v", r.Rows[0][0])
	}
	// NULL comparisons don't match.
	r = d.exec(t, "SELECT COUNT(*) FROM n WHERE v <> 5")
	if r.Rows[0][0].I != 0 {
		t.Fatalf("%v", r.Rows[0][0])
	}
	r = d.exec(t, "SELECT COUNT(v) FROM n")
	if r.Rows[0][0].I != 1 {
		t.Fatalf("COUNT(v) %v", r.Rows[0][0])
	}
}

func TestInsertColumnList(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY, a VARCHAR(5), b INTEGER)")
	d.exec(t, "INSERT INTO t (b, k) VALUES (42, 1)")
	r := d.exec(t, "SELECT a, b FROM t WHERE k = 1")
	if !r.Rows[0][0].IsNull() || r.Rows[0][1].I != 42 {
		t.Fatalf("%+v", r.Rows[0])
	}
}

func TestMultiRowInsert(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	res := d.exec(t, "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
	if res.Affected != 3 {
		t.Fatalf("affected %d", res.Affected)
	}
}

func TestDropTable(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY)")
	d.exec(t, "DROP TABLE t")
	d.mustFail(t, "SELECT * FROM t", "no such table")
	// Can recreate.
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY)")
}

func TestErrorCases(t *testing.T) {
	d := newDB(t)
	d.mustFail(t, "CREATE TABLE bad (a INTEGER)", "PRIMARY KEY")
	d.mustFail(t, "SELECT * FROM nope", "no such table")
	d.exec(t, "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
	d.mustFail(t, "SELECT zzz FROM t", "no column")
	d.mustFail(t, "INSERT INTO t VALUES (1)", "")
	d.mustFail(t, "INSERT INTO t (nope) VALUES (1)", "no column")
	d.mustFail(t, "UPDATE t SET nope = 1", "no column")
	d.exec(t, "INSERT INTO t VALUES (1, 2)")
	d.mustFail(t, "INSERT INTO t VALUES (1, 3)", "duplicate")
	d.mustFail(t, "SELECT v FROM t GROUP BY v ORDER BY nope", "")
	d.mustFail(t, "SELECT * FROM t WHERE", "")
	d.mustFail(t, "BOGUS STATEMENT", "")
}

func TestParserRoundTrips(t *testing.T) {
	good := []string{
		"SELECT 1 + 2 * 3 FROM t",
		"SELECT a FROM t WHERE NOT (a = 1 OR b = 2) AND c LIKE 'x%'",
		"SELECT -a FROM t WHERE a BETWEEN -5 AND 5",
		"select lower_case from t where x = 'it''s quoted'",
		"SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10",
		"SELECT a FROM t FOR BROWSE ACCESS",
		"DELETE FROM t",
		"UPDATE t SET a = a + 1, b = 2 WHERE c IS NOT NULL",
		"CREATE TABLE x (a INT NOT NULL, b CHAR(10), PRIMARY KEY (a), CHECK (a > 0))",
		"-- comment\nSELECT a FROM t",
	}
	for _, src := range good {
		if _, err := sql.Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	bad := []string{
		"",
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE a = ",
		"INSERT INTO t",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT a FROM t LIMIT -1",
		"SELECT a FROM t1, t2, t3",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t; extra",
	}
	for _, src := range bad {
		if _, err := sql.Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestBrowseAccessTakesNoLocks(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 10)
	// Writer holds X lock on a record.
	d.exec(t, "BEGIN")
	d.exec(t, "UPDATE emp SET salary = 1 WHERE empno = 5")
	// Another session browsing must not block.
	s2 := sql.NewSession(d.cat, d.c.NewFS(0, 1))
	res, err := s2.Exec("SELECT COUNT(*) FROM emp FOR BROWSE ACCESS")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 10 {
		t.Fatalf("%v", res.Rows[0][0])
	}
	d.exec(t, "COMMIT")
}

func TestFormatResult(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 3)
	res := d.exec(t, "SELECT empno, name FROM emp ORDER BY empno")
	out := sql.FormatResult(res)
	if !strings.Contains(out, "EMPNO") || !strings.Contains(out, "emp-00002") || !strings.Contains(out, "3 row(s)") {
		t.Errorf("format:\n%s", out)
	}
	res2 := d.exec(t, "DELETE FROM emp WHERE empno = 0")
	if !strings.Contains(sql.FormatResult(res2), "1 row(s) affected") {
		t.Error("affected format")
	}
}

func TestValueExprInSelect(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 5)
	r := d.exec(t, "SELECT empno * 2 + 1 AS x FROM emp WHERE empno = 3")
	if r.Columns[0] != "x" || r.Rows[0][0].I != 7 {
		t.Fatalf("%v %v", r.Columns, r.Rows)
	}
}

func TestConcurrentSessions(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE c (k INTEGER PRIMARY KEY, v INTEGER)")
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(base int) {
			s := sql.NewSession(d.cat, d.c.NewFS(0, base%4))
			for i := 0; i < 25; i++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", base*1000+i, i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	r := d.exec(t, "SELECT COUNT(*) FROM c")
	if r.Rows[0][0].I != 100 {
		t.Fatalf("count %v", r.Rows[0][0])
	}
}

func TestRecordTypesThroughSQL(t *testing.T) {
	d := newDB(t)
	d.exec(t, "CREATE TABLE types (k INTEGER PRIMARY KEY, f FLOAT, s VARCHAR(20), b BOOLEAN)")
	d.exec(t, "INSERT INTO types VALUES (1, 2.5, 'hello', TRUE)")
	d.exec(t, "INSERT INTO types VALUES (2, -0.5, '', FALSE)")
	r := d.exec(t, "SELECT f, s, b FROM types WHERE k = 1")
	row := r.Rows[0]
	if row[0].F != 2.5 || row[1].S != "hello" || row[2].Kind != record.TypeBool || !row[2].B {
		t.Fatalf("%+v", row)
	}
}

func TestOrderByLargeUsesFastSort(t *testing.T) {
	// Results beyond the FastSort threshold sort through the parallel
	// sorter; correctness must be identical to the in-place path.
	d := newDB(t)
	d.exec(t, "CREATE TABLE big (k INTEGER PRIMARY KEY, v INTEGER)")
	d.exec(t, "BEGIN")
	for i := 0; i < 5000; i++ {
		d.exec(t, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, (i*7919)%5000))
	}
	d.exec(t, "COMMIT")
	res := d.exec(t, "SELECT k, v FROM big ORDER BY v DESC")
	if len(res.Rows) != 5000 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].I < res.Rows[i][1].I {
			t.Fatalf("order broken at %d", i)
		}
	}
	// An ORDER BY key that fails to evaluate on one row fails the
	// statement, whether the result sorts in place (100 rows) or in
	// parallel runs (5 000): row k = 50 has v = 950.
	for _, where := range []string{"WHERE k < 100", ""} {
		d.mustFail(t, "SELECT k, v FROM big "+where+" ORDER BY 1 / (v - 950)", "division by zero")
	}
}

func TestExplain(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 10)
	d.exec(t, "CREATE INDEX emp_name ON emp (name)")

	out, err := d.s.Explain("SELECT name FROM emp WHERE empno <= 50 AND salary > 32000")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"primary-key range", "VSBB", "predicate at Disk Process", "SALARY"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}

	out, err = d.s.Explain("SELECT * FROM emp WHERE name = 'emp-00003'")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index probe") || !strings.Contains(out, "EMP_NAME") {
		t.Errorf("explain missing index probe:\n%s", out)
	}

	out, err = d.s.Explain("UPDATE emp SET salary = salary * 1.07 WHERE salary > 0")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UPDATE^SUBSET", "update expression at Disk Process", "never cross"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}

	out, err = d.s.Explain("UPDATE emp SET name = 'x' WHERE empno = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "requester-side") {
		t.Errorf("indexed-column update should fall back:\n%s", out)
	}

	out, err = d.s.Explain("DELETE FROM emp WHERE empno < 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "requester-side") { // emp has an index
		t.Errorf("indexed delete should fall back:\n%s", out)
	}

	d.exec(t, "CREATE TABLE plain (k INTEGER PRIMARY KEY, v INTEGER)")
	out, err = d.s.Explain("DELETE FROM plain WHERE k < 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DELETE^SUBSET") {
		t.Errorf("unindexed delete should push down:\n%s", out)
	}

	d.exec(t, "CREATE TABLE dept2 (deptno INTEGER PRIMARY KEY, dname VARCHAR(10))")
	out, err = d.s.Explain("SELECT e.name, d.dname FROM emp e, dept2 d WHERE e.empno = d.deptno AND e.salary > 0")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"decomposed into single-variable queries", "outer:", "inner", "join conjuncts"} {
		if !strings.Contains(out, want) {
			t.Errorf("join explain missing %q:\n%s", want, out)
		}
	}

	if _, err := d.s.Explain("INSERT INTO emp VALUES (1,2,3,4)"); err == nil {
		t.Error("EXPLAIN INSERT accepted")
	}
	if _, err := d.s.Explain("SELECT * FROM nope"); err == nil {
		t.Error("EXPLAIN of unknown table accepted")
	}
}

func TestDeadlockDetectedAtSQLLevel(t *testing.T) {
	// Two sessions update two records in opposite order; the lock
	// manager's wait-for graph breaks the cycle by rejecting one
	// requester, whose transaction then rolls back cleanly.
	d := newDB(t)
	d.exec(t, "CREATE TABLE dl (k INTEGER PRIMARY KEY, v INTEGER)")
	d.exec(t, "INSERT INTO dl VALUES (1, 0), (2, 0)")

	s1 := d.s
	s2 := sql.NewSession(d.cat, d.c.NewFS(0, 1))

	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("UPDATE dl SET v = 1 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec("UPDATE dl SET v = 2 WHERE k = 2"); err != nil {
		t.Fatal(err)
	}

	// s1 → k=2 (blocks on s2); s2 → k=1 (cycle).
	errCh := make(chan error, 1)
	go func() {
		_, err := s1.Exec("UPDATE dl SET v = 1 WHERE k = 2")
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	_, err2 := s2.Exec("UPDATE dl SET v = 2 WHERE k = 1")
	err1 := <-errCh

	// At least one side must have been refused (deadlock or timeout).
	if err1 == nil && err2 == nil {
		t.Fatal("both sides of the deadlock succeeded")
	}
	// The refused side rolls back; the survivor commits.
	finish := func(s *sql.Session, failed bool) {
		if failed {
			s.Exec("ROLLBACK")
		} else if _, err := s.Exec("COMMIT"); err != nil {
			t.Fatalf("survivor commit: %v", err)
		}
	}
	finish(s1, err1 != nil)
	finish(s2, err2 != nil)

	// Database still consistent and fully unlocked.
	res := d.exec(t, "SELECT COUNT(*) FROM dl")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count %v", res.Rows[0][0])
	}
	d.exec(t, "UPDATE dl SET v = 9 WHERE k = 1")
	d.exec(t, "UPDATE dl SET v = 9 WHERE k = 2")
}

func TestHaving(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 30) // depts SALES/ENG/HR, 10 each
	// HAVING on an aggregate not in the select list.
	res := d.exec(t, "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) >= 10 ORDER BY dept")
	if len(res.Rows) != 3 || len(res.Columns) != 1 {
		t.Fatalf("%v %v", res.Columns, res.Rows)
	}
	// Filtering works: only ENG has avg salary of a particular shape.
	res = d.exec(t, "SELECT dept, AVG(salary) FROM emp GROUP BY dept HAVING AVG(salary) > 14000")
	for _, row := range res.Rows {
		if row[1].F <= 14000 {
			t.Fatalf("HAVING leaked group %v", row)
		}
	}
	// HAVING referencing the group-by column itself.
	res = d.exec(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING dept = 'ENG'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "ENG" {
		t.Fatalf("%+v", res.Rows)
	}
	// HAVING over the whole table (single group).
	res = d.exec(t, "SELECT COUNT(*) FROM emp HAVING COUNT(*) > 1000")
	if len(res.Rows) != 0 {
		t.Fatalf("HAVING over empty-qualifying single group: %+v", res.Rows)
	}
	res = d.exec(t, "SELECT COUNT(*) FROM emp HAVING COUNT(*) = 30")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 30 {
		t.Fatalf("%+v", res.Rows)
	}
	// HAVING referencing a non-grouped column is rejected.
	d.mustFail(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING salary > 0", "HAVING")
}

func TestDescribe(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE dsc (
		k INTEGER PRIMARY KEY, v FLOAT, CHECK (v >= 0)
	) PARTITION ON ("$DATA1", "$DATA2" FROM 100)`)
	d.exec(t, "CREATE INDEX dsc_v ON dsc (v)")
	out, err := d.cat.Describe("dsc")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TABLE DSC", "primary key", "CHECK", "PARTITION on $DATA1", "from 100", "INDEX DSC_V", "field-compressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
	if _, err := d.cat.Describe("nope"); err == nil {
		t.Error("describe of unknown table accepted")
	}
}

func TestWisconsinStyleJoin(t *testing.T) {
	// The Wisconsin joinAselB shape: join two relations on unique1 =
	// unique2 with a selection on one side.
	d := newDB(t)
	d.exec(t, "CREATE TABLE wa (unique2 INTEGER PRIMARY KEY, unique1 INTEGER NOT NULL, ten INTEGER)")
	d.exec(t, "CREATE TABLE wb (unique2 INTEGER PRIMARY KEY, unique1 INTEGER NOT NULL, ten INTEGER)")
	d.exec(t, "BEGIN")
	for i := 0; i < 200; i++ {
		u1 := (i * 37) % 200
		d.exec(t, fmt.Sprintf("INSERT INTO wa VALUES (%d, %d, %d)", i, u1, u1%10))
		d.exec(t, fmt.Sprintf("INSERT INTO wb VALUES (%d, %d, %d)", i, u1, u1%10))
	}
	d.exec(t, "COMMIT")
	// joinAselB: A.unique1 = B.unique2 AND A.unique2 < 20 — the inner
	// side becomes a primary-key probe per outer row.
	res := d.exec(t, `SELECT COUNT(*) FROM wa a, wb b
		WHERE a.unique1 = b.unique2 AND a.unique2 < 20`)
	if res.Rows[0][0].I != 20 {
		t.Fatalf("join count %v", res.Rows[0][0])
	}
	// Verify the inner accesses were key probes: few rows scanned on the
	// inner table's DP relative to a full scan per outer row.
	d.c.DP("$DATA2").ResetStats()
	d.c.DP("$DATA1").ResetStats()
	d.exec(t, `SELECT COUNT(*) FROM wa a, wb b
		WHERE a.unique1 = b.unique2 AND a.unique2 < 20`)
	total := d.c.DP("$DATA1").Stats().RowsScanned + d.c.DP("$DATA2").Stats().RowsScanned
	// 20 outer + 20 inner point probes ≈ 40, far from 20*200 = 4000.
	if total > 100 {
		t.Errorf("join not decomposed into point probes: %d rows scanned", total)
	}
}

func TestCompositePrimaryKey(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE orders (
		custno INTEGER NOT NULL,
		ordno INTEGER NOT NULL,
		item VARCHAR(20),
		qty INTEGER,
		PRIMARY KEY (custno, ordno))`)
	d.exec(t, "BEGIN")
	for c := 0; c < 10; c++ {
		for o := 0; o < 20; o++ {
			d.exec(t, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'item%d', %d)", c, o, o, c*o))
		}
	}
	d.exec(t, "COMMIT")

	// Equality on the leading key column becomes a PREFIX range at the
	// Disk Process: only that customer's records are scanned.
	d.c.DP("$DATA1").ResetStats()
	res := d.exec(t, "SELECT ordno FROM orders WHERE custno = 7")
	if len(res.Rows) != 20 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if scanned := d.c.DP("$DATA1").Stats().RowsScanned; scanned > 25 {
		t.Errorf("prefix range not pushed: scanned %d rows", scanned)
	}
	// Composite equality is a point lookup.
	res = d.exec(t, "SELECT item FROM orders WHERE custno = 3 AND ordno = 4")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "item4" {
		t.Fatalf("%+v", res.Rows)
	}
	// Prefix + range on second column.
	res = d.exec(t, "SELECT COUNT(*) FROM orders WHERE custno = 2 AND ordno >= 15")
	if res.Rows[0][0].I != 5 {
		t.Fatalf("%v", res.Rows[0][0])
	}
	// Updates and deletes route by the composite key.
	d.exec(t, "UPDATE orders SET qty = 999 WHERE custno = 1 AND ordno = 1")
	res = d.exec(t, "SELECT qty FROM orders WHERE custno = 1 AND ordno = 1")
	if res.Rows[0][0].I != 999 {
		t.Fatalf("%v", res.Rows[0][0])
	}
	res = d.exec(t, "DELETE FROM orders WHERE custno = 5")
	if res.Affected != 20 {
		t.Fatalf("deleted %d", res.Affected)
	}
	res = d.exec(t, "SELECT COUNT(*) FROM orders")
	if res.Rows[0][0].I != 180 {
		t.Fatalf("%v", res.Rows[0][0])
	}
	// EXPLAIN shows the prefix range.
	out, err := d.s.Explain("SELECT * FROM orders WHERE custno = 7")
	if err != nil || !strings.Contains(out, "primary-key range") {
		t.Errorf("explain: %v\n%s", err, out)
	}
}

func TestParserNeverPanics(t *testing.T) {
	// Parser robustness: random mutations of valid statements and raw
	// noise must produce errors, never panics.
	seeds := []string{
		"SELECT a, b FROM t WHERE a = 1 AND b LIKE 'x%' ORDER BY a LIMIT 5",
		"CREATE TABLE t (a INT PRIMARY KEY, b CHAR(10), CHECK (a > 0)) PARTITION ON (\"$V\", \"$W\" FROM 10)",
		"UPDATE t SET a = a + 1 WHERE b BETWEEN 1 AND 2",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"SELECT COUNT(*), dept FROM emp GROUP BY dept HAVING COUNT(*) > 3",
	}
	rng := rand.New(rand.NewSource(42))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	for i := 0; i < 5000; i++ {
		src := seeds[rng.Intn(len(seeds))]
		b := []byte(src)
		for m := 0; m < 1+rng.Intn(5); m++ {
			switch rng.Intn(3) {
			case 0: // delete a byte
				if len(b) > 1 {
					p := rng.Intn(len(b))
					b = append(b[:p], b[p+1:]...)
				}
			case 1: // mutate a byte
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			case 2: // duplicate a span
				p := rng.Intn(len(b))
				b = append(b[:p], append([]byte(string(b[p:])), b[p:]...)...)
				if len(b) > 500 {
					b = b[:500]
				}
			}
		}
		_, _ = sql.Parse(string(b)) // outcome irrelevant; must not panic
	}
}

func TestIndexedDeleteUsesProbe(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 200)
	d.exec(t, "CREATE INDEX emp_name2 ON emp (name)")
	d.c.DP("$DATA1").ResetStats()
	res := d.exec(t, "DELETE FROM emp WHERE name = 'emp-00042'")
	if res.Affected != 1 {
		t.Fatalf("affected %d", res.Affected)
	}
	// The base DP must see a point read + delete, not a 200-row scan.
	if scanned := d.c.DP("$DATA1").Stats().RowsScanned; scanned > 5 {
		t.Errorf("indexed delete scanned %d rows", scanned)
	}
	// Index entry gone too.
	r := d.exec(t, "SELECT COUNT(*) FROM emp WHERE name = 'emp-00042'")
	if r.Rows[0][0].I != 0 {
		t.Fatalf("%v", r.Rows[0][0])
	}
}

func TestIndexedUpdateUsesProbe(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 200)
	d.exec(t, "CREATE INDEX emp_name3 ON emp (name)")
	d.c.DP("$DATA1").ResetStats()
	// SET targets the indexed column: requester-side path, probed.
	res := d.exec(t, "UPDATE emp SET name = 'renamed' WHERE name = 'emp-00042'")
	if res.Affected != 1 {
		t.Fatalf("affected %d", res.Affected)
	}
	if scanned := d.c.DP("$DATA1").Stats().RowsScanned; scanned > 5 {
		t.Errorf("indexed update scanned %d rows", scanned)
	}
	r := d.exec(t, "SELECT empno FROM emp WHERE name = 'renamed'")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 42 {
		t.Fatalf("%+v", r.Rows)
	}
}

// countFile returns the number of records in one file fragment of d.
func countFile(d *dp.DP, file string) (int, error) {
	rows, err := d.DumpFile(file)
	return len(rows), err
}
