package nonstopsql_test

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"nonstopsql"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/record"
)

func dialServed(t *testing.T) (*nonstopsql.Database, *nsqlclient.Pool) {
	t.Helper()
	db, err := nonstopsql.Open(nonstopsql.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: 2, ReplyTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return db, pool
}

// TestPreparedOverTCP drives the full remote statement lifecycle:
// prepare, execute with parameters, byte-identical results against
// ad-hoc execution, and close.
func TestPreparedOverTCP(t *testing.T) {
	db, pool := dialServed(t)
	if _, err := pool.Exec(`CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), dept VARCHAR(10), salary FLOAT)`); err != nil {
		t.Fatal(err)
	}

	ins, err := pool.Prepare(`INSERT INTO emp VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 4 {
		t.Fatalf("NumParams = %d, want 4", ins.NumParams())
	}
	for i := 1; i <= 30; i++ {
		_, err := ins.Exec(record.Int(int64(i)), record.String("e"+fmt.Sprint(i)),
			record.String([]string{"eng", "mfg", "hq"}[i%3]), record.Float(float64(1000*i)))
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	// Differential: every query answered identically prepared vs ad-hoc.
	cases := []struct {
		adhoc string
		prep  string
		args  []record.Value
	}{
		{`SELECT name, salary FROM emp WHERE empno = 7`,
			`SELECT name, salary FROM emp WHERE empno = ?`, []record.Value{record.Int(7)}},
		{`SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept`,
			`SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept`, nil},
		{`SELECT empno FROM emp WHERE salary > 20000 AND dept = 'eng' ORDER BY empno`,
			`SELECT empno FROM emp WHERE salary > ? AND dept = ? ORDER BY empno`,
			[]record.Value{record.Float(20000), record.String("eng")}},
		{`SELECT COUNT(*) FROM emp WHERE empno >= 5 AND empno < 25`,
			`SELECT COUNT(*) FROM emp WHERE empno >= ? AND empno < ?`,
			[]record.Value{record.Int(5), record.Int(25)}},
		// A unique key is a READ; the literal twin names the same record
		// by a point range, which still opens a subset conversation. Hit,
		// miss, NULL, an integral FLOAT value on the INTEGER key (which
		// narrows to the integer and finds the record), a residual
		// predicate true and false, LIMIT 0.
		{`SELECT * FROM emp WHERE empno >= 7 AND empno <= 7`,
			`SELECT * FROM emp WHERE empno = ?`, []record.Value{record.Int(7)}},
		{`SELECT name FROM emp WHERE empno >= 31 AND empno <= 31`,
			`SELECT name FROM emp WHERE empno = ?`, []record.Value{record.Int(31)}},
		{`SELECT name FROM emp WHERE empno >= NULL AND empno <= NULL`,
			`SELECT name FROM emp WHERE empno = ?`, []record.Value{record.Null}},
		{`SELECT name FROM emp WHERE empno >= 7.0 AND empno <= 7.0`,
			`SELECT name FROM emp WHERE empno = ?`, []record.Value{record.Float(7)}},
		{`SELECT name, dept FROM emp WHERE empno >= 6 AND empno <= 6 AND dept = 'eng'`,
			`SELECT name, dept FROM emp WHERE empno = ? AND dept = ?`, []record.Value{record.Int(6), record.String("eng")}},
		{`SELECT name, dept FROM emp WHERE empno >= 7 AND empno <= 7 AND dept = 'eng'`,
			`SELECT name, dept FROM emp WHERE empno = ? AND dept = ?`, []record.Value{record.Int(7), record.String("eng")}},
		{`SELECT name FROM emp WHERE empno >= 7 AND empno <= 7 LIMIT 0`,
			`SELECT name FROM emp WHERE empno = ? LIMIT 0`, []record.Value{record.Int(7)}},
	}
	inproc := db.Session(0, 0)
	for _, c := range cases {
		adhoc, err := pool.Exec(c.adhoc)
		if err != nil {
			t.Fatalf("%q ad-hoc: %v", c.adhoc, err)
		}
		// The same statement in process, on the same database.
		local, err := inproc.Exec(c.adhoc)
		if err != nil {
			t.Fatalf("%q in process: %v", c.adhoc, err)
		}
		if got, want := nonstopsql.FormatResult(local), nonstopsql.FormatResult(adhoc); got != want {
			t.Errorf("%q in process diverges from TCP\nin process:\n%s\nTCP:\n%s", c.adhoc, got, want)
		}
		st, err := pool.Prepare(c.prep)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", c.prep, err)
		}
		prep, err := st.Exec(c.args...)
		if err != nil {
			t.Fatalf("Exec(%q): %v", c.prep, err)
		}
		got, want := nonstopsql.FormatResult(prep), nonstopsql.FormatResult(adhoc)
		if got != want {
			t.Errorf("%q diverges over TCP\nprepared:\n%s\nad-hoc:\n%s", c.prep, got, want)
		}
	}

	// Preparing the same text again reuses the client-side Stmt (no new
	// server handle) and the server-side plan.
	a, _ := pool.Prepare(cases[0].prep)
	b, _ := pool.Prepare(cases[0].prep)
	if a != b {
		t.Error("pool.Prepare of identical text returned distinct Stmts")
	}

	// Prepared update round-trips.
	upd, err := pool.Prepare(`UPDATE emp SET salary = salary + ? WHERE empno = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := upd.Exec(record.Float(111), record.Int(3))
	if err != nil || res.Affected != 1 {
		t.Fatalf("prepared update: affected=%v err=%v", res, err)
	}

	// The executes above were served by cached compilations.
	if st := db.Stats().PlanCache; st.Hits == 0 {
		t.Errorf("no plan cache hits after prepared traffic: %+v", st)
	}

	// Close discards the server handle; the next Exec on the same Stmt
	// transparently re-prepares through the stale-handle retry.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedDifferentialMatrixTCP replays the PR 6 differential
// suites over the TCP serving path: each query answered by ad-hoc Exec
// and by a prepared statement must format byte-identically. (The same
// matrix runs in-process in internal/sql; this pins the wire transport
// on top.)
func TestPreparedDifferentialMatrixTCP(t *testing.T) {
	_, pool := dialServed(t)
	mustExec := func(stmt string) {
		t.Helper()
		if _, err := pool.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
	}
	mustExec(`CREATE TABLE m (
		id INTEGER PRIMARY KEY,
		dept VARCHAR(10),
		grade INTEGER,
		pay FLOAT,
		bonus INTEGER) PARTITION ON ("$DATA1", "$DATA2" FROM 100, "$DATA3" FROM 200)`)
	mustExec(`CREATE TABLE outr (id INTEGER PRIMARY KEY, fk INTEGER, tag VARCHAR(10))`)
	mustExec(`CREATE TABLE innr (k INTEGER PRIMARY KEY, label VARCHAR(10), wt INTEGER)
		PARTITION ON ("$DATA1", "$DATA2" FROM 40)`)
	mustExec(`CREATE INDEX innr_label ON innr (label)`)

	insM, err := pool.Prepare(`INSERT INTO m VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 180; i++ {
		dept := record.String([]string{"SALES", "ENG", "HR"}[i%4%3])
		if i%4 == 3 {
			dept = record.Null
		}
		bonus := record.Int(int64(i % 7))
		if i%5 == 0 {
			bonus = record.Null
		}
		if _, err := insM.Exec(record.Int(int64(i)), dept, record.Int(int64(i%3)),
			record.Float(float64(i)+0.5), bonus); err != nil {
			t.Fatalf("insert m %d: %v", i, err)
		}
	}
	for i := 0; i < 80; i++ {
		mustExec(fmt.Sprintf(`INSERT INTO innr VALUES (%d, 'L%d', %d)`, i, i%10, i))
	}
	for i := 0; i < 60; i++ {
		fk := fmt.Sprint((i * 7) % 80)
		if i%9 == 0 {
			fk = "NULL"
		}
		mustExec(fmt.Sprintf(`INSERT INTO outr VALUES (%d, %s, 'L%d')`, i, fk, i%10))
	}
	// Group keys the Disk Process finds by value (a lone INTEGER) and by
	// key bytes (everything else): NULLs, both signs, the INTEGER extremes.
	mustExec(`CREATE TABLE gk (id INTEGER PRIMARY KEY, n INTEGER, f FLOAT, s VARCHAR(10))
		PARTITION ON ("$DATA1", "$DATA2" FROM 50)`)
	insGK, err := pool.Prepare(`INSERT INTO gk VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	gkInts := []record.Value{record.Null, record.Int(0), record.Int(-1), record.Int(math.MinInt64), record.Int(math.MaxInt64),
		record.Int(7), record.Int(-7), record.Int(1 << 40), record.Int(-(1 << 40)), record.Int(12), record.Int(math.MinInt64 + 1)}
	for i := 0; i < 100; i++ {
		f, s := record.Float(float64(i%6-3)/2), record.String([]string{"a", "b", "", "zz"}[i%4])
		if i%7 == 0 {
			f = record.Null
		}
		if i%9 == 0 {
			s = record.Null
		}
		if _, err := insGK.Exec(record.Int(int64(i)), gkInts[i%len(gkInts)], f, s); err != nil {
			t.Fatalf("insert gk %d: %v", i, err)
		}
	}

	queries := []string{
		"SELECT COUNT(*) FROM m",
		"SELECT COUNT(bonus) FROM m",
		"SELECT SUM(bonus) FROM m",
		"SELECT MIN(pay), MAX(pay) FROM m",
		"SELECT AVG(pay) FROM m",
		"SELECT dept, COUNT(*) FROM m GROUP BY dept",
		"SELECT dept, COUNT(bonus), SUM(bonus) FROM m GROUP BY dept",
		"SELECT dept, MIN(pay), MAX(dept) FROM m GROUP BY dept",
		"SELECT dept, AVG(pay) FROM m GROUP BY dept",
		"SELECT dept, grade, COUNT(*), SUM(bonus) FROM m GROUP BY dept, grade",
		"SELECT dept, COUNT(*) FROM m WHERE pay > 50 GROUP BY dept",
		"SELECT dept, COUNT(*) FROM m WHERE pay < -1000 GROUP BY dept",
		"SELECT SUM(bonus), MIN(bonus), MAX(bonus), COUNT(*) FROM m WHERE pay < -1000",
		"SELECT dept, SUM(pay) FROM m GROUP BY dept HAVING COUNT(*) > 20",
		"SELECT dept, COUNT(*) FROM m GROUP BY dept ORDER BY dept DESC",
		"SELECT dept, COUNT(*) FROM m GROUP BY dept ORDER BY COUNT(*) DESC LIMIT 2",
		"SELECT grade, MAX(pay) FROM m WHERE id >= 150 AND id < 250 GROUP BY grade",
		"SELECT bonus, COUNT(*), SUM(pay) FROM m GROUP BY bonus",
		"SELECT id, COUNT(*), MAX(dept) FROM m GROUP BY id",
		"SELECT COUNT(DISTINCT dept) FROM m",
		"SELECT dept, COUNT(DISTINCT grade) FROM m GROUP BY dept",
		"SELECT n, COUNT(*), SUM(f), MIN(s) FROM gk GROUP BY n",
		"SELECT n, s, COUNT(*), MAX(f) FROM gk GROUP BY n, s",
		"SELECT f, COUNT(*), SUM(id), MIN(n) FROM gk GROUP BY f",
		"SELECT s, COUNT(n), MIN(n), MAX(n) FROM gk GROUP BY s",
		"SELECT o.id, i.label FROM outr o, innr i WHERE o.fk = i.k ORDER BY o.id",
		"SELECT COUNT(*) FROM outr o, innr i WHERE o.fk = i.k",
		"SELECT o.id, i.wt FROM outr o, innr i WHERE o.fk = i.k AND i.wt > 40 ORDER BY o.id",
		"SELECT o.id, i.k FROM outr o, innr i WHERE o.tag = i.label ORDER BY o.id, i.k",
		"SELECT COUNT(*) FROM outr o, innr i WHERE o.tag = i.label AND i.wt < 30",
		"SELECT o.id FROM outr o, innr i WHERE o.fk = i.k AND o.id = i.wt ORDER BY o.id",
		// Requester-side folds: a DISTINCT in HAVING and in ORDER BY, an
		// expression argument, a GROUP BY over a join.
		"SELECT dept, COUNT(dept) FROM m GROUP BY dept HAVING COUNT(DISTINCT dept) = 1",
		"SELECT grade, COUNT(grade), COUNT(DISTINCT grade) FROM m WHERE id < 10 GROUP BY grade ORDER BY COUNT(DISTINCT grade), grade",
		"SELECT dept, SUM(pay + 1) FROM m GROUP BY dept",
		"SELECT i.label, COUNT(*), SUM(o.id), MAX(i.wt) FROM outr o, innr i WHERE o.fk = i.k GROUP BY i.label",
		// An index probe, pass-through and materialised.
		"SELECT wt, k FROM innr WHERE label = 'L3'",
		"SELECT k, label FROM innr WHERE label = 'L6' AND wt > 20 LIMIT 3",
		"SELECT label, wt + 1 FROM innr WHERE label = 'L7'",
		// Pass-through: the endpoint forwards these rows as the Disk
		// Processes encoded them.
		"SELECT pay, id FROM m WHERE id >= 20 AND id < 140",
		"SELECT * FROM m WHERE bonus > 3",
		"SELECT bonus, dept, id FROM m LIMIT 7",
		"SELECT pay, dept FROM m WHERE id = 42",
	}
	for _, q := range queries {
		adhoc, err := pool.Exec(q)
		if err != nil {
			t.Fatalf("%q ad-hoc: %v", q, err)
		}
		st, err := pool.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", q, err)
		}
		prep, err := st.Exec()
		if err != nil {
			t.Fatalf("Exec(%q): %v", q, err)
		}
		if got, want := nonstopsql.FormatResult(prep), nonstopsql.FormatResult(adhoc); got != want {
			t.Errorf("%q diverges over TCP\nprepared:\n%s\nad-hoc:\n%s", q, got, want)
		}
	}

	// Markers outside WHERE/HAVING (select list, aggregate argument,
	// GROUP BY, ORDER BY, a join's select list): the literal twin's header
	// and cells must come back when the constant travels as an argument.
	for _, c := range []struct {
		adhoc string
		prep  string
		args  []record.Value
	}{
		{"SELECT pay, id FROM m WHERE id >= 20 AND id < 140 AND grade < 2",
			"SELECT pay, id FROM m WHERE id >= ? AND id < ? AND grade < ?",
			[]record.Value{record.Int(20), record.Int(140), record.Int(2)}},
		{"SELECT id, 7 FROM m WHERE id < 5 ORDER BY id",
			"SELECT id, ? FROM m WHERE id < 5 ORDER BY id",
			[]record.Value{record.Int(7)}},
		{"SELECT id, pay + 7 FROM m WHERE id < 5 ORDER BY id",
			"SELECT id, pay + ? FROM m WHERE id < ? ORDER BY id",
			[]record.Value{record.Int(7), record.Int(5)}},
		{"SELECT dept, SUM(pay * 2) FROM m GROUP BY dept",
			"SELECT dept, SUM(pay * ?) FROM m GROUP BY dept",
			[]record.Value{record.Int(2)}},
		{"SELECT COUNT(*), MAX(pay) FROM m GROUP BY grade + 1",
			"SELECT COUNT(*), MAX(pay) FROM m GROUP BY grade + ?",
			[]record.Value{record.Int(1)}},
		{"SELECT id FROM m WHERE id < 10 ORDER BY pay * -1",
			"SELECT id FROM m WHERE id < 10 ORDER BY pay * ?",
			[]record.Value{record.Int(-1)}},
		{"SELECT o.id, i.wt + 5 FROM outr o, innr i WHERE o.fk = i.k AND o.id < 30 ORDER BY o.id",
			"SELECT o.id, i.wt + ? FROM outr o, innr i WHERE o.fk = i.k AND o.id < ? ORDER BY o.id",
			[]record.Value{record.Int(5), record.Int(30)}},
	} {
		adhoc, err := pool.Exec(c.adhoc)
		if err != nil {
			t.Fatalf("%q ad-hoc: %v", c.adhoc, err)
		}
		st, err := pool.Prepare(c.prep)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", c.prep, err)
		}
		prep, err := st.Exec(c.args...)
		if err != nil {
			t.Fatalf("Exec(%q): %v", c.prep, err)
		}
		if got, want := nonstopsql.FormatResult(prep), nonstopsql.FormatResult(adhoc); got != want {
			t.Errorf("%q diverges over TCP\nprepared:\n%s\nad-hoc:\n%s", c.prep, got, want)
		}
	}

	// Requester-side writes through the index on label: a SET on the
	// indexed column keeps an UPDATE in the requester, and so does any
	// DELETE from an indexed table. Each reads the probe's records, decodes
	// the ones it rewrites and maintains the index. Run ad hoc, then
	// prepared (which finds the work done), then read back through the
	// index and by key.
	for _, c := range []struct {
		adhoc, prep string
		args        []record.Value
		affected    int
	}{
		{"UPDATE innr SET label = 'M3' WHERE label = 'L3' AND wt > 40",
			"UPDATE innr SET label = ? WHERE label = ? AND wt > ?",
			[]record.Value{record.String("M3"), record.String("L3"), record.Int(40)}, 4},
		{"DELETE FROM innr WHERE label = 'L9' AND wt < 30",
			"DELETE FROM innr WHERE label = ? AND wt < ?",
			[]record.Value{record.String("L9"), record.Int(30)}, 3},
	} {
		res, err := pool.Exec(c.adhoc)
		if err != nil || res.Affected != c.affected {
			t.Fatalf("%q: affected %v, %v; want %d", c.adhoc, res, err, c.affected)
		}
		st, err := pool.Prepare(c.prep)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", c.prep, err)
		}
		if res, err := st.Exec(c.args...); err != nil || res.Affected != 0 {
			t.Fatalf("%q again, prepared: %v, %v; want 0 rows", c.prep, res, err)
		}
	}
	for q, want := range map[string]string{
		"SELECT k, wt FROM innr WHERE label = 'M3'":              "43 53 63 73",
		"SELECT k FROM innr WHERE label = 'L3'":                  "3 13 23 33",
		"SELECT k FROM innr WHERE label = 'L9'":                  "39 49 59 69 79",
		"SELECT COUNT(*) FROM innr WHERE k >= 0":                 "77",
		"SELECT k FROM innr WHERE k >= 8 AND k < 20 AND wt < 30": "8 10 11 12 13 14 15 16 17 18",
	} {
		res, err := pool.Exec(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, row[0].Format())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%q after the writes: %s, want %s", q, strings.Join(got, " "), want)
		}
	}
}

// TestWireErrorClasses pins the typed error surface: parse/bind
// failures match nsqlwire.ErrBadStatement, execution failures do not,
// and an unknown handle matches nsqlwire.ErrStaleHandle.
func TestWireErrorClasses(t *testing.T) {
	_, pool := dialServed(t)
	if _, err := pool.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}

	// Parse failure: client fault.
	_, err := pool.Exec(`SELEKT * FROM t`)
	if err == nil || !errors.Is(err, nsqlwire.ErrBadStatement) {
		t.Fatalf("parse error over the wire: %v (want ErrBadStatement)", err)
	}
	// Bind failure (unknown table): client fault, original text intact.
	_, err = pool.Exec(`SELECT * FROM nothere`)
	if err == nil || !errors.Is(err, nsqlwire.ErrBadStatement) {
		t.Fatalf("bind error over the wire: %v (want ErrBadStatement)", err)
	}
	if !strings.Contains(err.Error(), "nothere") {
		t.Errorf("error text rewritten: %q", err)
	}
	// Same for Prepare.
	_, err = pool.Prepare(`SELECT nope FROM t`)
	if err == nil || !errors.Is(err, nsqlwire.ErrBadStatement) {
		t.Fatalf("prepare bind error: %v (want ErrBadStatement)", err)
	}
	// Wrong arity on execute: client fault.
	st, err := pool.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Exec()
	if err == nil || !errors.Is(err, nsqlwire.ErrBadStatement) {
		t.Fatalf("arity error: %v (want ErrBadStatement)", err)
	}
	// Transaction control: refused as a client-fault statement.
	_, err = pool.Exec(`BEGIN`)
	if err == nil || !errors.Is(err, nsqlwire.ErrBadStatement) {
		t.Fatalf("BEGIN refusal: %v (want ErrBadStatement)", err)
	}
	// Execution failure (duplicate key): server-side error, NOT a bad
	// statement.
	if _, err := pool.Exec(`INSERT INTO t VALUES (1, 1)`); err != nil {
		t.Fatal(err)
	}
	_, err = pool.Exec(`INSERT INTO t VALUES (1, 1)`)
	if err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if errors.Is(err, nsqlwire.ErrBadStatement) {
		t.Fatalf("execution error misclassified as bad statement: %v", err)
	}

	// Unknown handle: stale, retryable by re-preparing.
	_, err = nsqlclient.Execute(pool, 999999, record.Int(1))
	if err == nil || !errors.Is(err, nsqlwire.ErrStaleHandle) {
		t.Fatalf("unknown handle: %v (want ErrStaleHandle)", err)
	}

	// The free-function lifecycle: prepare, close, execute → stale.
	h, n, err := nsqlclient.Prepare(pool, `SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("param count = %d, want 1", n)
	}
	if _, err := nsqlclient.Execute(pool, h, record.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := nsqlclient.CloseStmt(pool, h); err != nil {
		t.Fatal(err)
	}
	_, err = nsqlclient.Execute(pool, h, record.Int(1))
	if !errors.Is(err, nsqlwire.ErrStaleHandle) {
		t.Fatalf("closed handle: %v (want ErrStaleHandle)", err)
	}
}

// TestExecuteFrameSmallerThanExec pins the tentpole's wire economics:
// once prepared, an EXECUTE request frame costs a handle plus encoded
// parameters — less than re-shipping the statement text every time.
func TestExecuteFrameSmallerThanExec(t *testing.T) {
	adhoc := nsqlwire.EncodeRequest(&nsqlwire.Request{
		Op:  nsqlwire.OpExec,
		Arg: `UPDATE account SET balance = balance + 42 WHERE account_id = 100077`,
	})
	exec := nsqlwire.EncodeRequest(&nsqlwire.Request{
		Op:     nsqlwire.OpExecute,
		Handle: 17,
		Params: record.Row{record.Int(42), record.Int(100077)},
	})
	if len(exec) >= len(adhoc) {
		t.Fatalf("EXECUTE frame %dB is not smaller than EXEC frame %dB", len(exec), len(adhoc))
	}
}

// TestRemoteDDLInvalidation checks the cache across the wire: DDL on
// one connection invalidates the plan the next request would have
// reused, and a prepared handle still answers correctly after DDL
// (transparent server-side re-preparation).
func TestRemoteDDLInvalidation(t *testing.T) {
	db, pool := dialServed(t)
	if _, err := pool.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec(`INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	st, err := pool.Prepare(`SELECT v FROM t WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(record.Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec(`CREATE TABLE other (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(record.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("post-DDL prepared execute: %s", nonstopsql.FormatResult(res))
	}
	if inv := db.Stats().PlanCache.Invalidations; inv == 0 {
		t.Error("remote DDL caused no plan invalidations")
	}
	// \stats over the wire shows the plan cache counters.
	text, err := nsqlclient.StatsText(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "plan cache:") {
		t.Errorf("remote stats lack the plan cache line:\n%s", text)
	}
	// …and the socket's: this very request is a frame in, and every reply
	// so far left in some write.
	ws := db.WireStats()
	if ws.Writes == 0 || ws.Writes > ws.FramesOut || ws.Reads == 0 {
		t.Errorf("socket calls do not reconcile with frames: %+v", ws)
	}
	if !strings.Contains(text, "wire: frames in=") || !strings.Contains(text, "frames/write") {
		t.Errorf("remote stats lack the wire line:\n%s", text)
	}
}

// TestFloatBoundAndNonNumericSumOverTCP takes this round's two wrong
// results through the front door. A FLOAT constant against the INTEGER
// primary key selects what the same comparison on `id + 0` — never a key
// bound — selects: as a literal and as a marker's value, in process and
// over TCP. SUM and AVG of a column that is no number, or of a truth value
// such as a comparison, are refused when the statement is bound, over TCP
// as in process, executed or prepared.
func TestFloatBoundAndNonNumericSumOverTCP(t *testing.T) {
	db, pool := dialServed(t)
	inproc := db.Session(0, 0)
	for _, stmt := range []string{
		`CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(8), ok BOOLEAN)`,
		`INSERT INTO t VALUES (1, 'a', TRUE), (2, 'b', FALSE), (3, 'c', TRUE), (4, 'd', FALSE)`,
	} {
		if _, err := pool.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
	}
	for _, c := range []struct {
		op   string
		f    float64
		rows int
	}{{">", 1.5, 3}, {"=", 1.0, 1}, {"<", 1.5, 1}, {"=", 1.5, 0}, {">=", -0.5, 4}, {"<=", 3.0, 3}, {">", 1e300, 0}, {"<", 1e300, 4}} {
		lit := strconv.FormatFloat(c.f, 'f', 1, 64)
		ref, err := inproc.Exec("SELECT id FROM t WHERE id + 0 " + c.op + " " + lit + " ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		want := nonstopsql.FormatResult(ref)
		if len(ref.Rows) != c.rows {
			t.Fatalf("id + 0 %s %s: %d rows, want %d", c.op, lit, len(ref.Rows), c.rows)
		}
		literal := "SELECT id FROM t WHERE id " + c.op + " " + lit + " ORDER BY id"
		marker := "SELECT id FROM t WHERE id " + c.op + " ? ORDER BY id"
		check := func(how string, res *nonstopsql.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("id %s %s %s: %v", c.op, lit, how, err)
			}
			if got := nonstopsql.FormatResult(res); got != want {
				t.Errorf("id %s %s %s diverges from id + 0 %s %s\nkey bound:\n%s\nevaluated:\n%s", c.op, lit, how, c.op, lit, got, want)
			}
		}
		res, err := inproc.Exec(literal)
		check("literal, in process", res, err)
		res, err = pool.Exec(literal)
		check("literal, over TCP", res, err)
		p, err := inproc.Prepare(marker)
		if err != nil {
			t.Fatal(err)
		}
		res, err = inproc.ExecPrepared(p, record.Float(c.f))
		check("marker, in process", res, err)
		st, err := pool.Prepare(marker)
		if err != nil {
			t.Fatal(err)
		}
		res, err = st.Exec(record.Float(c.f))
		check("marker, over TCP", res, err)
	}

	const refusal = "the argument must be numeric"
	for _, text := range []string{"SELECT SUM(name), AVG(ok) FROM t", "SELECT ok, AVG(name) FROM t GROUP BY ok",
		"SELECT SUM(id > 2) FROM t", "SELECT name, AVG(ok OR id = 1) FROM t GROUP BY name"} {
		if _, err := inproc.Exec(text); err == nil || !strings.Contains(err.Error(), refusal) {
			t.Errorf("%q in process: %v", text, err)
		}
		if _, err := pool.Exec(text); err == nil || !strings.Contains(err.Error(), refusal) {
			t.Errorf("%q over TCP: %v", text, err)
		}
		if _, err := pool.Prepare(text); err == nil || !strings.Contains(err.Error(), refusal) {
			t.Errorf("Prepare(%q) over TCP: %v", text, err)
		}
	}
}
