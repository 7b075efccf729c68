package sql_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// TestPrepareExecBasics exercises the compiled-statement lifecycle over
// every parameterizable statement kind: markers bind, arity is
// enforced, and compilation failures carry the client-fault sentinel.
func TestPrepareExecBasics(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), salary FLOAT)`)

	ins, err := d.s.Prepare(`INSERT INTO emp VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 3 {
		t.Fatalf("INSERT NumParams = %d, want 3", ins.NumParams())
	}
	for i := 1; i <= 5; i++ {
		if _, err := d.s.ExecPrepared(ins, record.Int(int64(i)), record.String("e"+itoa(i)), record.Float(float64(1000*i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}

	sel, err := d.s.Prepare(`SELECT name, salary FROM emp WHERE empno = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.s.ExecPrepared(sel, record.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "e3" {
		t.Fatalf("point query: %s", sql.FormatResult(res))
	}

	upd, err := d.s.Prepare(`UPDATE emp SET salary = salary + ? WHERE empno = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = d.s.ExecPrepared(upd, record.Float(500), record.Int(3)); err != nil || res.Affected != 1 {
		t.Fatalf("update: affected=%d err=%v", res.Affected, err)
	}
	res = d.exec(t, `SELECT salary FROM emp WHERE empno = 3`)
	if res.Rows[0][0].F != 3500 {
		t.Fatalf("salary after prepared update = %v", res.Rows[0][0])
	}

	del, err := d.s.Prepare(`DELETE FROM emp WHERE empno = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = d.s.ExecPrepared(del, record.Int(5)); err != nil || res.Affected != 1 {
		t.Fatalf("delete: affected=%d err=%v", res.Affected, err)
	}

	// Wrong arity: client-fault, tagged.
	if _, err := d.s.ExecPrepared(sel); err == nil || !errors.Is(err, sql.ErrBadStatement) {
		t.Fatalf("zero args on a 1-param statement: %v", err)
	}
	if _, err := d.s.ExecPrepared(sel, record.Int(1), record.Int(2)); err == nil || !strings.Contains(err.Error(), "wants 1 parameter") {
		t.Fatalf("two args on a 1-param statement: %v", err)
	}

	// Compilation failures are tagged client-fault without changing text.
	for _, bad := range []string{
		`SELECT FROM`,
		`SELECT * FROM nothere`,
		`SELECT nope FROM emp`,
		`CREATE TABLE t2 (id INTEGER PRIMARY KEY, n INTEGER DEFAULT ?)`,
	} {
		_, err := d.s.Prepare(bad)
		if err == nil {
			t.Fatalf("Prepare(%q) succeeded", bad)
		}
		if !errors.Is(err, sql.ErrBadStatement) {
			t.Errorf("Prepare(%q): %v does not match ErrBadStatement", bad, err)
		}
	}

	// Ad-hoc Exec refuses statements with unbound markers.
	d.mustFail(t, `SELECT * FROM emp WHERE empno = ?`, "parameter marker")

	// Parameterless transaction control still prepares (as an AST plan).
	if _, err := d.s.Prepare(`BEGIN WORK`); err != nil {
		t.Fatalf("parameterless BEGIN must prepare (as AST): %v", err)
	}
}

// TestPreparedDifferentialMatrix runs every PR 6 differential query —
// the aggregate pushdown suite, the join probe suite, and update/delete
// subsets — through Prepare/ExecPrepared and requires byte-identical
// FormatResult output against plain Exec, under pushdown on and off.
// Queries with constants also run as parameterized variants.
func TestPreparedDifferentialMatrix(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)

	// The full PR 6 suites, unparameterized: ad-hoc vs prepared must be
	// byte-identical in every case.
	queries := matrixQueries()
	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		for _, q := range queries {
			adhoc, err := d.s.Exec(q)
			if err != nil {
				t.Fatalf("pushdown=%v: %q ad-hoc: %v", push, q, err)
			}
			p, err := d.s.Prepare(q)
			if err != nil {
				t.Fatalf("pushdown=%v: Prepare(%q): %v", push, q, err)
			}
			prep, err := d.s.ExecPrepared(p)
			if err != nil {
				t.Fatalf("pushdown=%v: ExecPrepared(%q): %v", push, q, err)
			}
			if got, want := sql.FormatResult(prep), sql.FormatResult(adhoc); got != want {
				t.Errorf("pushdown=%v: %q diverges\nprepared:\n%s\nad-hoc:\n%s", push, q, got, want)
			}
		}
	}
	d.s.SetPushdown(true)

	// Parameterized variants: the same answers must come back when the
	// constants travel as a parameter vector instead of literal text.
	param := matrixParamCases
	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		for _, c := range param {
			adhoc := d.exec(t, c.adhoc)
			p, err := d.s.Prepare(c.prep)
			if err != nil {
				t.Fatalf("pushdown=%v: Prepare(%q): %v", push, c.prep, err)
			}
			prep, err := d.s.ExecPrepared(p, c.args...)
			if err != nil {
				t.Fatalf("pushdown=%v: ExecPrepared(%q): %v", push, c.prep, err)
			}
			if got, want := sql.FormatResult(prep), sql.FormatResult(adhoc); got != want {
				t.Errorf("pushdown=%v: %q diverges\nprepared:\n%s\nad-hoc:\n%s", push, c.prep, got, want)
			}
		}
	}
	d.s.SetPushdown(true)

	// Parameterized writes, differentially: a prepared UPDATE/DELETE must
	// leave the table byte-identical to its literal twin.
	snapshot := func() string {
		return sql.FormatResult(d.exec(t, "SELECT * FROM m ORDER BY id"))
	}
	d.exec(t, "UPDATE m SET bonus = bonus + 10 WHERE grade = 1 AND pay > 80")
	litState := snapshot()
	d.exec(t, "UPDATE m SET bonus = bonus - 10 WHERE grade = 1 AND pay > 80") // undo
	pu, err := d.s.Prepare("UPDATE m SET bonus = bonus + ? WHERE grade = ? AND pay > ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.s.ExecPrepared(pu, record.Int(10), record.Int(1), record.Float(80)); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(); got != litState {
		t.Errorf("prepared UPDATE diverges from literal UPDATE")
	}

	delLit := d.exec(t, "DELETE FROM m WHERE id >= 170 AND id < 175")
	pd, err := d.s.Prepare("DELETE FROM m WHERE id >= ? AND id < ?")
	if err != nil {
		t.Fatal(err)
	}
	delPrep, err := d.s.ExecPrepared(pd, record.Int(175), record.Int(180))
	if err != nil {
		t.Fatal(err)
	}
	if delLit.Affected != 5 || delPrep.Affected != 5 {
		t.Errorf("delete affected: literal=%d prepared=%d, want 5 and 5", delLit.Affected, delPrep.Affected)
	}
}

// TestPlanCacheCounters pins the shared cache's behavior: ad-hoc Exec
// of the same text hits the cache, DDL invalidates by version, EXPLAIN
// annotates cached plans, and re-executing a stale Prepared statement
// transparently recompiles.
func TestPlanCacheCounters(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), salary FLOAT)`)
	d.exec(t, `INSERT INTO emp VALUES (1, 'alice', 40000)`)
	d.cat.Plans().Reset()

	const q = `SELECT name FROM emp WHERE empno = 1`
	d.exec(t, q)
	st := d.cat.Plans().Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first exec: %+v", st)
	}
	for i := 0; i < 4; i++ {
		d.exec(t, q)
	}
	st = d.cat.Plans().Stats()
	if st.Hits != 4 || st.Misses != 1 {
		t.Fatalf("after five execs: %+v", st)
	}

	// EXPLAIN shows the cached compilation and its hit count.
	plan, err := d.s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "plan: cached (hits=4)") {
		t.Fatalf("EXPLAIN lacks cache annotation:\n%s", plan)
	}

	// A prepared handle to the same text rides the same entry.
	p, err := d.s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.s.ExecPrepared(p); err != nil {
		t.Fatal(err)
	}
	st = d.cat.Plans().Stats()
	if st.Hits != 6 { // Prepare() lookup + ExecPrepared fast path
		t.Fatalf("after prepared exec: %+v", st)
	}

	// DDL bumps the catalog version: the entry is invalidated, the next
	// execution recompiles (a miss), and the stale Prepared recompiles
	// transparently too.
	ver := p.Version()
	d.exec(t, `CREATE TABLE other (id INTEGER PRIMARY KEY)`)
	if d.cat.Version() == ver {
		t.Fatal("DDL did not bump the catalog version")
	}
	d.exec(t, q)
	st = d.cat.Plans().Stats()
	if st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("after DDL + exec: %+v", st)
	}
	res, err := d.s.ExecPrepared(p) // stale pin → transparent re-prepare
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("stale prepared exec returned %d rows", len(res.Rows))
	}

	// Dropping the statement's own table makes execution fail cleanly —
	// never a stale answer from a plan over the dead table.
	d.exec(t, `DROP TABLE emp`)
	if _, err := d.s.ExecPrepared(p); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Fatalf("prepared exec after DROP TABLE: %v", err)
	}
}

// TestPlanCacheDDLRace hammers the cache with concurrent Prepare /
// Execute / DDL. Run under -race this pins the synchronization; the
// version checks pin the invalidation contract: an execution never runs
// a plan pinned to an older catalog version than the entry it was
// served from, and every returned row set is correct for the moment it
// ran.
func TestPlanCacheDDLRace(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), salary FLOAT)`)
	for i := 0; i < 20; i++ {
		d.exec(t, insertRow(i))
	}

	queries := []string{
		`SELECT name FROM emp WHERE empno = ?`,
		`SELECT COUNT(*) FROM emp WHERE salary > ?`,
		`SELECT empno FROM emp WHERE empno >= ? AND empno < ? ORDER BY empno`,
	}
	argsFor := func(q string, i int) []record.Value {
		switch strings.Count(q, "?") {
		case 1:
			if strings.Contains(q, "salary") {
				return []record.Value{record.Float(float64(i % 2000))}
			}
			return []record.Value{record.Int(int64(i % 20))}
		default:
			lo := int64(i % 15)
			return []record.Value{record.Int(lo), record.Int(lo + 5)}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sql.NewSession(d.cat, d.c.NewFS(0, w%3))
			for i := 0; i < 120; i++ {
				q := queries[i%len(queries)]
				p, err := s.Prepare(q)
				if err != nil {
					t.Errorf("worker %d: Prepare: %v", w, err)
					return
				}
				if p.Version() > d.cat.Version() {
					t.Errorf("worker %d: plan pinned to version %d beyond catalog %d", w, p.Version(), d.cat.Version())
					return
				}
				if _, err := s.ExecPrepared(p, argsFor(q, i)...); err != nil {
					t.Errorf("worker %d: ExecPrepared: %v", w, err)
					return
				}
			}
		}(w)
	}

	// DDL churn concurrent with the executes: each CREATE/DROP bumps the
	// version, so racing lookups keep finding (and dropping) stale pins.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ddl := sql.NewSession(d.cat, d.c.NewFS(0, 1))
		for i := 0; i < 20; i++ {
			if _, err := ddl.Exec("CREATE TABLE churn" + itoa(i) + " (id INTEGER PRIMARY KEY)"); err != nil {
				t.Errorf("churn create: %v", err)
				return
			}
			if _, err := ddl.Exec("DROP TABLE churn" + itoa(i)); err != nil {
				t.Errorf("churn drop: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if st := d.cat.Plans().Stats(); st.Hits == 0 {
		t.Errorf("no plan reuse under concurrency: %+v", st)
	}

	// Deterministic invalidation after the dust settles: one DDL, one
	// lookup of a cached text, exactly one stale entry dropped.
	s := sql.NewSession(d.cat, d.c.NewFS(0, 0))
	if _, err := s.Prepare(queries[0]); err != nil {
		t.Fatal(err)
	}
	before := d.cat.Plans().Stats()
	d.exec(t, "CREATE TABLE after (id INTEGER PRIMARY KEY)")
	p, err := s.Prepare(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	after := d.cat.Plans().Stats()
	if after.Invalidations != before.Invalidations+1 {
		t.Errorf("invalidations %d -> %d, want +1 after DDL", before.Invalidations, after.Invalidations)
	}
	if p.Version() != d.cat.Version() {
		t.Fatalf("fresh compilation pinned to %d, catalog at %d", p.Version(), d.cat.Version())
	}
}

func insertRow(i int) string {
	return "INSERT INTO emp VALUES (" + itoa(i) + ", 'e" + itoa(i) + "', " + itoa(100*i) + ")"
}

// TestExplainAnalyzePrepared reconciles a prepared execution's actuals
// the way E16 does for ad-hoc statements, and checks the plan-cache
// annotation line.
func TestExplainAnalyzePrepared(t *testing.T) {
	d := newDB(t)
	setupPartitionedEmp(t, d, 120)
	d.cat.Plans().Reset()

	p, err := d.s.Prepare(`SELECT * FROM emp WHERE empno >= ? AND empno < ?`)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the counters: two executions served by the compilation.
	for i := 0; i < 2; i++ {
		if _, err := d.s.ExecPrepared(p, record.Int(10), record.Int(20)); err != nil {
			t.Fatal(err)
		}
	}

	d.c.Net.ResetStats()
	before, _, _, _ := dpTotals(d)
	a, err := d.s.ExplainAnalyzePrepared(p, record.Int(10), record.Int(20))
	if err != nil {
		t.Fatal(err)
	}
	netReq := d.c.Net.Stats().Requests
	after, _, _, _ := dpTotals(d)

	if len(a.Result.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(a.Result.Rows))
	}
	if !strings.Contains(a.Plan, "plan: cached (hits=") {
		t.Fatalf("prepared EXPLAIN ANALYZE lacks cache annotation:\n%s", a.Plan)
	}
	n := findNode(t, a, "scan EMP")
	if n.RowsReturned != 10 {
		t.Errorf("node rows returned = %d, want 10", n.RowsReturned)
	}
	if got := sumNodeMessages(a); got != netReq {
		t.Errorf("node messages = %d, network counted %d requests", got, netReq)
	}
	if n.RowsExamined != after-before {
		t.Errorf("examined = %d, DPs scanned %d", n.RowsExamined, after-before)
	}
	if n.Lat.Count() != n.Messages {
		t.Errorf("latency samples = %d, messages = %d", n.Lat.Count(), n.Messages)
	}

	// The substituted arguments must reach planning: the access path is a
	// primary-key range, which only extracts from concrete bounds.
	if !strings.Contains(a.Plan, "primary-key range") {
		t.Errorf("substituted parameters did not produce a key-range access path:\n%s", a.Plan)
	}
}

// TestPlanCacheKeepsLiteralsApart: white space inside a quoted literal
// or identifier is part of the statement, and so is the line break that
// ends a comment. Statements that differ there must not share a cached
// plan; white space elsewhere still folds, so they still hit.
func TestPlanCacheKeepsLiteralsApart(t *testing.T) {
	d := newDB(t)
	d.exec(t, `CREATE TABLE t (k INTEGER PRIMARY KEY, s VARCHAR(10))`)
	d.exec(t, `INSERT INTO t VALUES (1, 'a b'), (2, 'a  b'), (3, 'a	b'), (4, 'it''s  x')`)
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{`SELECT k FROM t WHERE s = 'a b'`, 1},
		{`SELECT k FROM t WHERE s = 'a  b'`, 2},
		{"SELECT k FROM t WHERE s = 'a\tb'", 3},
		{`SELECT  k FROM t  WHERE s = 'a  b' ;`, 2},
		{`SELECT k FROM t WHERE s = 'it''s  x'`, 4},
	} {
		res := d.exec(t, c.sql)
		if len(res.Rows) < 1 || res.Rows[0][0].I != c.want {
			t.Errorf("%q returned %v, want k = %d", c.sql, res.Rows, c.want)
		}
	}
	// On one line the comment swallows OR k = 2; after a line break it
	// is part of the statement.
	if res := d.exec(t, "SELECT k FROM t WHERE k = 1 -- or any k OR k = 2"); len(res.Rows) != 1 {
		t.Errorf("the commented-out OR was read: %v, want k = 1", res.Rows)
	}
	if res := d.exec(t, "SELECT k FROM t WHERE k = 1 -- or any k\n OR k = 2"); len(res.Rows) != 2 {
		t.Errorf("the statement after a comment returned %v, want k = 1 and 2", res.Rows)
	}
	d.cat.Plans().Reset()
	d.exec(t, `SELECT s FROM t WHERE s = 'a  b'`)
	d.exec(t, "SELECT  s\nFROM t WHERE s = 'a  b';")
	if st := d.cat.Plans().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("white space outside the literal split the entry: %+v", st)
	}
}
