package sql_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// TestPointReadDifferential holds the READ path to the path it replaced.
// Every case of the unique-key corpus runs as a prepared statement with
// arguments, as its literal twin, and as the range form that still opens a
// subset conversation, each through Exec and through Prepare — with
// pushdown on and off, outside a transaction and inside one — and all of
// them must format to the same bytes. The plan half keeps the comparison
// honest: the unique-key forms name the access the case is about, and the
// range form never says READ.
func TestPointReadDifferential(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)

	run := func(text string, args []record.Value) string {
		t.Helper()
		p, err := d.s.Prepare(text)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", text, err)
		}
		res, err := d.s.ExecPrepared(p, args...)
		if err != nil {
			t.Fatalf("ExecPrepared(%q, %v): %v", text, args, err)
		}
		out := sql.FormatResult(res)
		if len(args) == 0 {
			if adhoc := sql.FormatResult(d.exec(t, text)); adhoc != out {
				t.Errorf("%q: prepared and ad hoc diverge\nprepared:\n%s\nad hoc:\n%s", text, out, adhoc)
			}
		}
		return out
	}
	plan := func(text string, args []record.Value) string {
		t.Helper()
		p, err := d.s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.s.ExplainAnalyzePrepared(p, args...)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %q: %v", text, err)
		}
		return a.Plan
	}

	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		for _, inTx := range []bool{false, true} {
			if inTx {
				d.exec(t, "BEGIN WORK")
			}
			for _, c := range pointReadCases {
				want := run(c.rng, nil)
				for _, form := range []struct {
					text string
					args []record.Value
				}{{c.prep, c.args}, {c.adhoc, nil}} {
					if got := run(form.text, form.args); got != want {
						t.Errorf("pushdown=%v tx=%v: %q %v diverges from the range form %q\nunique key:\n%s\nrange:\n%s",
							push, inTx, form.text, form.args, c.rng, got, want)
					}
				}
				if got := plan(c.prep, c.args); !strings.Contains(got, c.via) {
					t.Errorf("pushdown=%v tx=%v: %q %v: plan does not say %q:\n%s", push, inTx, c.prep, c.args, c.via, got)
				}
				if got := plan(c.rng, nil); strings.Contains(got, "] via READ") || strings.Contains(got, c.via) && strings.Contains(c.via, "unique key") {
					t.Errorf("pushdown=%v tx=%v: the range form %q runs as a READ; it is the reference path:\n%s", push, inTx, c.rng, got)
				}
			}
			if inTx {
				d.exec(t, "COMMIT WORK")
			}
		}
	}
}

// lockWaits sums the lock managers' queued acquisitions over the test
// volumes.
func lockWaits(d *db) (n uint64) {
	for _, v := range testVolumes {
		n += d.c.DP(v).Locks().Stats().Waits
	}
	return n
}

// blocked starts fn on its own goroutine and returns once a lock wait has
// been queued behind it; the channel delivers fn's result when it ends.
func blocked(t *testing.T, d *db, fn func() (*sql.Result, error)) <-chan error {
	t.Helper()
	w0 := lockWaits(d)
	done := make(chan error, 1)
	go func() {
		_, err := fn()
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); lockWaits(d) == w0; time.Sleep(time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("the statement did not wait for a lock: it ended with %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no lock wait queued in 5 s")
		}
	}
	return done
}

// TestPointReadIsolation pins what a unique-key SELECT inside a
// transaction locks now that it is a READ: the key, before the record is
// looked at, whether or not the record is there. The subset conversation
// it replaced locked what qualified after the scan — so a miss locked
// nothing and a later INSERT of that key by another transaction went
// straight through, letting the same SELECT see a row appear inside one
// transaction.
func TestPointReadIsolation(t *testing.T) {
	d := newDBOpts(t, cluster.Options{LockTimeout: 30 * time.Second})
	setupPartitionedEmp(t, d, 10)
	t1 := d.s
	t2 := sql.NewSession(d.cat, d.c.NewFS(0, 1))
	sel, err := t2.Prepare("SELECT salary FROM emp WHERE empno = ?")
	if err != nil {
		t.Fatal(err)
	}
	salary := func(res *sql.Result) float64 {
		t.Helper()
		if len(res.Rows) != 1 {
			t.Fatalf("rows %v, want one", res.Rows)
		}
		return res.Rows[0][0].F
	}

	// T1 holds an uncommitted update of 5. T2's in-transaction SELECT of 5
	// waits; it never returns 777, and returns the committed value once T1
	// ends — by commit (777.5) and by rollback (the value before).
	for _, end := range []struct {
		how  string
		want float64
	}{{"ROLLBACK WORK", 5000}, {"COMMIT WORK", 777.5}} {
		d.exec(t, "BEGIN WORK")
		d.exec(t, "UPDATE emp SET salary = 777.5 WHERE empno = 5")
		if _, err := t2.Exec("BEGIN WORK"); err != nil {
			t.Fatal(err)
		}
		var got *sql.Result
		done := blocked(t, d, func() (res *sql.Result, err error) {
			got, err = t2.ExecPrepared(sel, record.Int(5))
			return got, err
		})
		// A browse SELECT does not wait, and (the paper's browse access)
		// reads through the uncommitted update.
		if res := d.exec(t, "SELECT salary FROM emp WHERE empno = 5 FOR BROWSE ACCESS"); salary(res) != 777.5 {
			t.Errorf("browse access read %v", res.Rows)
		}
		t1.MustExec(end.how)
		if err := <-done; err != nil {
			t.Fatalf("T2's SELECT after T1's %s: %v", end.how, err)
		}
		if s := salary(got); s != end.want {
			t.Errorf("after T1's %s T2 read salary %v, want %v", end.how, s, end.want)
		}
		if _, err := t2.Exec("COMMIT WORK"); err != nil {
			t.Fatal(err)
		}
	}

	// T2 reads a key that is not there: no row, and the key is locked. T1's
	// INSERT of that key waits until T2 ends, so T2 reading it again inside
	// the same transaction still finds nothing.
	if _, err := t2.Exec("BEGIN WORK"); err != nil {
		t.Fatal(err)
	}
	missing := func() {
		t.Helper()
		if res, err := t2.ExecPrepared(sel, record.Int(150)); err != nil || len(res.Rows) != 0 {
			t.Fatalf("T2's SELECT of a missing key: %v, %v", res, err)
		}
	}
	missing()
	done := blocked(t, d, func() (*sql.Result, error) { return t1.Exec(insertEmp(150)) })
	missing()
	if _, err := t2.Exec("COMMIT WORK"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("T1's INSERT after T2 ended: %v", err)
	}
	if res := d.exec(t, "SELECT salary FROM emp WHERE empno = 150"); salary(res) != 150000 {
		t.Errorf("the inserted record reads %v", res.Rows)
	}
}

// TestPointReadFollowsFollowerReads: a browse unique-key SELECT is a
// transactionless point read, so fs.SetFollowerReads decides which Disk
// Process of the partition's pair serves it — off, the primary; on, the
// backup — while the same SELECT inside a transaction always goes to the
// primary, where the locks are.
func TestPointReadFollowsFollowerReads(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 1, "$R1"); err != nil {
		t.Fatal(err)
	}
	f := c.NewFS(0, 2)
	s := sql.NewSession(sql.NewCatalog([]string{"$R1"}), f)
	s.MustExec("CREATE TABLE kv (k INTEGER PRIMARY KEY, v VARCHAR(10))")
	s.MustExec("INSERT INTO kv VALUES (1, 'x')")

	received := func() (primary, backup uint64) {
		return c.DP("$R1").Stats().Requests, c.DP("$R1" + fsdp.BackupSuffix).Stats().Requests
	}
	for _, step := range []struct {
		stmts       []string
		follower    bool
		wantPrimary bool
	}{
		{[]string{"SELECT v FROM kv WHERE k = 1"}, false, true},
		{[]string{"SELECT v FROM kv WHERE k = 1"}, true, false},
		{[]string{"BEGIN WORK", "SELECT v FROM kv WHERE k = 1"}, true, true},
	} {
		f.SetFollowerReads(step.follower)
		p0, b0 := received()
		var res *sql.Result
		for _, stmt := range step.stmts {
			res = s.MustExec(stmt)
		}
		p1, b1 := received()
		if len(res.Rows) != 1 || res.Rows[0][0].S != "x" {
			t.Fatalf("%v: rows %v", step.stmts, res.Rows)
		}
		if gotPrimary, gotBackup := p1-p0 == 1, b1-b0 == 1; gotPrimary != step.wantPrimary || gotBackup == step.wantPrimary {
			t.Errorf("%v with follower reads %v: primary served %d, backup %d", step.stmts, step.follower, p1-p0, b1-b0)
		}
		if s.InTx() {
			s.MustExec("COMMIT WORK")
		}
	}
}

// TestAllocationCeilings pins what one in-process prepared point SELECT
// allocates now that it is a READ — the key, the request and its encoding,
// the reply and its decoding, the record, the result — and what it
// allocated as a point-range subset conversation, which is what the range
// form still costs. A regression here is a Substitute, a key-range
// extraction or a conversation that crept back under the unique-key path.
// The READ measured 26 while its request encoding grew from one byte and
// it formatted its EXPLAIN ANALYZE label with nothing collecting, and 21
// until its key, request, reply and projected row went into the
// session's statement arena and the Disk Process served it from a pooled
// slot: 4 since — the Result, its Rows, the row's values and the pad's
// string, all the caller's.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := newDB(t)
	d.exec(t, "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT, pad VARCHAR(100))")
	d.exec(t, "BEGIN WORK")
	for i := 0; i < 200; i++ {
		d.exec(t, "INSERT INTO acct VALUES ("+itoa(i)+", "+itoa(i)+".5, '"+strings.Repeat("p", 100)+"')")
	}
	d.exec(t, "COMMIT WORK")
	allocs := func(text string, args ...record.Value) float64 {
		p, err := d.s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		exec := func() {
			if res, err := d.s.ExecPrepared(p, args...); err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 42.5 {
				t.Fatalf("%q: %v, %v", text, res, err)
			}
		}
		exec()
		return testing.AllocsPerRun(200, exec)
	}
	read := allocs("SELECT bal, pad FROM acct WHERE id = ?", record.Int(42))
	rng := allocs("SELECT bal, pad FROM acct WHERE id >= ? AND id <= ?", record.Int(42), record.Int(42))
	t.Logf("prepared point SELECT: %.0f allocations by unique key (READ), %.0f by point range (GET^FIRST^VSBB)", read, rng)
	const ceiling = 8
	if read > ceiling {
		t.Errorf("a prepared unique-key SELECT allocates %.0f times, ceiling %d", read, ceiling)
	}
	if read+15 > rng {
		t.Errorf("READ allocates %.0f times, the subset conversation %.0f: the READ should save at least 15", read, rng)
	}

	// A pass-through range SELECT at the serving entry point allocates
	// something per statement — the substituted predicate and key range,
	// each conversation's ^FIRST and compiled program, the iterator, the
	// result — and nothing per FS-DP message or per row: the messages are
	// encoded and decoded in the session's conversation arenas, the Disk
	// Process serves them from its service slots and Subset Control Blocks
	// it reuses, and the rows are slices of the replies, listed in the
	// session's row list. Measured: 54 for each of the three shapes below,
	// in 5, 8 and 3 messages — 153, 206 and 116 while both ends of every
	// message allocated its request, reply, lists and books, and 158, 214
	// and 119 while the Disk Process copied a whole GET^NEXT request too.
	// The ceiling is the measure: one allocation more in any message, or
	// in any row, fails it.
	loadScanTable(t, d, 12000)
	for _, c := range []struct {
		text     string
		rows     int
		measured float64
	}{
		{"SELECT id, bal FROM sc WHERE id >= ? AND id < ? AND grp < 10", 1000, 54},
		{"SELECT bal, id FROM sc WHERE id >= ? AND id < ? AND grp < 20", 2000, 54},
		{"SELECT id, bal FROM sc WHERE id >= ? AND id < ? AND grp < 1", 100, 54},
	} {
		p, err := d.s.Prepare(c.text)
		if err != nil {
			t.Fatal(err)
		}
		exec := func() {
			res, err := d.s.ExecPreparedEncoded(p, record.Int(1000), record.Int(11000))
			if err != nil || len(res.Encoded) != c.rows || res.Rows != nil {
				t.Fatalf("%q: %d rows still encoded, %d decoded, %v", c.text, len(res.Encoded), len(res.Rows), err)
			}
		}
		before := d.c.Net.Stats().Requests
		exec()
		msgs := float64(d.c.Net.Stats().Requests - before)
		got := testing.AllocsPerRun(20, exec)
		t.Logf("%q: %d rows in %.0f messages: %.0f allocations", c.text, c.rows, msgs, got)
		if got > c.measured {
			t.Errorf("%q: %d rows in %.0f messages allocate %.0f times, ceiling %.0f", c.text, c.rows, msgs, got, c.measured)
		}
	}
}

// TestFloatBoundOnIntegerKey: a FLOAT constant against the INTEGER primary
// key is stated over the integers before it becomes a key span (an
// integral one narrows, one with a fraction tightens the bound, an
// equality with a fraction is an empty span) — it was encoded as a FLOAT
// key, so `id > 1.5` found nothing and `id = 1.0` missed id 1. The
// reference is the same comparison on `id + 0`, which is never a key bound
// and so is the evaluator's word: every (operator, float) selects the same
// ids both ways, as a literal and as a marker's value, with pushdown on and
// off. M holds ids 0..179.
func TestFloatBoundOnIntegerKey(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)
	ids := func(text string, args ...record.Value) string {
		t.Helper()
		p, err := d.s.Prepare(text)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", text, err)
		}
		res, err := d.s.ExecPrepared(p, args...)
		if err != nil {
			t.Fatalf("%q %v: %v", text, args, err)
		}
		return sql.FormatResult(res)
	}
	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		// The four the bug was reported with, by what they must return.
		for text, want := range map[string]int{
			"SELECT id FROM m WHERE id > 1.5": 178, "SELECT id FROM m WHERE id = 1.0": 1,
			"SELECT id FROM m WHERE id < 1.5": 2, "SELECT id FROM m WHERE id = 1.5": 0,
			"SELECT id FROM m WHERE 178.5 <= id": 1, "SELECT COUNT(*) FROM m WHERE id >= 0.5 AND id < 9.5": 1,
		} {
			if got := len(d.exec(t, text).Rows); got != want {
				t.Errorf("pushdown=%v: %q returns %d rows, want %d", push, text, got, want)
			}
		}
		for _, lit := range []string{"0.0", "1.0", "1.5", "41.5", "42.0", "178.5", "179.0", "179.5", "0.5", "1000.0",
			"9223372036854775808.0", "1e300"} {
			f, err := strconv.ParseFloat(lit, 64)
			if err != nil {
				t.Fatal(err)
			}
			for _, sign := range []string{"", "-"} {
				if sign == "-" {
					f = -f
				}
				for _, op := range []string{"=", "<", "<=", ">", ">="} {
					want := ids("SELECT id FROM m WHERE id + 0 " + op + " " + sign + lit + " ORDER BY id")
					flipped := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
					for _, form := range []struct {
						text string
						args []record.Value
					}{
						{"SELECT id FROM m WHERE id " + op + " " + sign + lit + " ORDER BY id", nil},
						{"SELECT id FROM m WHERE id " + op + " ? ORDER BY id", []record.Value{record.Float(f)}},
						{"SELECT id FROM m WHERE ? " + flipped + " id ORDER BY id", []record.Value{record.Float(f)}},
					} {
						if got := ids(form.text, form.args...); got != want {
							t.Errorf("pushdown=%v: %q %v diverges from id + 0 %s %s%s\nkey bound:\n%s\nevaluated:\n%s",
								push, form.text, form.args, op, sign, lit, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSumOfNonNumericColumnRefused: SUM and AVG of a VARCHAR or BOOLEAN
// column answered 0.0 on every path (a non-number's float is its zero). It
// is a type error when the statement is bound, so pushed down or not, ad
// hoc or prepared, nothing runs. What the numeric sums return — INTEGER,
// FLOAT, a column with NULLs, an empty input — is pinned byte for byte: the
// aggregate's move onto the record's encoded fields may not change it.
func TestSumOfNonNumericColumnRefused(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)
	d.exec(t, "CREATE TABLE flags (id INTEGER PRIMARY KEY, ok BOOLEAN, name VARCHAR(8))")
	d.exec(t, "INSERT INTO flags VALUES (1, TRUE, 'a')")
	for _, push := range []bool{true, false} {
		d.s.SetPushdown(push)
		for _, text := range []string{
			"SELECT SUM(dept) FROM m", "SELECT AVG(dept) FROM m", "SELECT grade, SUM(dept) FROM m GROUP BY grade",
			"SELECT SUM(name), AVG(ok) FROM flags", "SELECT AVG(ok) FROM flags", "SELECT id FROM flags GROUP BY id HAVING SUM(ok) > 0",
			"SELECT SUM(dept) FROM m WHERE id = 5",
		} {
			d.mustFail(t, text, "the argument must be numeric")
			if _, err := d.s.Prepare(text); err == nil || !strings.Contains(err.Error(), "the argument must be numeric") {
				t.Errorf("pushdown=%v: Prepare(%q): %v", push, text, err)
			}
		}
		for text, want := range map[string]string{
			"SELECT SUM(grade), SUM(pay), SUM(bonus), AVG(bonus), COUNT(bonus) FROM m":                    "180|16200|430|2.986111111111111|144\n",
			"SELECT grade, SUM(id), SUM(pay), AVG(pay) FROM m WHERE id < 9 GROUP BY grade ORDER BY grade": "0|9|10.5|3.5\n1|12|13.5|4.5\n2|15|16.5|5.5\n",
			"SELECT SUM(bonus), AVG(pay), MIN(dept), MAX(bonus) FROM m WHERE id > 500":                    "NULL|NULL|NULL|NULL\n",
			"SELECT SUM(bonus) FROM m WHERE id = 5":                                                       "NULL\n",
		} {
			var got strings.Builder
			for _, row := range d.exec(t, text).Rows {
				for i, v := range row {
					if i > 0 {
						got.WriteByte('|')
					}
					got.WriteString(v.Format())
				}
				got.WriteByte('\n')
			}
			if got.String() != want {
				t.Errorf("pushdown=%v: %q returns\n%swant\n%s", push, text, got.String(), want)
			}
		}
	}
}
