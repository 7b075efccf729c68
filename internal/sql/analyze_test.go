package sql_test

import (
	"strings"
	"testing"

	"nonstopsql/internal/sql"
	"nonstopsql/internal/wisconsin"
)

// testVolumes are the volumes newDB provisions.
var testVolumes = []string{"$DATA1", "$DATA2", "$DATA3"}

// dpTotals sums the Disk Process counters EXPLAIN ANALYZE must reconcile
// against across every volume.
func dpTotals(d *db) (scanned, redrives, updated, deleted uint64) {
	for _, v := range testVolumes {
		st := d.c.DP(v).Stats()
		scanned += st.RowsScanned
		redrives += st.Redrives
		updated += st.RowsUpdated
		deleted += st.RowsDeleted
	}
	return
}

// setupPartitionedEmp spreads n rows over the three volumes.
func setupPartitionedEmp(t testing.TB, d *db, n int) {
	t.Helper()
	d.exec(t, `CREATE TABLE emp (
		empno INTEGER PRIMARY KEY,
		name VARCHAR(30),
		dept VARCHAR(10),
		salary FLOAT) PARTITION ON ("$DATA1", "$DATA2" FROM 100, "$DATA3" FROM 200)`)
	d.exec(t, "BEGIN WORK")
	for i := 0; i < n; i++ {
		d.exec(t, insertEmp(i))
	}
	d.exec(t, "COMMIT WORK")
}

func insertEmp(i int) string {
	return "INSERT INTO emp VALUES (" +
		itoa(i) + ", 'emp-" + itoa(i) + "', '" +
		[]string{"SALES", "ENG", "HR"}[i%3] + "', " + itoa(1000*i) + ")"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		b[p] = '-'
	}
	return string(b[p:])
}

// findNode returns the first node whose label contains needle.
func findNode(t *testing.T, a *sql.Analyze, needle string) sql.NodeActuals {
	t.Helper()
	for _, n := range a.Nodes {
		if strings.Contains(n.Label, needle) {
			return n
		}
	}
	t.Fatalf("no node with label containing %q in %+v", needle, a.Nodes)
	return sql.NodeActuals{}
}

func sumNodeMessages(a *sql.Analyze) uint64 {
	var total uint64
	for _, n := range a.Nodes {
		total += n.Messages
	}
	return total
}

// TestExplainAnalyzeNodes checks that each access path's node counters
// reconcile with the message-system and Disk Process statistics.
func TestExplainAnalyzeNodes(t *testing.T) {
	cases := []struct {
		name string
		stmt string
		// verify receives the analysis plus the network-request and
		// DP-counter deltas measured across the statement.
		verify func(t *testing.T, a *sql.Analyze, netReq uint64, scanned, redrives, updated uint64)
	}{
		{
			name: "keyed-read-rsbb",
			stmt: "SELECT * FROM emp WHERE empno >= 10 AND empno < 20",
			verify: func(t *testing.T, a *sql.Analyze, netReq, scanned, redrives, updated uint64) {
				n := findNode(t, a, "scan EMP (RSBB)")
				if n.RowsReturned != 10 {
					t.Errorf("rows returned = %d, want 10", n.RowsReturned)
				}
				if n.Partitions != 1 {
					t.Errorf("partitions = %d, want 1 (key range clips to $DATA1)", n.Partitions)
				}
				if got := sumNodeMessages(a); got != netReq {
					t.Errorf("node messages = %d, network counted %d requests", got, netReq)
				}
				if n.RowsExamined != scanned {
					t.Errorf("examined = %d, DPs scanned %d", n.RowsExamined, scanned)
				}
				if n.Lat.Count() != n.Messages {
					t.Errorf("latency samples = %d, messages = %d", n.Lat.Count(), n.Messages)
				}
			},
		},
		{
			name: "vsbb-scan",
			stmt: "SELECT name FROM emp WHERE salary >= 0",
			verify: func(t *testing.T, a *sql.Analyze, netReq, scanned, redrives, updated uint64) {
				n := findNode(t, a, "scan EMP (VSBB)")
				if n.RowsReturned != 300 {
					t.Errorf("rows returned = %d, want 300", n.RowsReturned)
				}
				if n.Partitions != 3 {
					t.Errorf("partitions = %d, want 3", n.Partitions)
				}
				if n.RowsExamined != 300 || n.RowsExamined != scanned {
					t.Errorf("examined = %d, want 300 (DPs scanned %d)", n.RowsExamined, scanned)
				}
				if got := sumNodeMessages(a); got != netReq {
					t.Errorf("node messages = %d, network counted %d requests", got, netReq)
				}
				if n.Redrives != redrives {
					t.Errorf("re-drives = %d, DPs counted %d", n.Redrives, redrives)
				}
				if n.BlocksRead+n.CacheHits == 0 {
					t.Error("no block access reported for a 300-row scan")
				}
			},
		},
		{
			name: "count-star-pushdown",
			stmt: "SELECT COUNT(*) FROM emp",
			verify: func(t *testing.T, a *sql.Analyze, netReq, scanned, redrives, updated uint64) {
				n := findNode(t, a, "count EMP")
				if n.RowsReturned != 300 {
					t.Errorf("counted = %d, want 300", n.RowsReturned)
				}
				if n.RowsExamined != scanned || scanned != 300 {
					t.Errorf("examined = %d, want 300 (DPs scanned %d)", n.RowsExamined, scanned)
				}
				if got := sumNodeMessages(a); got != netReq {
					t.Errorf("node messages = %d, network counted %d requests", got, netReq)
				}
				if n.Messages != uint64(n.Partitions)+n.Redrives {
					t.Errorf("messages = %d, want partitions %d + re-drives %d",
						n.Messages, n.Partitions, n.Redrives)
				}
			},
		},
		{
			name: "group-by-pushdown",
			stmt: "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept",
			verify: func(t *testing.T, a *sql.Analyze, netReq, scanned, redrives, updated uint64) {
				n := findNode(t, a, "partial aggregation EMP (AGG^FIRST/NEXT)")
				// Entries, not rows: each of the 3 partitions ships each of
				// its 3 groups once; the result has 3 rows.
				if !n.Entries || n.RowsReturned != 9 || len(a.Result.Rows) != 3 {
					t.Errorf("Entries = %v, returned = %d, result rows = %d; want true, 9, 3", n.Entries, n.RowsReturned, len(a.Result.Rows))
				}
				if !strings.Contains(a.Plan, "entries returned=9 examined=300") {
					t.Errorf("the AGG node's actuals do not say entries:\n%s", a.Plan)
				}
				if n.RowsExamined != scanned || scanned != 300 {
					t.Errorf("examined = %d, want 300 (DPs scanned %d)", n.RowsExamined, scanned)
				}
				if got := sumNodeMessages(a); got != netReq {
					t.Errorf("node messages = %d, network counted %d requests", got, netReq)
				}
				if n.Redrives != redrives || n.Messages != uint64(n.Partitions)+n.Redrives {
					t.Errorf("messages = %d, partitions %d, re-drives = %d, DPs counted %d",
						n.Messages, n.Partitions, n.Redrives, redrives)
				}
			},
		},
		{
			name: "update-expression-pushdown",
			stmt: "UPDATE emp SET salary = salary + 1 WHERE empno < 150",
			verify: func(t *testing.T, a *sql.Analyze, netReq, scanned, redrives, updated uint64) {
				n := findNode(t, a, "UPDATE^SUBSET")
				if n.Affected != 150 || updated != 150 {
					t.Errorf("affected = %d, DPs updated %d, want 150", n.Affected, updated)
				}
				if n.RowsExamined != scanned {
					t.Errorf("examined = %d, DPs scanned %d", n.RowsExamined, scanned)
				}
				if n.Redrives != redrives {
					t.Errorf("re-drives = %d, DPs counted %d", n.Redrives, redrives)
				}
				// Commit traffic rides on the same network, so node
				// messages are a lower bound on the request delta.
				if got := sumNodeMessages(a); got > netReq {
					t.Errorf("node messages = %d exceed network requests %d", got, netReq)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDB(t)
			setupPartitionedEmp(t, d, 300)
			net0 := d.c.Net.Stats()
			s0, r0, u0, _ := dpTotals(d)
			a, err := d.s.ExplainAnalyzeStmt(tc.stmt)
			if err != nil {
				t.Fatalf("EXPLAIN ANALYZE %q: %v", tc.stmt, err)
			}
			net1 := d.c.Net.Stats()
			s1, r1, u1, _ := dpTotals(d)
			if len(a.Nodes) == 0 {
				t.Fatal("no nodes collected")
			}
			if !strings.Contains(a.Plan, "actual ") {
				t.Fatalf("plan lacks actuals:\n%s", a.Plan)
			}
			tc.verify(t, a, net1.Requests-net0.Requests, s1-s0, r1-r0, u1-u0)
		})
	}
}

// TestExplainAnalyzeWisconsin1pct is the acceptance check: the Wisconsin
// 1%-selection reports actual messages, rows, re-drives, cache hit rate,
// and latency percentiles per plan node, and every counter reconciles
// with the message-system and Disk Process statistics.
func TestExplainAnalyzeWisconsin1pct(t *testing.T) {
	d := newDB(t)
	const n = 1000
	if err := wisconsin.Load(d.s, "WISC", n,
		`PARTITION ON ("$DATA1", "$DATA2" FROM 334, "$DATA3" FROM 667)`); err != nil {
		t.Fatal(err)
	}
	q := wisconsin.Queries("WISC", n)[0] // sel1pct-clustered
	net0 := d.c.Net.Stats()
	s0, r0, _, _ := dpTotals(d)
	a, err := d.s.ExplainAnalyzeStmt(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	net1 := d.c.Net.Stats()
	s1, r1, _, _ := dpTotals(d)

	node := findNode(t, a, "scan WISC")
	if node.RowsReturned != n/100 {
		t.Errorf("rows returned = %d, want %d", node.RowsReturned, n/100)
	}
	if len(a.Result.Rows) != n/100 {
		t.Errorf("result rows = %d, want %d", len(a.Result.Rows), n/100)
	}
	// The SELECT runs with browse access (no transaction), so the scan's
	// conversations are the statement's only network traffic: node
	// counters must match the global deltas exactly.
	if got := sumNodeMessages(a); got != net1.Requests-net0.Requests {
		t.Errorf("node messages = %d, network counted %d requests",
			got, net1.Requests-net0.Requests)
	}
	if node.RowsExamined != s1-s0 {
		t.Errorf("examined = %d, DPs scanned %d", node.RowsExamined, s1-s0)
	}
	if node.Redrives != r1-r0 {
		t.Errorf("re-drives = %d, DPs counted %d", node.Redrives, r1-r0)
	}
	if node.BlocksRead+node.CacheHits == 0 {
		t.Error("no block access reported")
	}
	if hr := node.CacheHitRate(); hr < 0 || hr > 1 {
		t.Errorf("cache hit rate %f out of range", hr)
	}
	if node.Lat.Count() != node.Messages {
		t.Errorf("latency samples = %d, messages = %d", node.Lat.Count(), node.Messages)
	}
	p50, p95, p99 := node.P50(), node.P95(), node.P99()
	if p50 <= 0 || p50 > p95 || p95 > p99 {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	for _, want := range []string{"actual scan WISC", "p50=", "cache hit rate="} {
		if !strings.Contains(a.Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, a.Plan)
		}
	}
}

// TestExplainAnalyzeRead: the READ node reconciles with the message
// system and the Disk Processes to the message, the byte and the record —
// one request, its bytes and its reply's, one record examined, and one
// returned by the Disk Process exactly when the key is there (the
// requester's filter may still drop it).
func TestExplainAnalyzeRead(t *testing.T) {
	d := newDB(t)
	setupPartitionedEmp(t, d, 300)
	returned := func() (n uint64) {
		for _, v := range testVolumes {
			n += d.c.DP(v).Stats().RowsReturned
		}
		return n
	}
	for _, c := range []struct {
		stmt            string
		dpReturns, rows uint64
	}{
		{"SELECT name, salary FROM emp WHERE empno = 250", 1, 1},
		{"SELECT name FROM emp WHERE empno = 250 AND dept = 'nowhere'", 1, 0},
		{"SELECT name FROM emp WHERE empno = 999", 0, 0},
	} {
		net0, ret0 := d.c.Net.Stats(), returned()
		scanned0, _, _, _ := dpTotals(d)
		a, err := d.s.ExplainAnalyzeStmt(c.stmt)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %q: %v", c.stmt, err)
		}
		net1, ret1 := d.c.Net.Stats(), returned()
		scanned1, _, _, _ := dpTotals(d)
		n := findNode(t, a, "read EMP (READ)")
		if len(a.Nodes) != 1 || n.Messages != 1 || n.Messages != net1.Requests-net0.Requests {
			t.Errorf("%q: %d nodes, %d messages, the network counted %d requests", c.stmt, len(a.Nodes), n.Messages, net1.Requests-net0.Requests)
		}
		if n.Bytes == 0 || n.Bytes != net1.Bytes()-net0.Bytes() {
			t.Errorf("%q: node bytes %d, the network moved %d", c.stmt, n.Bytes, net1.Bytes()-net0.Bytes())
		}
		if n.RowsExamined != 1 || scanned1-scanned0 != 1 || ret1-ret0 != c.dpReturns {
			t.Errorf("%q: examined %d; the Disk Processes examined %d and returned %d, want 1 and %d",
				c.stmt, n.RowsExamined, scanned1-scanned0, ret1-ret0, c.dpReturns)
		}
		if n.RowsReturned != c.rows || uint64(len(a.Result.Rows)) != c.rows {
			t.Errorf("%q: node returned %d rows, the statement %d, want %d", c.stmt, n.RowsReturned, len(a.Result.Rows), c.rows)
		}
		if n.Lat.Count() != 1 {
			t.Errorf("%q: %d latency samples for one message", c.stmt, n.Lat.Count())
		}
	}
}

// TestExplainAnalyzeDeletePushdown covers the DELETE^SUBSET node.
func TestExplainAnalyzeDeletePushdown(t *testing.T) {
	d := newDB(t)
	setupPartitionedEmp(t, d, 300)
	_, _, _, del0 := dpTotals(d)
	a, err := d.s.ExplainAnalyzeStmt("DELETE FROM emp WHERE empno >= 250")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, del1 := dpTotals(d)
	n := findNode(t, a, "DELETE^SUBSET")
	if n.Affected != 50 || del1-del0 != 50 {
		t.Errorf("affected = %d, DPs deleted %d, want 50", n.Affected, del1-del0)
	}
	res := d.exec(t, "SELECT COUNT(*) FROM emp")
	if res.Rows[0][0].I != 250 {
		t.Errorf("rows after delete = %d, want 250", res.Rows[0][0].I)
	}
}

// TestExplainAnalyzeIndexProbe covers the requester-side index-probe
// node (measured by network deltas rather than scan stats).
func TestExplainAnalyzeIndexProbe(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 100)
	d.exec(t, "CREATE INDEX emp_name ON emp (name)")
	a, err := d.s.ExplainAnalyzeStmt("SELECT salary FROM emp WHERE name = 'emp-00042'")
	if err != nil {
		t.Fatal(err)
	}
	n := findNode(t, a, "index probe EMP.EMP_NAME")
	if n.RowsReturned != 1 {
		t.Errorf("rows returned = %d, want 1", n.RowsReturned)
	}
	if n.Messages == 0 {
		t.Error("index probe reported zero messages")
	}
	if n.Lat.Count() != n.Messages {
		t.Errorf("latency samples = %d, messages = %d", n.Lat.Count(), n.Messages)
	}
}

// TestExplainAnalyzeRendering checks the annotated plan keeps the static
// plan text in front of the actuals.
func TestExplainAnalyzeRendering(t *testing.T) {
	d := newDB(t)
	setupEmp(t, d, 50)
	plan, err := d.s.ExplainAnalyze("SELECT * FROM emp WHERE empno < 10")
	if err != nil {
		t.Fatal(err)
	}
	static, err := d.s.Explain("SELECT * FROM emp WHERE empno < 10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(plan, static) {
		t.Errorf("analyzed plan does not start with the static plan:\n%s\n--- static ---\n%s", plan, static)
	}
	if !strings.Contains(plan, "total wall=") {
		t.Errorf("plan missing total wall time:\n%s", plan)
	}
}
