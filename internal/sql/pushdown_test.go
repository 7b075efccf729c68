package sql_test

import (
	"strings"
	"testing"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/sql"
)

// newDBOpts is newDB with cluster options (small message budgets make
// message-count assertions meaningful at test row counts).
func newDBOpts(t testing.TB, opts cluster.Options) *db {
	t.Helper()
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	vols := []string{"$DATA1", "$DATA2", "$DATA3"}
	for i, v := range vols {
		if _, err := c.AddVolume(0, i%3, v); err != nil {
			t.Fatal(err)
		}
	}
	cat := sql.NewCatalog(vols)
	// Registered after Close, so it runs first: a test ends with every
	// Disk Process at rest.
	t.Cleanup(func() {
		for _, v := range vols {
			if open := c.DP(v).OpenState(); open != (dp.Open{}) {
				t.Errorf("%s holds %+v at the end of the test", v, open)
			}
		}
	})
	return &db{c: c, cat: cat, s: sql.NewSession(cat, c.NewFS(0, 0))}
}

// TestAggPushdownDifferential runs every aggregate shape twice — once
// with near-data pushdown, once on the row-at-a-time path — and
// requires byte-identical formatted results. The matrix covers the
// edge semantics that make aggregates easy to get wrong at a distance:
// empty inputs (MIN/MAX/SUM go NULL, COUNT goes 0), NULLs in both
// group keys and aggregated columns, partitions contributing zero
// rows to a group, and shapes that must fall back (DISTINCT). It runs
// under the default message budgets, where every conversation here is one
// message a partition, and again under budgets small enough that the
// AGG^FIRST/NEXT conversation does everything it can do: messages the row
// budget ends (no entries), blocks that fill and ship mid-range, and
// groups met again after their block has gone.
func TestAggPushdownDifferential(t *testing.T) {
	t.Run("default budgets", func(t *testing.T) { aggPushdownDifferential(t, newDB(t)) })
	t.Run("16-row messages, 128-byte blocks", func(t *testing.T) {
		aggPushdownDifferential(t, newDBOpts(t, cluster.Options{MaxRowsPerMsg: 16, MaxReplyBytes: 128}))
	})
}

func aggPushdownDifferential(t *testing.T, d *db) {
	d.exec(t, createM)
	d.exec(t, createGK)
	queries := aggDiffQueries

	diff := func(phase string) {
		t.Helper()
		for _, q := range queries {
			d.s.SetPushdown(true)
			pushed, err := d.s.Exec(q)
			if err != nil {
				t.Fatalf("%s: %q with pushdown: %v", phase, q, err)
			}
			d.s.SetPushdown(false)
			plain, err := d.s.Exec(q)
			d.s.SetPushdown(true)
			if err != nil {
				t.Fatalf("%s: %q without pushdown: %v", phase, q, err)
			}
			if got, want := sql.FormatResult(pushed), sql.FormatResult(plain); got != want {
				t.Errorf("%s: %q diverges\npushdown:\n%s\nrow path:\n%s", phase, q, got, want)
			}
		}
	}

	// Phase 1: empty table — every partition contributes zero rows.
	diff("empty")

	// Phase 2: populated (loadM).
	loadM(t, d)
	loadGK(t, d)
	diff("loaded")

	// The pushdown plan must actually be in play for the decomposable
	// shapes — otherwise this test compares the row path with itself.
	plan, err := d.s.Explain("SELECT dept, COUNT(*) FROM m GROUP BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "partial aggregation at Disk Processes") {
		t.Fatalf("GROUP BY plan did not push down:\n%s", plan)
	}
	plan, err = d.s.Explain("SELECT COUNT(DISTINCT dept) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "partial aggregation at Disk Processes") {
		t.Fatalf("DISTINCT plan claims pushdown:\n%s", plan)
	}
}

// TestJoinProbeDifferential runs join shapes under batched PROBE^BLOCK
// probes and under one-conversation-per-outer-row, requiring identical
// results, and checks that batching actually cuts the message count.
func TestJoinProbeDifferential(t *testing.T) {
	d := newDB(t)
	loadJoinTables(t, d)
	queries := joinDiffQueries
	for _, q := range queries {
		d.s.SetPushdown(true)
		batched, err := d.s.Exec(q)
		if err != nil {
			t.Fatalf("%q batched: %v", q, err)
		}
		d.s.SetPushdown(false)
		plain, err := d.s.Exec(q)
		d.s.SetPushdown(true)
		if err != nil {
			t.Fatalf("%q row path: %v", q, err)
		}
		if got, want := sql.FormatResult(batched), sql.FormatResult(plain); got != want {
			t.Errorf("%q diverges\nbatched:\n%s\nrow path:\n%s", q, got, want)
		}
	}

	// Message economics on the PK route: 60 outer rows dedupe to ~53
	// distinct probes over 2 partitions — a handful of PROBE^BLOCK
	// messages versus one conversation per outer row.
	q := "SELECT COUNT(*) FROM outr o, innr i WHERE o.fk = i.k"
	d.c.Net.ResetStats()
	d.exec(t, q)
	batchedMsgs := d.c.Net.Stats().Requests
	d.s.SetPushdown(false)
	d.c.Net.ResetStats()
	d.s.MustExec(q)
	rowMsgs := d.c.Net.Stats().Requests
	d.s.SetPushdown(true)
	if batchedMsgs*5 > rowMsgs {
		t.Errorf("batched join cost %d messages vs %d row-at-a-time — want ≥5x reduction", batchedMsgs, rowMsgs)
	}
}

// TestLimitPushdownMessages pins the LIMIT regression: a bare LIMIT n
// must not drain the whole scan client-side. With the row budget pushed
// down, each partition's Disk Process retires the subset after n rows.
func TestLimitPushdownMessages(t *testing.T) {
	d := newDBOpts(t, cluster.Options{MaxRowsPerMsg: 16})
	setupPartitionedEmp(t, d, 300)

	scbs := func() int {
		n := 0
		for _, v := range []string{"$DATA1", "$DATA2", "$DATA3"} {
			n += d.c.DP(v).OpenState().SCBs
		}
		return n
	}

	d.c.Net.ResetStats()
	res := d.exec(t, "SELECT empno FROM emp LIMIT 5")
	limited := d.c.Net.Stats().Requests
	if len(res.Rows) != 5 {
		t.Fatalf("LIMIT 5 returned %d rows", len(res.Rows))
	}
	// At most one message per partition: no partition may re-drive past
	// a 5-row budget, and no subset may be left open.
	if limited > 3 {
		t.Errorf("LIMIT 5 cost %d messages, want at most 3", limited)
	}
	if n := scbs(); n != 0 {
		t.Errorf("%d SCBs leaked after LIMIT scan", n)
	}

	limitedBytes := d.c.Net.Stats().Bytes()

	// Without the budget the requester still stops reading after 5 rows,
	// but the Disk Process has already shipped a full 16-row block and
	// the abandoned subset costs an extra CLOSE^SUBSET message. The
	// pushed-down budget must cost strictly fewer messages and bytes.
	d.s.SetPushdown(false)
	d.c.Net.ResetStats()
	res = d.s.MustExec("SELECT empno FROM emp LIMIT 5")
	drained := d.c.Net.Stats().Requests
	drainedBytes := d.c.Net.Stats().Bytes()
	d.s.SetPushdown(true)
	if len(res.Rows) != 5 {
		t.Fatalf("row-path LIMIT 5 returned %d rows", len(res.Rows))
	}
	if limited >= drained {
		t.Errorf("pushdown LIMIT cost %d messages vs %d without the budget", limited, drained)
	}
	if limitedBytes >= drainedBytes {
		t.Errorf("pushdown LIMIT moved %d bytes vs %d without the budget", limitedBytes, drainedBytes)
	}

	// LIMIT 0: the empty result is free — not one message.
	d.c.Net.ResetStats()
	res = d.exec(t, "SELECT empno FROM emp LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	if msgs := d.c.Net.Stats().Requests; msgs != 0 {
		t.Errorf("LIMIT 0 cost %d messages, want 0", msgs)
	}

	// Top-N: ORDER BY on the key prefix keeps the budget; results match
	// the row path exactly.
	want := sql.FormatResult(func() *sql.Result {
		d.s.SetPushdown(false)
		defer d.s.SetPushdown(true)
		return d.s.MustExec("SELECT empno, name FROM emp ORDER BY empno LIMIT 7")
	}())
	d.c.Net.ResetStats()
	res = d.exec(t, "SELECT empno, name FROM emp ORDER BY empno LIMIT 7")
	topn := d.c.Net.Stats().Requests
	if got := sql.FormatResult(res); got != want {
		t.Errorf("Top-N diverges:\n%s\nwant:\n%s", got, want)
	}
	if topn > 3 {
		t.Errorf("Top-N LIMIT 7 cost %d messages, want at most 3", topn)
	}
}
