package experiments

import (
	"fmt"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/sql"
	"nonstopsql/internal/wisconsin"
)

// E16Result is one Wisconsin query's measured FS-DP request path: the
// message traffic EXPLAIN ANALYZE attributes to the query's data-access
// node and the per-message latency distribution behind it.
type E16Result struct {
	Query         string
	Rows          uint64 // rows the node delivered (or counted/affected)
	Messages      uint64
	Redrives      uint64
	Examined      uint64 // records visited at the Disk Processes
	CacheHitRate  float64
	P50, P95, P99 time.Duration
	Lat           obs.Snapshot // the full histogram behind the three percentiles
}

// E16 exercises the observability layer end to end: a partitioned
// Wisconsin relation, one EXPLAIN ANALYZE per representative query
// shape, and the per-node actuals — messages, re-drives, server-reported
// work, p50/p95/p99 message latency — that the annotated plan reports.
// The numbers come from the same per-conversation accounting the msg and
// fs layers keep, so the experiment doubles as a reconciliation check:
// node messages must equal the network's request delta for the browse
// reads, and the latency histogram must hold one sample per message.
func E16(n int) ([]E16Result, *Table, error) {
	r, err := newRig(cluster.Options{ScanParallel: 3}, 3)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	cat := sql.NewCatalog([]string{"$DATA1", "$DATA2", "$DATA3"})
	sess := sql.NewSession(cat, r.fs)
	part := fmt.Sprintf(`PARTITION ON ("$DATA1", "$DATA2" FROM %d, "$DATA3" FROM %d)`,
		n/3, 2*n/3)
	if err := wisconsin.Load(sess, "WISC", n, part); err != nil {
		return nil, nil, err
	}

	queries := []struct {
		name  string
		stmt  string
		write bool // autocommits; commit traffic shares the network
	}{
		{name: "sel1pct-keyed", stmt: fmt.Sprintf(
			"SELECT * FROM WISC WHERE unique2 BETWEEN 0 AND %d", n/100-1)},
		{name: "sel1pct-nonkey-vsbb", stmt: "SELECT unique2, unique1 FROM WISC WHERE onePercent = 7"},
		{name: "count-star-pushdown", stmt: "SELECT COUNT(*) FROM WISC"},
		{name: "update-pushdown", stmt: "UPDATE WISC SET unique3 = unique3 + 1 WHERE fiftyPercent = 0", write: true},
	}

	table := &Table{
		ID:    "E16",
		Title: "EXPLAIN ANALYZE actuals per Wisconsin query: FS-DP messages and latency distribution",
		Claim: "the observability layer attributes messages, re-drives, DP-side work, and p50/p95/p99 latency to each plan node, reconciling with the global counters",
		Cols: []Col{
			label("query"), counted("rows"), counted("messages"), counted("re-drives"),
			counted("examined"), counted("cache hit"), observed("p50"), observed("p95"),
			observed("p99"),
		},
	}
	var results []E16Result
	for _, q := range queries {
		net0 := r.c.Net.Stats()
		a, err := sess.ExplainAnalyzeStmt(q.stmt)
		if err != nil {
			return nil, nil, fmt.Errorf("E16 %s: %w", q.name, err)
		}
		net1 := r.c.Net.Stats()
		// The data-access node is the first message-bearing one.
		var node sql.NodeActuals
		found := false
		for _, cand := range a.Nodes {
			if cand.Messages > 0 {
				node, found = cand, true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("E16 %s: no message-bearing node in %d nodes", q.name, len(a.Nodes))
		}
		// Reconciliation: browse reads produce no traffic beyond their
		// nodes; writes add commit messages, so the node count is a
		// strict lower bound there.
		var nodeMsgs uint64
		for _, cand := range a.Nodes {
			nodeMsgs += cand.Messages
		}
		delta := net1.Requests - net0.Requests
		if !q.write && nodeMsgs != delta {
			return nil, nil, fmt.Errorf("E16 %s: node messages %d != network request delta %d", q.name, nodeMsgs, delta)
		}
		if q.write && nodeMsgs > delta {
			return nil, nil, fmt.Errorf("E16 %s: node messages %d exceed network request delta %d", q.name, nodeMsgs, delta)
		}
		if node.Lat.Count() != node.Messages {
			return nil, nil, fmt.Errorf("E16 %s: %d latency samples for %d messages", q.name, node.Lat.Count(), node.Messages)
		}
		rows := node.RowsReturned
		if node.Affected > 0 {
			rows = uint64(node.Affected)
		}
		res := E16Result{
			Query: q.name, Rows: rows,
			Messages: node.Messages, Redrives: node.Redrives,
			Examined:     node.RowsExamined,
			CacheHitRate: node.CacheHitRate(),
			P50:          node.P50(), P95: node.P95(), P99: node.P99(),
			Lat: node.Lat,
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			q.name, u(res.Rows), u(res.Messages), u(res.Redrives), u(res.Examined),
			fmt.Sprintf("%.0f%%", 100*res.CacheHitRate),
			usFmt(res.P50), usFmt(res.P95), usFmt(res.P99),
		})
	}
	table.Notes = append(table.Notes,
		"latencies are harness wall-clock over the in-process message system — distribution shape and relative cost are the signal, absolute values are not hardware",
		"browse-read rows reconcile exactly against msg.Network.Stats(); update rows against the DPs' RowsUpdated",
		"the per-message timing rides the same reply path whose hang and double-charge bugs this layer's tests pinned down (handler panics and closed-server sends now account correctly)",
	)
	return results, table, nil
}

// usFmt renders a duration in whole microseconds.
func usFmt(d time.Duration) string {
	return fmt.Sprintf("%dµs", d.Microseconds())
}
