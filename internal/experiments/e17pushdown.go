package experiments

import (
	"fmt"
	"strings"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
	"nonstopsql/internal/wisconsin"
)

// E17Result is one query shape measured on the row-at-a-time path and
// on the near-data path (DP-side partial aggregation, Top-N row
// budgets, batched PROBE^BLOCK join probes).
type E17Result struct {
	Case      string
	Rows      int     // result rows (identical on both paths by assertion)
	RowMsgs   uint64  // messages, row-at-a-time path
	PushMsgs  uint64  // messages, near-data path
	RowBytes  uint64  // network bytes, row-at-a-time path
	PushBytes uint64  // network bytes, near-data path
	MsgRatio  float64 // RowMsgs / PushMsgs
	ByteRatio float64 // RowBytes / PushBytes
}

// E17Node is one EXPLAIN ANALYZE plan node of the pushed-down GROUP BY
// query, with the messages the plan attributes to it.
type E17Node struct {
	Node     string
	Messages uint64
}

// E17Rows is E17's two result sets.
type E17Rows struct {
	Cases []E17Result
	Nodes []E17Node
}

// E17 measures near-data pushdown on a partitioned Wisconsin relation:
// a GROUP BY whose rows never cross the FS-DP interface (per-group
// partial states do instead), Top-N with the row budget retired at the
// Disk Processes, and nested-loop joins whose inner probes travel as
// PROBE^BLOCK batches instead of one conversation per outer row. Every
// shape runs on both paths and must return byte-identical results; the
// GROUP BY case also reconciles EXPLAIN ANALYZE's per-node actuals
// against the global network counters.
func E17(n int) (*E17Rows, *Table, error) {
	// MaxReplyBytes must fit one full probe block of ~200-byte Wisconsin
	// rows (32 x 200 > the 4K default), or every block splits into two
	// replies and the conversation arithmetic below goes ragged.
	r, err := newRig(cluster.Options{ScanParallel: 3, MaxReplyBytes: 8192}, 3)
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
	if _, err := sess.Exec("CREATE INDEX wisc_u1 ON WISC (unique1)"); err != nil {
		return nil, nil, err
	}

	// Outer relations for the join shapes. PROBES carries sequential
	// unique2 keys (PK route); JPROBE carries distinct unique1 values
	// (secondary-index route). 19 full blocks of ProbeBatchSize keys
	// make the conversation-count arithmetic exact.
	nPK := 19 * fs.ProbeBatchSize
	if nPK > n {
		nPK = n / 2
	}
	if _, err := sess.Exec("CREATE TABLE PROBES (id INTEGER PRIMARY KEY, u2 INTEGER)"); err != nil {
		return nil, nil, err
	}
	if _, err := sess.Exec("CREATE TABLE JPROBE (id INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
		return nil, nil, err
	}
	if _, err := sess.Exec("BEGIN WORK"); err != nil {
		return nil, nil, err
	}
	for i := 0; i < nPK; i++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO PROBES VALUES (%d, %d)", i, i)); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < 200 && i < n; i++ {
		if _, err := sess.Exec(fmt.Sprintf("INSERT INTO JPROBE VALUES (%d, %d)", i, i*5%n)); err != nil {
			return nil, nil, err
		}
	}
	if _, err := sess.Exec("COMMIT WORK"); err != nil {
		return nil, nil, err
	}

	// MIN(stringu1) keeps a CHAR(52) column in play: the row path moves
	// it for every row, the near-data path moves one value per group
	// per message.
	cases := []struct {
		name     string
		stmt     string
		minRatio float64 // floor on both message and byte reduction (0 = informational)
		// sequential drives the case partition by partition. A parallel
		// scan opens all three partitions at once and the first one's ten
		// rows end the statement, so whether the other two conversations
		// were already sent is a race between scanner start and consumer
		// close (3 messages idle, 2 under load): not a counted quantity.
		sequential bool
	}{
		{
			name:     "groupby-agg",
			stmt:     "SELECT tenPercent, COUNT(*), SUM(unique1), MIN(stringu1) FROM WISC GROUP BY tenPercent",
			minRatio: 5,
		},
		{
			// 100 groups cycling through the key order: every few hundred
			// records meet every group. The groups are the conversation's, so
			// they ride the re-drives and ship once per partition (or per
			// full block) — not once per block of group keys "new" to the
			// message, which is what made this shape cost more messages and
			// bytes pushed down than not (9 / 46 KB against the row path's
			// 3 / 34 KB at quick scale). Four aggregates, because this rig's
			// reply block is 8 KiB: the old charge of 16 bytes a column put a
			// hundred such groups over it, their ~56 real bytes each do not.
			name: "groupby-cycling",
			stmt: "SELECT onePercent, COUNT(*), SUM(unique1), MIN(unique1), MAX(unique1) FROM WISC GROUP BY onePercent",
		},
		{
			name:       "topn-key-order",
			stmt:       "SELECT unique2, unique1 FROM WISC ORDER BY unique2 LIMIT 10",
			sequential: true,
		},
		{
			name:     "join-pk-probe",
			stmt:     "SELECT COUNT(*) FROM PROBES p, WISC w WHERE p.u2 = w.unique2",
			minRatio: 0, // asserted on probe conversations below
		},
		{
			name:     "join-index-probe",
			stmt:     "SELECT COUNT(*) FROM JPROBE p, WISC w WHERE p.v = w.unique1",
			minRatio: 0,
		},
	}

	table := &Table{
		ID:    "E17",
		Title: "Near-data pushdown: messages and bytes, row-at-a-time vs DP-side execution",
		Claim: "evaluating aggregates, row budgets, and join probes at the Disk Processes cuts message and byte traffic by the data volume that no longer crosses the FS-DP interface",
		Cols: []Col{
			label("query"), counted("rows"), counted("row-path msgs"), counted("pushdown msgs"),
			counted("msg reduction"), counted("row-path KB"), counted("pushdown KB"),
			counted("byte reduction"),
		},
	}
	var results []E17Result
	measure := func(stmt string, pushdown bool) (*sql.Result, uint64, uint64, error) {
		sess.SetPushdown(pushdown)
		defer sess.SetPushdown(true)
		r.c.Net.ResetStats()
		res, err := sess.Exec(stmt)
		if err != nil {
			return nil, 0, 0, err
		}
		st := r.c.Net.Stats()
		return res, st.Requests, st.Bytes(), nil
	}
	for _, cse := range cases {
		if cse.sequential {
			r.fs.SetScanParallel(0)
		}
		rowRes, rowMsgs, rowBytes, err := measure(cse.stmt, false)
		if err != nil {
			return nil, nil, fmt.Errorf("E17 %s row path: %w", cse.name, err)
		}
		pushRes, pushMsgs, pushBytes, err := measure(cse.stmt, true)
		if err != nil {
			return nil, nil, fmt.Errorf("E17 %s pushdown: %w", cse.name, err)
		}
		r.fs.SetScanParallel(3)
		if got, want := sql.FormatResult(pushRes), sql.FormatResult(rowRes); got != want {
			return nil, nil, fmt.Errorf("E17 %s: paths disagree\npushdown:\n%s\nrow path:\n%s", cse.name, got, want)
		}
		res := E17Result{
			Case: cse.name, Rows: len(pushRes.Rows),
			RowMsgs: rowMsgs, PushMsgs: pushMsgs,
			RowBytes: rowBytes, PushBytes: pushBytes,
			MsgRatio:  float64(rowMsgs) / float64(pushMsgs),
			ByteRatio: float64(rowBytes) / float64(pushBytes),
		}
		if cse.minRatio > 0 && (res.MsgRatio < cse.minRatio || res.ByteRatio < cse.minRatio) {
			return nil, nil, fmt.Errorf("E17 %s: reduction %.1fx msgs / %.1fx bytes, want ≥%.0fx both",
				cse.name, res.MsgRatio, res.ByteRatio, cse.minRatio)
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			cse.name, fmt.Sprintf("%d", res.Rows),
			u(res.RowMsgs), u(res.PushMsgs), f1(res.MsgRatio) + "x",
			u(res.RowBytes / 1024), u(res.PushBytes / 1024), f1(res.ByteRatio) + "x",
		})
	}

	// pk-read: the PK join's probes as the statements an application sends
	// — one unique-key SELECT per record. A unique key is the paper's
	// record-at-a-time READ ("pushdown" column); the same record through a
	// point range (k >= ? AND k <= ?) is a one-record GET^FIRST
	// conversation ("row-path" column), which is what the equality cost too
	// before the SQL executor called READ. A message each either way; the
	// READ's request carries a key, not a range, and its reply no Subset
	// Control Block and no continuation key. SELECT *, because a READ
	// returns the whole record: under a narrow projection of these
	// 200-byte records the VSBB conversation moves fewer bytes than a READ
	// does (83 KB against 124 KB for two columns), at the cost of the
	// conversation.
	pk, err := e17PointReads(r, sess, nPK)
	if err != nil {
		return nil, nil, fmt.Errorf("E17 pk-read: %w", err)
	}
	results = append(results, pk)
	table.Rows = append(table.Rows, []string{
		pk.Case, fmt.Sprintf("%d", pk.Rows),
		u(pk.RowMsgs), u(pk.PushMsgs), f1(pk.MsgRatio) + "x",
		u(pk.RowBytes / 1024), u(pk.PushBytes / 1024), f1(pk.ByteRatio) + "x",
	})

	// Reconciliation: EXPLAIN ANALYZE's aggregation node must account
	// for exactly the messages the network counted (browse read — the
	// statement is the only traffic).
	r.c.Net.ResetStats()
	a, err := sess.ExplainAnalyzeStmt(cases[0].stmt)
	if err != nil {
		return nil, nil, fmt.Errorf("E17 analyze: %w", err)
	}
	delta := r.c.Net.Stats().Requests
	var nodeMsgs uint64
	aggNode := false
	for _, node := range a.Nodes {
		nodeMsgs += node.Messages
		if strings.Contains(node.Label, "AGG^FIRST/NEXT") {
			aggNode = true
		}
	}
	if !aggNode {
		return nil, nil, fmt.Errorf("E17 analyze: no AGG^FIRST/NEXT node in plan:\n%s", a.Plan)
	}
	if nodeMsgs != delta {
		return nil, nil, fmt.Errorf("E17 analyze: node messages %d != network request delta %d", nodeMsgs, delta)
	}
	var nodes []E17Node
	for _, node := range a.Nodes {
		nodes = append(nodes, E17Node{Node: node.Label, Messages: node.Messages})
	}

	// Probe-conversation arithmetic: the batched PK join must cut inner
	// conversations by at least the batch factor (nPK probes in blocks
	// of ProbeBatchSize versus one conversation per outer row), and the
	// two-stage index route by at least half that.
	probeMsgs := func(stmt, label string) (uint64, error) {
		a, err := sess.ExplainAnalyzeStmt(stmt)
		if err != nil {
			return 0, err
		}
		for _, node := range a.Nodes {
			if strings.Contains(node.Label, label) {
				return node.Messages, nil
			}
		}
		return 0, fmt.Errorf("no %q node in plan:\n%s", label, a.Plan)
	}
	for _, jc := range []struct {
		name, stmt string
		factor     uint64
	}{
		{"join-pk-probe", cases[3].stmt, uint64(fs.ProbeBatchSize)},
		{"join-index-probe", cases[4].stmt, uint64(fs.ProbeBatchSize / 2)},
	} {
		batched, err := probeMsgs(jc.stmt, "(PROBE^BLOCK)")
		if err != nil {
			return nil, nil, fmt.Errorf("E17 %s: %w", jc.name, err)
		}
		sess.SetPushdown(false)
		perRow, err := probeMsgs(jc.stmt, "one conversation per outer row")
		sess.SetPushdown(true)
		if err != nil {
			return nil, nil, fmt.Errorf("E17 %s: %w", jc.name, err)
		}
		if batched*jc.factor > perRow {
			return nil, nil, fmt.Errorf("E17 %s: %d probe conversations batched vs %d per-row, want ≥%dx reduction",
				jc.name, batched, perRow, jc.factor)
		}
	}

	table.Notes = append(table.Notes,
		fmt.Sprintf("pk-read is %d statements, SELECT * ... WHERE unique2 = k: \"row-path\" is the record through a point range (unique2 >= k AND unique2 <= k, a GET^FIRST conversation), \"pushdown\" through the unique key (READ)", nPK),
		fmt.Sprintf("join probes travel %d keys per PROBE^BLOCK message; the PK join's %d probes cost ceil(%d/%d) conversations instead of %d",
			fs.ProbeBatchSize, nPK, nPK, fs.ProbeBatchSize, nPK),
		"both paths return byte-identical results for every case (checked each run); the GROUP BY node's actuals reconcile against msg.Network.Stats()",
		"MIN over a CHAR(52) column is the row path's burden: every candidate row crosses the interface, while the aggregation subset ships one partial state per group per full reply block, or one in all",
	)
	return &E17Rows{Cases: results, Nodes: nodes}, table, nil
}

// e17PointReads fetches records 0..n-1 of WISC one statement each, by
// unique key (READ) and by the point range that names the same record.
func e17PointReads(r *rig, sess *sql.Session, n int) (E17Result, error) {
	const cols = "SELECT * FROM WISC WHERE "
	run := func(where, node string, nargs int) (string, uint64, uint64, error) {
		p, err := sess.Prepare(cols + where)
		if err != nil {
			return "", 0, 0, err
		}
		args := make([]record.Value, nargs)
		for i := range args {
			args[i] = record.Int(0)
		}
		a, err := sess.ExplainAnalyzePrepared(p, args...)
		if err != nil {
			return "", 0, 0, err
		}
		if !strings.Contains(a.Plan, node) {
			return "", 0, 0, fmt.Errorf("%q does not run as %q:\n%s", where, node, a.Plan)
		}
		r.c.Net.ResetStats()
		var out strings.Builder
		for k := 0; k < n; k++ {
			for i := range args {
				args[i] = record.Int(int64(k))
			}
			res, err := sess.ExecPrepared(p, args...)
			if err != nil {
				return "", 0, 0, err
			}
			out.WriteString(sql.FormatResult(res))
		}
		st := r.c.Net.Stats()
		return out.String(), st.Requests, st.Bytes(), nil
	}
	viaRange, rangeMsgs, rangeBytes, err := run("unique2 >= ? AND unique2 <= ?", "actual scan WISC (RSBB)", 2)
	if err != nil {
		return E17Result{}, err
	}
	viaRead, readMsgs, readBytes, err := run("unique2 = ?", "actual read WISC (READ)", 1)
	if err != nil {
		return E17Result{}, err
	}
	if viaRead != viaRange {
		return E17Result{}, fmt.Errorf("paths disagree\nREAD:\n%s\nrange:\n%s", viaRead, viaRange)
	}
	if readMsgs != uint64(n) || rangeMsgs != uint64(n) || readBytes >= rangeBytes {
		return E17Result{}, fmt.Errorf("%d READs cost %d messages / %d bytes, the range form %d / %d: want a message each and fewer bytes by READ",
			n, readMsgs, readBytes, rangeMsgs, rangeBytes)
	}
	return E17Result{
		Case: "pk-read", Rows: n,
		RowMsgs: rangeMsgs, PushMsgs: readMsgs, RowBytes: rangeBytes, PushBytes: readBytes,
		MsgRatio: float64(rangeMsgs) / float64(readMsgs), ByteRatio: float64(rangeBytes) / float64(readBytes),
	}, nil
}
