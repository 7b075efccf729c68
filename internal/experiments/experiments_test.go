package experiments

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"nonstopsql/internal/fault"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run instead of comparing against it")

const goldenFile = "testdata/quick.golden"

// TestExperiments runs every registered experiment once, compares its
// exact (Label, Counted, Modeled) columns cell for cell against
// testdata/quick.golden, and hands the same run to the experiment's
// shape assertions; then it runs the held proofs (invariants_test.go).
// A counted number that moves shows up as a diff to the golden in the PR
// that moved it:
//
//	go test ./internal/experiments -run TestExperiments -update
func TestExperiments(t *testing.T) {
	golden := readGolden(t)
	for _, e := range Registry {
		e := e
		outcomes[e.ID] = t.Run(e.ID, func(t *testing.T) { checkExperiment(t, e, golden) })
	}
	for _, p := range heldProofs {
		outcomes[p.ID] = t.Run(p.ID, p.Run)
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(formatGolden(golden)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGolden(t *testing.T) map[string][][]string {
	raw, err := os.ReadFile(goldenFile)
	if err != nil && !*update {
		t.Fatal(err)
	}
	return parseGolden(string(raw))
}

// checkExperiment runs e and compares its exact columns against the
// golden (or, under -update, records them in it).
func checkExperiment(t *testing.T, e Experiment, golden map[string][][]string) {
	got := runExperiment(t, e)
	if *update {
		golden[e.ID] = got
		return
	}
	want, ok := golden[e.ID]
	if !ok {
		t.Fatalf("%s is not in %s; run with -update", e.ID, goldenFile)
	}
	for _, d := range diffExact(e.ID, want, got) {
		t.Error(d)
	}
}

// runExperiment runs one registry entry at its test size, checks the
// table is well formed, applies the experiment's shape assertions, and
// returns the exact columns (header row first).
func runExperiment(t *testing.T, e Experiment) [][]string {
	tbl, err := e.Run(testSizes(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != e.ID {
		t.Errorf("registry entry %s returned table %s", e.ID, tbl.ID)
	}
	for _, c := range tbl.Cols {
		if c.Kind < Label || c.Kind > Observed {
			t.Errorf("column %q has no kind", c.Name)
		}
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Cols) {
			t.Fatalf("row %d has %d cells for %d columns", i+1, len(row), len(tbl.Cols))
		}
	}
	if shape := shapes[e.ID]; shape != nil {
		shape(t, tbl)
	}
	return exact(tbl)
}

// testSizes is Quick() — the scale the golden is recorded at — except
// for E14, whose exact columns are labels only: it keeps the size of the
// CI crash-point sweep rather than pay for a quick-scale run that would
// pin nothing more.
func testSizes(id string) Sizes {
	s := Quick()
	if id == "E14" { // the registry adapter divides by 4
		s.TxnsPerCli = 4 * 60
		if testing.Short() {
			s.TxnsPerCli = 4 * 24
		}
	}
	return s
}

// ---- the golden and its comparer ----------------------------------------

// exact projects a table onto its non-Observed columns, header first.
func exact(t *Table) [][]string {
	var keep []int
	header := []string{}
	for i, c := range t.Cols {
		if c.Kind != Observed {
			keep = append(keep, i)
			header = append(header, c.Name)
		}
	}
	out := [][]string{header}
	for _, row := range t.Rows {
		cells := make([]string, len(keep))
		for j, i := range keep {
			cells[j] = row[i]
		}
		out = append(out, cells)
	}
	return out
}

// diffExact reports every difference between two exact projections of
// experiment id, naming the row (by number and first cell) and column.
func diffExact(id string, want, got [][]string) []string {
	if strings.Join(want[0], "\t") != strings.Join(got[0], "\t") {
		return []string{fmt.Sprintf("%s: exact columns changed: want %q, got %q", id, want[0], got[0])}
	}
	var diffs []string
	for r := 1; r < len(want) || r < len(got); r++ {
		switch {
		case r >= len(got):
			diffs = append(diffs, fmt.Sprintf("%s row %d (%s): missing", id, r, want[r][0]))
		case r >= len(want):
			diffs = append(diffs, fmt.Sprintf("%s row %d (%s): not in the golden", id, r, got[r][0]))
		default:
			for c, name := range want[0] {
				if want[r][c] != got[r][c] {
					diffs = append(diffs, fmt.Sprintf("%s row %d (%s) column %q: want %s, got %s",
						id, r, want[r][0], name, want[r][c], got[r][c]))
				}
			}
		}
	}
	return diffs
}

const goldenHeader = `# Exact (Label, Counted, Modeled) columns of every registered experiment
# at Quick() scale; Observed columns are not recorded. TestExperiments
# compares each cell as a string. E14 pins labels only and runs at the
# smaller size in testSizes (experiments_test.go).
# Regenerate: go test ./internal/experiments -run TestExperiments -update
`

// formatGolden renders the golden: one "== ID" section per experiment in
// registry order, tab-separated cells, header row first.
func formatGolden(g map[string][][]string) string {
	var sb strings.Builder
	sb.WriteString(goldenHeader)
	for _, e := range Registry {
		rows, ok := g[e.ID]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "\n== %s\n", e.ID)
		for _, row := range rows {
			sb.WriteString(strings.Join(row, "\t"))
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func parseGolden(s string) map[string][][]string {
	g := map[string][][]string{}
	id := ""
	for _, line := range strings.Split(s, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "== "):
			id = strings.TrimPrefix(line, "== ")
		default:
			g[id] = append(g[id], strings.Split(line, "\t"))
		}
	}
	return g
}

func TestGoldenComparer(t *testing.T) {
	table := func() *Table {
		return &Table{
			ID:   "T",
			Cols: []Col{label("mode"), counted("msgs"), modeled("est ms"), observed("TPS")},
			Rows: [][]string{{"a", "10", "1.5", "900"}, {"b", "20", "3.0", "800"}},
		}
	}
	want := exact(table())
	if got := parseGolden(formatGolden(map[string][][]string{"E1": want}))["E1"]; len(diffExact("E1", want, got)) != 0 {
		t.Errorf("golden does not round-trip: %q vs %q", want, got)
	}

	doctored := table()
	doctored.Rows[1][1] = "21"
	diffs := diffExact("T", want, exact(doctored))
	if len(diffs) != 1 || diffs[0] != `T row 2 (b) column "msgs": want 20, got 21` {
		t.Errorf("changed Counted cell: %q", diffs)
	}

	doctored = table()
	doctored.Rows = append(doctored.Rows, []string{"c", "30", "4.5", "700"})
	diffs = diffExact("T", want, exact(doctored))
	if len(diffs) != 1 || diffs[0] != "T row 3 (c): not in the golden" {
		t.Errorf("added row: %q", diffs)
	}

	doctored = table()
	doctored.Rows[0][3] = "901"
	if diffs := diffExact("T", want, exact(doctored)); len(diffs) != 0 {
		t.Errorf("changed Observed cell must pass: %q", diffs)
	}
}

// TestRegistry checks what needs no run: IDs are unique, every ID in
// DESIGN.md §4's index is registered, and the committed golden has
// exactly one section per entry. (That a table's ID is its registry ID
// and every column has a kind is checked per run, in runExperiment.)
func TestRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry {
		if ids[e.ID] {
			t.Errorf("duplicate registry ID %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, p := range heldProofs {
		if ids[p.ID] {
			t.Errorf("held proof %s has a registry ID", p.ID)
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index := regexp.MustCompile(`(?m)^\| ((?:E|F|ABL-)[A-Z0-9-]+) \|`).FindAllStringSubmatch(string(design), -1)
	if len(index) < len(Registry) {
		t.Errorf("DESIGN.md §4 indexes %d experiments, the registry has %d", len(index), len(Registry))
	}
	for _, m := range index {
		if !ids[m[1]] {
			t.Errorf("DESIGN.md §4 lists %s, which is not in the registry", m[1])
		}
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := parseGolden(string(raw))
	for _, e := range Registry {
		if len(golden[e.ID]) < 2 {
			t.Errorf("%s has no rows in %s", e.ID, goldenFile)
		}
	}
	if len(golden) != len(Registry) {
		t.Errorf("%s has %d sections for %d registered experiments", goldenFile, len(golden), len(Registry))
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "T", Title: "title", Claim: "claim",
		Cols:  []Col{label("mode"), counted("messages"), observed("TPS")},
		Rows:  [][]string{{"sync-per-write", "7", "1234.5"}},
		Notes: []string{"n"},
	}
	want := "T — title\n" +
		"paper: claim\n" +
		"mode            messages  TPS~    \n" +
		"--------------  --------  ------  \n" +
		"sync-per-write  7         1234.5  \n" +
		"note: n\n"
	if got := tbl.Render(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

// ---- shape assertions ---------------------------------------------------

// shapes holds each experiment's shape assertions: the paper's ratios
// and directions, checked on the typed rows of the run TestExperiments
// just compared against the golden.
var shapes = map[string]func(*testing.T, *Table){
	"E1": shapeE1, "E2": shapeE2, "E3": shapeE3, "E4": shapeE4, "E5": shapeE5,
	"E6": shapeE6, "E7": shapeE7, "E8": shapeE8, "E9": shapeE9, "E10": shapeE10,
	"E11": shapeE11, "E12": shapeE12, "E13": shapeE13, "E14": shapeE14, "E15": shapeE15,
	"E16": shapeE16, "E17": shapeE17, "F1": shapeF1, "F2": shapeF2,
}

func shapeE1(t *testing.T, table *Table) {
	results := table.typed.([]E1Result)
	if len(results) != 3 || len(table.Rows) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.Factor < 2 {
			t.Errorf("record=%dB: RSBB factor %.1f < 2", r.RecordBytes, r.Factor)
		}
		// Factor ≈ blocking factor.
		if r.Factor < r.BlockingFactor*0.8 || r.Factor > r.BlockingFactor*1.3 {
			t.Errorf("record=%dB: factor %.1f vs blocking factor %.1f", r.RecordBytes, r.Factor, r.BlockingFactor)
		}
	}
	// The paper's "factor of three" appears at ~1.3 KB records.
	big := results[2]
	if big.Factor < 2.5 || big.Factor > 4.5 {
		t.Errorf("1.3KB records: factor %.1f, paper says ≈3", big.Factor)
	}
}

func shapeE2(t *testing.T, table *Table) {
	selective := 0
	for _, r := range table.typed.([]E2Result) {
		if r.Selectivity <= 0.10 && r.Factor >= 3 {
			selective++
		}
		if r.VSBBBytes > r.RSBBBytes {
			t.Errorf("%s: VSBB moved more bytes (%d) than RSBB (%d)", r.Query, r.VSBBBytes, r.RSBBBytes)
		}
	}
	if selective < 2 {
		t.Errorf("only %d selective queries achieved the paper's ≥3x", selective)
	}
}

func shapeE3(t *testing.T, table *Table) {
	results := table.typed.([]E3Result)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	readRewrite, point, subset := results[0], results[1], results[2]
	if readRewrite.PerRec < 1.9 {
		t.Errorf("read+rewrite %.2f msgs/rec, want ≈2", readRewrite.PerRec)
	}
	if point.PerRec < 0.9 || point.PerRec > 1.2 {
		t.Errorf("point pushdown %.2f msgs/rec, want ≈1", point.PerRec)
	}
	if subset.PerRec > 0.05 {
		t.Errorf("subset pushdown %.3f msgs/rec, want ≈0", subset.PerRec)
	}
}

func shapeE4(t *testing.T, table *Table) {
	results := table.typed.([]E4Result)
	full, comp := results[0], results[1]
	if comp.AuditBytes*5 > full.AuditBytes {
		t.Errorf("field compression weak: %d vs %d bytes", comp.AuditBytes, full.AuditBytes)
	}
	if comp.AuditSends >= full.AuditSends {
		t.Errorf("compressed audit should flush less: %d vs %d", comp.AuditSends, full.AuditSends)
	}
}

func shapeE5(t *testing.T, table *Table) {
	var off, on E5Result
	for _, r := range table.typed.([]E5Result) {
		switch {
		case r.Clients != 8:
		case r.GroupCommit:
			on = r
		default:
			off = r
		}
	}
	if off.CommitsPerIO > 1.15 {
		t.Errorf("without group commit: %.2f commits/flush", off.CommitsPerIO)
	}
	if on.CommitsPerIO <= off.CommitsPerIO {
		t.Errorf("group commit did not group: on=%.2f off=%.2f", on.CommitsPerIO, off.CommitsPerIO)
	}
	if on.LogFlushes >= off.LogFlushes {
		t.Errorf("group commit should reduce log I/O: %d vs %d", on.LogFlushes, off.LogFlushes)
	}
}

func shapeE6(t *testing.T, table *Table) {
	results := table.typed.([]E6Result)
	demand, bulk := results[0], results[1]
	if bulk.DiskReads*3 > demand.DiskReads {
		t.Errorf("bulk I/O weak: %d vs %d reads", bulk.DiskReads, demand.DiskReads)
	}
	if bulk.BlocksPerIO < 4 {
		t.Errorf("blocks/read %.1f, want approaching 7", bulk.BlocksPerIO)
	}
	wbOn, wbOff := results[2], results[3]
	if wbOn.DiskWrites >= wbOff.DiskWrites {
		t.Errorf("write-behind should coalesce: %d vs %d writes", wbOn.DiskWrites, wbOff.DiskWrites)
	}
	keyedOn, keyedOff := results[4], results[5]
	if keyedOn.DirtyEvictions != 0 || keyedOn.WALStalls != 0 {
		t.Errorf("keyed updates with write-behind: %d dirty evictions, %d WAL stalls, want none", keyedOn.DirtyEvictions, keyedOn.WALStalls)
	}
	if keyedOn.BlocksWritten >= uint64(keyedOn.Updates) {
		t.Errorf("keyed updates with write-behind wrote %d blocks for %d updates", keyedOn.BlocksWritten, keyedOn.Updates)
	}
	if keyedOff.DirtyEvictions == 0 {
		t.Error("keyed updates without write-behind evicted no dirty page: the pool is not under pressure")
	}
}

func shapeE7(t *testing.T, table *Table) {
	results := table.typed.([]E7Result)
	enscribe, sqlr := results[0], results[1]
	if sqlr.MsgsPerTxn > enscribe.MsgsPerTxn {
		t.Errorf("SQL %.1f msgs/txn > ENSCRIBE %.1f", sqlr.MsgsPerTxn, enscribe.MsgsPerTxn)
	}
	if sqlr.AuditPerTxn > enscribe.AuditPerTxn {
		t.Errorf("SQL %.0f audit B/txn > ENSCRIBE %.0f", sqlr.AuditPerTxn, enscribe.AuditPerTxn)
	}
}

// E8 and E9 sweep factors 8 and 32; the shape is asserted on the larger.
func shapeE8(t *testing.T, table *Table) {
	r8 := table.typed.([]E8Result)
	if blocked := r8[len(r8)-1]; blocked.Messages*8 > r8[0].Messages {
		t.Errorf("blocked insert weak: %d vs %d msgs", blocked.Messages, r8[0].Messages)
	}
}

func shapeE9(t *testing.T, table *Table) {
	r9 := table.typed.([]E9Result)
	if buffered := r9[len(r9)-1]; buffered.Messages*4 > r9[0].Messages {
		t.Errorf("buffered cursor weak: %d vs %d msgs", buffered.Messages, r9[0].Messages)
	}
}

func shapeE10(t *testing.T, table *Table) {
	results := table.typed.([]E10Result)
	for _, r := range results {
		if r.TotalRows != Quick().Rows {
			t.Errorf("limit %d: lost rows (%d)", r.RowLimit, r.TotalRows)
		}
	}
	// Smaller limits → more messages; GET^NEXT smaller than GET^FIRST.
	if results[0].Messages <= results[2].Messages {
		t.Errorf("limit 10 used %d msgs vs limit 1000 %d", results[0].Messages, results[2].Messages)
	}
	if results[0].ReqBytesGN >= results[0].ReqBytesGF {
		t.Errorf("GET^NEXT (%dB) not smaller than GET^FIRST (%dB)", results[0].ReqBytesGN, results[0].ReqBytesGF)
	}
}

func shapeE11(t *testing.T, table *Table) {
	results := table.typed.([]E11Result)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	if !results[0].WriterBlocked {
		t.Error("ENSCRIBE SBB: writer should be blocked anywhere in the file")
	}
	if !results[1].WriterBlocked {
		t.Error("VSBB: writer inside the virtual block should be blocked")
	}
	if results[2].WriterBlocked {
		t.Error("VSBB: writer outside the virtual block should proceed")
	}
}

func shapeE12(t *testing.T, table *Table) {
	results := table.typed.([]E12Result)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	base := results[0]
	for _, r := range results {
		// E12 itself verifies rows/checksum/msgs/bytes; re-assert the
		// headline invariant here so a regression reads clearly.
		if r.Msgs != base.Msgs || r.Rows != base.Rows {
			t.Errorf("DOP %d: traffic changed (%d msgs, %d rows)", r.DOP, r.Msgs, r.Rows)
		}
		if r.DOP > 1 && r.Modeled >= base.Modeled {
			t.Errorf("DOP %d: modeled %v not below sequential %v", r.DOP, r.Modeled, base.Modeled)
		}
	}
	// Four even partitions at DOP 4 should come close to dividing the
	// makespan; demand well over 2x to leave slack for span skew.
	if last := results[len(results)-1]; last.Speedup < 2.0 {
		t.Errorf("DOP %d speedup %.2fx, want > 2x", last.DOP, last.Speedup)
	}
}

func shapeE13(t *testing.T, table *Table) {
	results := table.typed.([]E13Result)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	base := results[0]
	if base.EffConc > 1.05 {
		t.Errorf("workers=1 effective concurrency %.2f, want ~1", base.EffConc)
	}
	for _, r := range results {
		// E13 itself verifies checksums, commit counts, and 1→2→4
		// monotonicity; re-assert the headline invariant here.
		if r.Checksum != base.Checksum || r.Commits != base.Commits {
			t.Errorf("workers=%d: results changed (checksum %x, commits %d)", r.Workers, r.Checksum, r.Commits)
		}
	}
	for _, r := range results {
		if r.Workers == 4 && r.Speedup < 2.0 {
			t.Errorf("workers=4 speedup %.2fx, want >= 2x", r.Speedup)
		}
	}
}

// shapeE14 is the CI crash-point sweep: every named crash point,
// deterministic seeds, all recovery invariants checked per point by E14
// itself. The golden pins the set of points.
func shapeE14(t *testing.T, table *Table) {
	results := table.typed.([]E14Result)
	points := fault.Points()
	if len(results) != len(points) {
		t.Fatalf("swept %d points, want %d", len(results), len(points))
	}
	if len(points) < 12 {
		t.Fatalf("only %d named crash points; the sweep must cover at least 12", len(points))
	}
	for _, res := range results {
		if res.Hits == 0 {
			t.Errorf("point %s: fired without a counted hit", res.Point)
		}
	}
	t.Log("\n" + table.Render())
}

func shapeE15(t *testing.T, table *Table) {
	rows := table.typed.(*E15Rows)
	results, sweep := rows.Policies, rows.Sweep
	if len(results) != 4 || len(sweep) != 5 {
		t.Fatalf("%d results, %d sweep rows", len(results), len(sweep))
	}
	// E15 itself asserts the policy contrast and the sweep trend;
	// re-assert the headline invariants here.
	srMixed, plMixed := results[1], results[3]
	if srMixed.RelTPS < 0.9 {
		t.Errorf("scan-resistant mixed TPS %.2fx of baseline, want >= 0.9x", srMixed.RelTPS)
	}
	if plMixed.RelTPS >= 0.9 {
		t.Errorf("plain LRU mixed TPS %.2fx of baseline, want < 0.9x", plMixed.RelTPS)
	}
	if plMixed.KeyedHitRate >= srMixed.KeyedHitRate {
		t.Errorf("plain LRU keyed hit rate %.3f not below scan-resistant %.3f",
			plMixed.KeyedHitRate, srMixed.KeyedHitRate)
	}
	if sweep[len(sweep)-1].ExpectedWaitsPerM >= sweep[0].ExpectedWaitsPerM {
		t.Errorf("expected shard waits did not fall: %.0f/M at 1 shard, %.0f/M at 16",
			sweep[0].ExpectedWaitsPerM, sweep[len(sweep)-1].ExpectedWaitsPerM)
	}
}

func shapeE16(t *testing.T, table *Table) {
	results := table.typed.([]E16Result)
	if len(results) != 4 || len(table.Rows) != 4 {
		t.Fatalf("%d results, %d table rows", len(results), len(table.Rows))
	}
	// E16 itself asserts message/latency reconciliation; re-assert the
	// headline shape here.
	for _, r := range results {
		if r.Messages == 0 || r.Rows == 0 {
			t.Errorf("%s: messages=%d rows=%d", r.Query, r.Messages, r.Rows)
		}
		if r.P50 <= 0 || r.P50 > r.P95 || r.P95 > r.P99 {
			t.Errorf("%s: percentiles not ordered: p50=%v p95=%v p99=%v", r.Query, r.P50, r.P95, r.P99)
		}
		if r.Lat.Count() != r.Messages {
			t.Errorf("%s: %d latency samples for %d messages", r.Query, r.Lat.Count(), r.Messages)
		}
	}
	keyed := results[0]
	if keyed.Examined < keyed.Rows {
		t.Errorf("keyed 1%%: examined %d < returned %d", keyed.Examined, keyed.Rows)
	}
}

func shapeE17(t *testing.T, table *Table) {
	rows := table.typed.(*E17Rows)
	results, nodes := rows.Cases, rows.Nodes
	if len(results) != 6 || len(table.Rows) != 6 {
		t.Fatalf("%d results, %d table rows", len(results), len(table.Rows))
	}
	foundAgg := false
	for _, n := range nodes {
		if strings.Contains(n.Node, "AGG^FIRST/NEXT") && n.Messages > 0 {
			foundAgg = true
		}
	}
	if !foundAgg {
		t.Errorf("no message-bearing aggregation node exported: %+v", nodes)
	}
	// E17 itself asserts result equality, the ≥5x GROUP BY floor, the
	// probe-batch conversation arithmetic, and EXPLAIN ANALYZE
	// reconciliation; re-assert the headline direction here.
	for _, r := range results {
		if r.PushMsgs == 0 || r.RowMsgs == 0 {
			t.Errorf("%s: empty measurement %+v", r.Case, r)
		}
		if r.MsgRatio < 1 || r.ByteRatio < 1 {
			t.Errorf("%s: pushdown made traffic worse: %.2fx msgs %.2fx bytes", r.Case, r.MsgRatio, r.ByteRatio)
		}
	}
	if agg := results[0]; agg.MsgRatio < 5 || agg.ByteRatio < 5 {
		t.Errorf("groupby-agg: %.1fx msgs %.1fx bytes, want ≥5x", agg.MsgRatio, agg.ByteRatio)
	}
}

func shapeF1(t *testing.T, table *Table) {
	results := table.typed.([]F1Result)
	if results[0].LocalMsgs == 0 || results[0].NetMsgs != 0 {
		t.Errorf("local placement: %+v", results[0])
	}
	if results[1].BusMsgs == 0 {
		t.Errorf("bus placement: %+v", results[1])
	}
	if results[2].NetMsgs == 0 {
		t.Errorf("remote placement: %+v", results[2])
	}
}

func shapeF2(t *testing.T, table *Table) {
	results := table.typed.([]F2Result)
	// Step 1 is index probe + base read (2 messages), step 2 is one
	// pushdown update.
	if results[0].Messages != 2 {
		t.Errorf("index step used %d messages", results[0].Messages)
	}
	if results[1].Messages != 1 {
		t.Errorf("update step used %d messages", results[1].Messages)
	}
}

// ---- the former per-experiment test names -------------------------------
//
// Before TestExperiments each experiment had a top-level test of its
// own, and the list of tests a change may not lose still names them.
// Each remains as an alias that reports its TestExperiments subtest's
// outcome; run alone (go test -run TestE17NearDataPushdown) it runs that
// subtest itself. A held proof (E18–E21) is aliased the same way, so it
// runs once per pass under both of its names.

// outcomes holds, per experiment ID, whether its TestExperiments subtest
// passed in this pass over the package. An alias consumes its entry, so
// under -count=N every pass starts empty.
var outcomes = map[string]bool{}

func alias(t *testing.T, ids ...string) {
	for _, id := range ids {
		passed, ran := outcomes[id]
		delete(outcomes, id)
		if !ran {
			golden := readGolden(t)
			for _, e := range Registry {
				if e.ID == id {
					passed = t.Run(id, func(t *testing.T) { checkExperiment(t, e, golden) })
				}
			}
			for _, p := range heldProofs {
				if p.ID == id {
					passed = t.Run(id, p.Run)
				}
			}
		}
		if !passed {
			t.Errorf("TestExperiments/%s failed", id)
		}
	}
}

func TestE1ShapesHold(t *testing.T)                      { alias(t, "E1") }
func TestE2VSBBBeatsRSBBOnSelectiveQueries(t *testing.T) { alias(t, "E2") }
func TestE3MessageReduction(t *testing.T)                { alias(t, "E3") }
func TestE4CompressionRatio(t *testing.T)                { alias(t, "E4") }
func TestE5GroupCommitGroups(t *testing.T)               { alias(t, "E5") }
func TestE6BulkIOAndWriteBehind(t *testing.T)            { alias(t, "E6") }
func TestE7SQLMatchesEnscribe(t *testing.T)              { alias(t, "E7") }
func TestE8E9BlockingFactor(t *testing.T)                { alias(t, "E8", "E9") }
func TestE10RedriveBounds(t *testing.T)                  { alias(t, "E10") }
func TestE11LockingMatrix(t *testing.T)                  { alias(t, "E11") }
func TestE12ParallelScan(t *testing.T)                   { alias(t, "E12") }
func TestE13IntraDPConcurrency(t *testing.T)             { alias(t, "E13") }
func TestRecoveryTorture(t *testing.T)                   { alias(t, "E14") }
func TestE15ScanResistantCache(t *testing.T)             { alias(t, "E15") }
func TestE16Observability(t *testing.T)                  { alias(t, "E16") }
func TestE17NearDataPushdown(t *testing.T)               { alias(t, "E17") }
func TestE18FileVolumes(t *testing.T)                    { alias(t, "E18") }
func TestE19WireServing(t *testing.T)                    { alias(t, "E19") }
func TestE20PreparedStatements(t *testing.T)             { alias(t, "E20") }
func TestE21ReplicatedTakeover(t *testing.T)             { alias(t, "E21") }
func TestF1Classification(t *testing.T)                  { alias(t, "F1") }
func TestF2TwoMessageFlow(t *testing.T)                  { alias(t, "F2") }
