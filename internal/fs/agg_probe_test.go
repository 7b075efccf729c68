package fs_test

import (
	"fmt"
	"testing"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// loadSpread inserts n rows spread across partitionedDef's three key
// ranges with cycling departments and a salary of 10*i, so aggregates
// have per-group structure on every volume.
func loadSpread(t testing.TB, r *rig, def *fs.FileDef, n int) {
	t.Helper()
	tx := r.fs.Begin()
	step := int64(3000 / n)
	for i := 0; i < n; i++ {
		no := int64(i) * step
		dept := []string{"SALES", "ENG", "HR"}[i%3]
		if err := r.fs.Insert(nil, tx, def, empRow(no, fmt.Sprintf("e%04d", no), dept, float64(10*i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func openSCBs(r *rig) int {
	n := 0
	for _, name := range []string{"$DATA1", "$DATA2", "$DATA3"} {
		_, scbs := r.c.DP(name).OpenState()
		n += scbs
	}
	return n
}

// TestAggMatchesScan checks the merged partial states against a
// ground truth computed from a full client-side scan, with a small
// per-message row budget forcing group merges across re-drives and
// partitions.
func TestAggMatchesScan(t *testing.T) {
	r := newRig(t, cluster.Options{MaxRowsPerMsg: 16, ScanParallel: 3})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadSpread(t, r, def, 300)

	pred := expr.Bin(expr.OpGE, expr.F(3, "SALARY"), expr.CInt(300))
	spec := &fsdp.AggSpec{
		GroupBy: []int{2},
		Cols: []fsdp.AggCol{
			{Fn: fsdp.AggCount, Star: true},
			{Fn: fsdp.AggSum, Col: 3},
			{Fn: fsdp.AggMin, Col: 0},
			{Fn: fsdp.AggMax, Col: 0},
		},
	}

	// Ground truth from a plain scan of the same subset.
	type truth struct {
		count    int64
		sum      float64
		min, max int64
	}
	want := map[string]*truth{}
	for _, no := range drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Pred: pred}) {
		row, err := r.fs.Read(nil, def, ik(no), false)
		if err != nil {
			t.Fatal(err)
		}
		tr, ok := want[row[2].S]
		if !ok {
			tr = &truth{min: no, max: no}
			want[row[2].S] = tr
		}
		tr.count++
		tr.sum += row[3].F
		if no < tr.min {
			tr.min = no
		}
		if no > tr.max {
			tr.max = no
		}
	}
	if len(want) != 3 {
		t.Fatalf("ground truth has %d groups", len(want))
	}

	r.c.Net.ResetStats()
	groups, st, err := r.fs.Agg(nil, def, keys.All(), pred, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d", len(groups), len(want))
	}
	for _, g := range groups {
		tr := want[g.KeyVals[0].S]
		if tr == nil {
			t.Fatalf("unexpected group %v", g.KeyVals)
		}
		if g.Partials[0].Count != tr.count {
			t.Errorf("%s: count %d want %d", g.KeyVals[0].S, g.Partials[0].Count, tr.count)
		}
		if g.Partials[1].SumF != tr.sum {
			t.Errorf("%s: sum %v want %v", g.KeyVals[0].S, g.Partials[1].SumF, tr.sum)
		}
		if g.Partials[2].Val.I != tr.min || g.Partials[3].Val.I != tr.max {
			t.Errorf("%s: min/max %v/%v want %d/%d",
				g.KeyVals[0].S, g.Partials[2].Val, g.Partials[3].Val, tr.min, tr.max)
		}
	}

	// Economics and accounting: the conversation must have re-driven
	// (16-row budget over 100 rows per partition), every message must
	// appear in the network counters, and rows must not have crossed
	// the interface (far fewer messages than rows examined).
	net := r.c.Net.Stats()
	if st.Messages != net.Requests {
		t.Errorf("ScanStats says %d messages, network counted %d", st.Messages, net.Requests)
	}
	if st.Redrives == 0 {
		t.Error("expected continuation re-drives with a 16-row budget")
	}
	if st.Examined != 300 {
		t.Errorf("examined %d, want 300", st.Examined)
	}
	if st.Messages >= st.Examined/4 {
		t.Errorf("aggregation pushed down should cost few messages: %d for %d rows", st.Messages, st.Examined)
	}
	if n := openSCBs(r); n != 0 {
		t.Errorf("%d SCBs leaked", n)
	}
}

// TestAggEmptySubset checks that partitions with no qualifying
// rows contribute nothing (merge identity) and leak no state.
func TestAggEmptySubset(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadSpread(t, r, def, 30)

	spec := &fsdp.AggSpec{Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggMin, Col: 0}}}
	pred := expr.Bin(expr.OpLT, expr.F(0, "EMPNO"), expr.CInt(-1))
	groups, _, err := r.fs.Agg(nil, def, keys.All(), pred, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("no-GROUP-BY empty subset returned %d groups; the requester synthesizes COUNT=0", len(groups))
	}
	if n := openSCBs(r); n != 0 {
		t.Errorf("%d SCBs leaked", n)
	}
}

// TestScanLimitStopsEarly checks the Top-N/LIMIT row budget: each
// partition's Disk Process ends the subset as soon as it has delivered
// ScanLimit qualifying rows — one message per partition, no re-drives,
// no Subset Control Block left behind.
func TestScanLimitStopsEarly(t *testing.T) {
	r := newRig(t, cluster.Options{MaxRowsPerMsg: 16})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadSpread(t, r, def, 300)

	full := drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})

	r.c.Net.ResetStats()
	got := drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), ScanLimit: 5})
	msgs := r.c.Net.Stats().Requests
	if len(got) != 15 { // 5 per partition; the requester trims further
		t.Fatalf("ScanLimit 5 over 3 partitions returned %d rows", len(got))
	}
	for i := 0; i < 5; i++ {
		if got[i] != full[i] {
			t.Fatalf("row %d is %d, want %d (key order broken)", i, got[i], full[i])
		}
	}
	if msgs != 3 {
		t.Errorf("budgeted scan cost %d messages, want 1 per partition", msgs)
	}
	if n := openSCBs(r); n != 0 {
		t.Errorf("%d SCBs leaked", n)
	}

	// Without the budget the same scan re-drives per partition.
	r.c.Net.ResetStats()
	_ = drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
	if unbudgeted := r.c.Net.Stats().Requests; unbudgeted <= msgs {
		t.Errorf("full drain cost %d messages, budgeted %d — budget bought nothing", unbudgeted, msgs)
	}
}

// TestProbePrefixes checks batched point probes: rows come back
// correct and the conversation count is ceil(probes/ProbeBatchSize) per
// partition, not one per probe.
func TestProbePrefixes(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadSpread(t, r, def, 300) // keys 0,10,...,2990

	// 70 existing keys within partition 1 plus a few misses.
	var prefixes [][]byte
	for i := 0; i < 70; i++ {
		prefixes = append(prefixes, ik(int64(10*i)))
	}
	prefixes = append(prefixes, ik(5), ik(7)) // no such rows

	r.c.Net.ResetStats()
	recs, st, err := r.fs.ProbePrefixes(nil, def, prefixes, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := decodeAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 70 {
		t.Fatalf("got %d rows, want 70", len(rows))
	}
	seen := map[int64]bool{}
	for _, row := range rows {
		seen[row[0].I] = true
	}
	for i := 0; i < 70; i++ {
		if !seen[int64(10*i)] {
			t.Fatalf("missing row %d", 10*i)
		}
	}
	// 72 probes, all on $DATA1 (keys < 1000): ceil(72/32) = 3 messages.
	msgs := r.c.Net.Stats().Requests
	if want := uint64((len(prefixes) + fs.ProbeBatchSize - 1) / fs.ProbeBatchSize); msgs != want {
		t.Errorf("%d probes cost %d messages, want %d", len(prefixes), msgs, want)
	}
	if st.Messages != msgs {
		t.Errorf("ScanStats says %d messages, network counted %d", st.Messages, msgs)
	}

	// A predicate evaluated at the Disk Process filters without extra
	// messages.
	pred := expr.Bin(expr.OpEQ, expr.F(2, "DEPT"), expr.CString("ENG"))
	recs, _, err = r.fs.ProbePrefixes(nil, def, prefixes[:30], pred)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err = decodeAll(recs); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row[2].S != "ENG" {
			t.Fatalf("predicate leaked row %v", row)
		}
	}
	if len(rows) != 10 {
		t.Errorf("got %d ENG rows, want 10", len(rows))
	}
}

// TestProbeBlockPartialResend forces the reply budget to fill mid-block
// so the Disk Process serves only part of a probe block; the File
// System must re-send the remainder and still return every row.
func TestProbeBlockPartialResend(t *testing.T) {
	r := newRig(t, cluster.Options{MaxRowsPerMsg: 4})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadSpread(t, r, def, 300)

	var prefixes [][]byte
	for i := 0; i < 20; i++ {
		prefixes = append(prefixes, ik(int64(10*i)))
	}
	r.c.Net.ResetStats()
	rows, _, err := r.fs.ProbePrefixes(nil, def, prefixes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	// 4 probes per message → at least 5 messages, proving the
	// partial-block re-send path ran without losing probes.
	if msgs := r.c.Net.Stats().Requests; msgs < 5 {
		t.Errorf("4-row budget over 20 probes cost %d messages; partial re-send not exercised", msgs)
	}
}

// TestReadByIndexBatch checks the two-stage batched secondary-index
// read: one blocked conversation to the index partitions, one to the
// base partitions, versus two message pairs per value on the row-at-a-
// time path.
func TestReadByIndexBatch(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := indexedDef()
	mustCreate(t, r, def)
	load(t, r, def, 100)

	var values []record.Value
	for i := 0; i < 20; i++ {
		values = append(values, record.String(fmt.Sprintf("emp-%05d", i*5)))
	}
	values = append(values, record.String("nobody")) // miss

	r.c.Net.ResetStats()
	recs, st, err := r.fs.ReadByIndexBatch(nil, def, def.Indexes[0], values)
	if err != nil {
		t.Fatal(err)
	}
	batched := r.c.Net.Stats().Requests
	rows, err := decodeAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		seen[row[1].S] = true
	}
	for i := 0; i < 20; i++ {
		if !seen[fmt.Sprintf("emp-%05d", i*5)] {
			t.Fatalf("missing row for value %d", i*5)
		}
	}
	if st.Messages != batched {
		t.Errorf("ScanStats says %d messages, network counted %d", st.Messages, batched)
	}

	// Row-at-a-time baseline for the same values.
	r.c.Net.ResetStats()
	for _, v := range values {
		if _, err := r.fs.ReadByIndex(nil, def, def.Indexes[0], v); err != nil && err != fs.ErrNotFound {
			t.Fatal(err)
		}
	}
	single := r.c.Net.Stats().Requests
	if batched*8 > single {
		t.Errorf("batched index read cost %d messages vs %d row-at-a-time — want ≥8x reduction", batched, single)
	}
}
