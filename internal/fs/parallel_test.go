package fs_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
)

// loadPartitioned spreads n rows evenly across partitionedDef's three
// key ranges (keys 0..2999).
func loadPartitioned(t testing.TB, r *rig, def *fs.FileDef, n int) {
	t.Helper()
	tx := r.fs.Begin()
	step := int64(3000 / n)
	for i := 0; i < n; i++ {
		no := int64(i) * step
		if err := r.fs.Insert(nil, tx, def, empRow(no, fmt.Sprintf("e%04d", no), "X", float64(no))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// drainSelect runs one scan to exhaustion and returns the EMPNO column.
func drainSelect(t *testing.T, r *rig, def *fs.FileDef, spec fs.SelectSpec) []int64 {
	t.Helper()
	rows := r.fs.Select(nil, def, spec)
	defer rows.Close()
	var out []int64
	for {
		row, _, ok := rows.Next()
		if !ok {
			break
		}
		out = append(out, row[0].I)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitGoroutines waits for the goroutine count to fall back to the
// baseline (scanner goroutines exiting is asynchronous with Close).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestParallelScanMatchesSequential(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadPartitioned(t, r, def, 300)

	pred := expr.Bin(expr.OpLT, expr.F(3, "SALARY"), expr.CInt(2500))
	spec := fs.SelectSpec{
		Mode: fs.ModeVSBB, Range: keys.All(),
		Pred: pred, Proj: []int{0, 1},
		RowLimit: 16, // force several re-drives per partition
	}
	want := drainSelect(t, r, def, spec)
	if len(want) != 250 {
		t.Fatalf("baseline returned %d rows", len(want))
	}

	for _, dop := range []int{1, 2, 3, 8} {
		spec.Parallel, spec.Unordered = dop, false
		got := drainSelect(t, r, def, spec)
		if len(got) != len(want) {
			t.Fatalf("DOP %d ordered: %d rows, want %d", dop, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("DOP %d ordered: row %d is %d, want %d (order broken)", dop, i, got[i], want[i])
			}
		}

		spec.Unordered = true
		got = drainSelect(t, r, def, spec)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(want) {
			t.Fatalf("DOP %d unordered: %d rows, want %d", dop, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("DOP %d unordered: missing/extra row near %d", dop, want[i])
			}
		}
	}
}

func TestParallelScanDefaultDOP(t *testing.T) {
	// The cluster-level knob: Options.ScanParallel becomes the FS default,
	// so plain Selects (and SQL above them) parallelize with no spec change.
	c, err := cluster.New(cluster.Options{ScanParallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, name := range []string{"$DATA1", "$DATA2", "$DATA3"} {
		if _, err := c.AddVolume(0, i%2, name); err != nil {
			t.Fatal(err)
		}
	}
	r := &rig{c: c, fs: c.NewFS(0, 0)}
	if got := r.fs.ScanParallel(); got != 3 {
		t.Fatalf("FS default DOP %d, want 3", got)
	}
	def := partitionedDef()
	mustCreate(t, r, def)
	loadPartitioned(t, r, def, 90)
	got := drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
	if len(got) != 90 {
		t.Fatalf("%d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("default parallel scan broke global key order")
		}
	}
}

func TestParallelScanStats(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadPartitioned(t, r, def, 300)

	r.c.Net.ResetStats()
	rows := r.fs.Select(nil, def, fs.SelectSpec{
		Mode: fs.ModeVSBB, Range: keys.All(), RowLimit: 16, Parallel: 3,
	})
	n := 0
	for {
		_, _, ok := rows.Next()
		if !ok {
			break
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	if st.Partitions != 3 {
		t.Errorf("stats saw %d partitions", st.Partitions)
	}
	if st.Rows != uint64(n) || n != 300 {
		t.Errorf("stats rows %d, drained %d", st.Rows, n)
	}
	if net := r.c.Net.Stats(); st.Messages != net.Requests {
		t.Errorf("scan counted %d messages, network %d", st.Messages, net.Requests)
	}
	m := msg.DefaultCostModel()
	seq, par := st.Modeled(m, 1), st.Modeled(m, 3)
	if par >= seq {
		t.Errorf("modeled: DOP 3 (%v) not below DOP 1 (%v)", par, seq)
	}
	if st.Wall <= 0 || st.Busy <= 0 || st.Overlap() <= 0 {
		t.Errorf("empty wall accounting: %+v", st)
	}
}

func TestParallelScanEarlyCloseNoLeak(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadPartitioned(t, r, def, 600)

	base := runtime.NumGoroutine()
	for _, unordered := range []bool{false, true} {
		rows := r.fs.Select(nil, def, fs.SelectSpec{
			Mode: fs.ModeVSBB, Range: keys.All(),
			RowLimit: 8, Parallel: 3, Unordered: unordered,
		})
		// Take a few rows, then walk away mid-conversation.
		for i := 0; i < 5; i++ {
			if _, _, ok := rows.Next(); !ok {
				t.Fatalf("unordered=%v: scan died early: %v", unordered, rows.Err())
			}
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatalf("unordered=%v: close surfaced %v", unordered, err)
		}
		waitGoroutines(t, base)
	}
	// The abandoned conversations retired their SCBs: a follow-up scan
	// must still see every row.
	got := drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Parallel: 3})
	if len(got) != 600 {
		t.Fatalf("after early closes: %d rows", len(got))
	}
}

func TestParallelScanErrorCancelsSiblings(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadPartitioned(t, r, def, 300)

	if err := r.c.CrashDP("$DATA2"); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	rows := r.fs.Select(nil, def, fs.SelectSpec{
		Mode: fs.ModeVSBB, Range: keys.All(), RowLimit: 8, Parallel: 3,
	})
	for {
		if _, _, ok := rows.Next(); !ok {
			break
		}
	}
	if err := rows.Err(); err == nil {
		t.Fatal("scan over a crashed partition reported no error")
	}
	rows.Close()
	waitGoroutines(t, base)

	// Recovery: takeover on another CPU, and scans work again.
	if err := r.c.RestartDP("$DATA2", 1); err != nil {
		t.Fatal(err)
	}
	got := drainSelect(t, r, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Parallel: 3})
	if len(got) != 300 {
		t.Fatalf("post-recovery scan: %d rows", len(got))
	}
}

func TestSelectSpecValidation(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 5)

	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(0))
	for _, spec := range []fs.SelectSpec{
		{Mode: fs.ModeRSBB, Range: keys.All(), Pred: pred},
		{Mode: fs.ModeRecord, Range: keys.All(), Proj: []int{1}},
	} {
		rows := r.fs.Select(nil, def, spec)
		if _, _, ok := rows.Next(); ok {
			t.Fatalf("mode %v with Pred/Proj returned rows", spec.Mode)
		}
		if err := rows.Err(); err == nil {
			t.Errorf("mode %v with Pred/Proj: no error", spec.Mode)
		}
	}
}

func TestCountPushdownConstantSizeReplies(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 300)
	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(100000))

	// Old shape: count by shipping one projected column per row.
	r.c.Net.ResetStats()
	rows, err := r.fs.SelectAll(nil, def, fs.SelectSpec{
		Mode: fs.ModeVSBB, Range: keys.All(), Pred: pred, Proj: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	drainBytes := r.c.Net.Stats().Bytes()

	// COUNT^FIRST/NEXT: the count happens at the Disk Process and each
	// reply is constant size.
	r.c.Net.ResetStats()
	n, _, err := r.fs.Count(nil, def, keys.All(), pred)
	if err != nil {
		t.Fatal(err)
	}
	countBytes := r.c.Net.Stats().Bytes()

	if n != len(rows) {
		t.Fatalf("count %d, drain found %d", n, len(rows))
	}
	if countBytes*2 > drainBytes {
		t.Errorf("COUNT moved %d bytes, row drain %d — want a clear drop", countBytes, drainBytes)
	}
}

func TestSubsetFanoutAcrossPartitions(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	loadPartitioned(t, r, def, 300)
	r.fs.SetScanParallel(3)

	tx := r.fs.Begin()
	pred := expr.Bin(expr.OpGE, expr.F(3, "SALARY"), expr.CInt(0))
	n, _, err := r.fs.UpdateSubset(tx, def, keys.All(), pred, []expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CInt(7))},
	})
	if err != nil || n != 300 {
		t.Fatalf("updated %d, %v", n, err)
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	row, err := r.fs.Read(nil, def, ik(1500), false)
	if err != nil || row[3].F != 1507 {
		t.Fatalf("fanned-out update lost: %v %v", row, err)
	}

	tx2 := r.fs.Begin()
	del := expr.Bin(expr.OpLT, expr.F(3, "SALARY"), expr.CInt(1000))
	n, _, err = r.fs.DeleteSubset(tx2, def, keys.All(), del)
	if err != nil || n != 100 {
		t.Fatalf("deleted %d, %v", n, err)
	}
	if err := r.fs.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	rest, err := r.fs.SelectAll(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
	if err != nil || len(rest) != 200 {
		t.Fatalf("%d rows remain, %v", len(rest), err)
	}
}

// TestOrderedScanReportsItsFailedSpan: when an ordered parallel scan's
// conversation fails, the consumer that sees its span end sees the
// failure too. The scan worker is held between the failure and the moment
// it records the failure on its operation (fault.FSConvFailed); a span
// whose batch channel closed before the failure was recorded read as a
// complete scan, truncated, with no error.
func TestOrderedScanReportsItsFailedSpan(t *testing.T) {
	defer fault.Reset()
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 50)

	// 1 / (EMPNO - 30) > 0 fails with division by zero at record 30.
	pred := expr.Bin(expr.OpGT,
		expr.Bin(expr.OpDiv, expr.CInt(1), expr.Bin(expr.OpSub, expr.F(0, "EMPNO"), expr.CInt(30))),
		expr.CInt(0))
	release := make(chan struct{})
	fault.Enable()
	fault.Arm(fault.FSConvFailed, 0, func() { <-release })
	rows := r.fs.Select(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Pred: pred, Parallel: 1})
	n := 0
	for {
		if _, _, ok := rows.Next(); !ok {
			break
		}
		n++
	}
	err := rows.Err()
	close(release)
	rows.Close()
	if !fault.Fired(fault.FSConvFailed) {
		t.Fatal("the conversation did not fail")
	}
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("ordered parallel scan ended after %d rows with error %v, want division by zero", n, err)
	}
}
