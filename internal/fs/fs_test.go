package fs_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// rig is a one-node cluster with two data volumes and an FS.
type rig struct {
	c  *cluster.Cluster
	fs *fs.FS
}

func newRig(t testing.TB, opts cluster.Options) *rig {
	t.Helper()
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i, name := range []string{"$DATA1", "$DATA2", "$DATA3"} {
		if _, err := c.AddVolume(0, i%2, name); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{c: c, fs: c.NewFS(0, 0)}
}

func empSchema() *record.Schema {
	return record.MustSchema("EMP", []record.Field{
		{Name: "EMPNO", Type: record.TypeInt, NotNull: true},
		{Name: "NAME", Type: record.TypeString},
		{Name: "DEPT", Type: record.TypeString},
		{Name: "SALARY", Type: record.TypeFloat},
	}, []int{0})
}

func empRow(no int64, name, dept string, sal float64) record.Row {
	return record.Row{record.Int(no), record.String(name), record.String(dept), record.Float(sal)}
}

func ik(v int64) []byte { return keys.AppendInt64(nil, v) }

// singleDef is EMP on one volume, no indexes.
func singleDef() *fs.FileDef {
	return &fs.FileDef{
		Name: "EMP", Schema: empSchema(), FieldAudit: true,
		Partitions: []fs.Partition{{Server: "$DATA1"}},
	}
}

// partitionedDef splits EMP at EMPNO 1000 and 2000 across three volumes.
func partitionedDef() *fs.FileDef {
	return &fs.FileDef{
		Name: "EMP", Schema: empSchema(), FieldAudit: true,
		Partitions: []fs.Partition{
			{Server: "$DATA1"},
			{Server: "$DATA2", LowKey: ik(1000)},
			{Server: "$DATA3", LowKey: ik(2000)},
		},
	}
}

// indexedDef adds a secondary index on NAME, on its own volume.
func indexedDef() *fs.FileDef {
	return &fs.FileDef{
		Name: "EMP", Schema: empSchema(), FieldAudit: true,
		Partitions: []fs.Partition{{Server: "$DATA1"}},
		Indexes: []*fs.IndexDef{
			{Name: "EMP.NAME", Column: 1, Partitions: []fs.Partition{{Server: "$DATA2"}}},
		},
	}
}

// readByIndex is ReadByIndex with the records decoded.
func readByIndex(r *rig, tx *tmf.Tx, def *fs.FileDef, idx *fs.IndexDef, v record.Value) ([]record.Row, error) {
	recs, err := r.fs.ReadByIndex(tx, def, idx, v)
	if err != nil {
		return nil, err
	}
	return decodeAll(recs)
}

// decodeAll decodes records as the File System returned them.
func decodeAll(recs [][]byte) ([]record.Row, error) {
	rows := make([]record.Row, len(recs))
	for i, rec := range recs {
		row, err := record.Decode(rec)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

func mustCreate(t testing.TB, r *rig, def *fs.FileDef) {
	t.Helper()
	if err := r.fs.Create(def); err != nil {
		t.Fatal(err)
	}
}

func load(t testing.TB, r *rig, def *fs.FileDef, n int) {
	t.Helper()
	tx := r.fs.Begin()
	for i := 0; i < n; i++ {
		row := empRow(int64(i), fmt.Sprintf("emp-%05d", i), []string{"SALES", "ENG", "HR"}[i%3], float64(1000*i))
		if err := r.fs.Insert(nil, tx, def, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func TestInsertReadSinglePartition(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 10)
	row, err := r.fs.Read(nil, def, ik(3), false)
	if err != nil {
		t.Fatal(err)
	}
	if row[1].S != "emp-00003" {
		t.Errorf("got %v", row[1].S)
	}
	if _, err := r.fs.Read(nil, def, ik(99), false); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf("missing read: %v", err)
	}
}

func TestPartitionRouting(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	for _, no := range []int64{5, 1500, 2500} {
		if err := r.fs.Insert(nil, tx, def, empRow(no, fmt.Sprintf("e%d", no), "X", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Each record landed on its own DP.
	for name, want := range map[string]int{"$DATA1": 1, "$DATA2": 1, "$DATA3": 1} {
		if n, _ := r.c.DP(name).CountFile("EMP"); n != want {
			t.Errorf("%s has %d records, want %d", name, n, want)
		}
	}
	// Reads route correctly.
	for _, no := range []int64{5, 1500, 2500} {
		row, err := r.fs.Read(nil, def, ik(no), false)
		if err != nil || row[0].I != no {
			t.Errorf("read %d: %v %v", no, row, err)
		}
	}
}

func TestScanAcrossPartitions(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	for i := int64(0); i < 3000; i += 100 {
		if err := r.fs.Insert(nil, tx, def, empRow(i, fmt.Sprintf("e%d", i), "X", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	rows, err := r.fs.SelectAll(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("scan found %d rows", len(rows))
	}
	// In global key order across partitions.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I >= rows[i][0].I {
			t.Fatal("cross-partition order broken")
		}
	}
	// Bounded range touches only the partitions it needs.
	r.c.Net.ResetStats()
	r.c.DP("$DATA3").ResetStats()
	rows, err = r.fs.SelectAll(nil, def, fs.SelectSpec{
		Mode: fs.ModeVSBB, Range: keys.Range{Low: ik(1000), High: ik(1900), HighIncl: true},
	})
	if err != nil || len(rows) != 10 {
		t.Fatalf("ranged scan: %d rows, %v", len(rows), err)
	}
	if got := r.c.DP("$DATA3").Stats().Requests; got != 0 {
		t.Errorf("out-of-range partition received %d requests", got)
	}
}

func TestVSBBvsRecordAtATimeMessages(t *testing.T) {
	// The heart of E1/E2 at the fs level.
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 300)

	count := func(mode fs.ScanMode, pred expr.Expr, proj []int) uint64 {
		r.c.Net.ResetStats()
		rows := r.fs.Select(nil, def, fs.SelectSpec{Mode: mode, Range: keys.All(), Pred: pred, Proj: proj})
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
		return r.c.Net.Stats().Requests
	}

	recMsgs := count(fs.ModeRecord, nil, nil)
	rsbbMsgs := count(fs.ModeRSBB, nil, nil)
	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(250000)) // ~17% selective
	vsbbMsgs := count(fs.ModeVSBB, pred, []int{1})

	if recMsgs != 300 {
		t.Errorf("record-at-a-time used %d messages, want 300", recMsgs)
	}
	if rsbbMsgs*3 > recMsgs {
		t.Errorf("RSBB %d messages not ≪ record-at-a-time %d", rsbbMsgs, recMsgs)
	}
	if vsbbMsgs*2 > rsbbMsgs {
		t.Errorf("VSBB %d messages not ≪ RSBB %d", vsbbMsgs, rsbbMsgs)
	}
}

func TestUpdateFieldsPushdownOneMessage(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 10)
	tx := r.fs.Begin()
	r.c.Net.ResetStats()
	// SET SALARY = SALARY * 1.07 on one record: exactly ONE message.
	err := r.fs.UpdateFields(tx, def, ik(4), []expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpMul, expr.F(3, "SALARY"), expr.CFloat(1.07))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.c.Net.Stats().Requests; got != 1 {
		t.Errorf("pushdown update used %d messages, want 1", got)
	}
	// The one message is UPDATE^KEY, not a subset conversation; a key
	// that is not there is ErrNotFound, in one message too.
	if st := r.c.DP("$DATA1").Stats(); st.SetRequests != 0 || st.RowsUpdated != 1 {
		t.Errorf("the keyed update cost %d set requests and updated %d records", st.SetRequests, st.RowsUpdated)
	}
	err = r.fs.UpdateFields(tx, def, ik(99), []expr.Assignment{{Field: 3, E: expr.CFloat(0)}})
	if !errors.Is(err, fs.ErrNotFound) || r.c.Net.Stats().Requests != 2 {
		t.Errorf("UpdateFields of a missing key: %v after %d messages", err, r.c.Net.Stats().Requests)
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	row, _ := r.fs.Read(nil, def, ik(4), false)
	if row[3].F != 4000*1.07 {
		t.Errorf("salary %v", row[3].F)
	}
}

func TestUpdateSubsetPushdown(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	for i := int64(0); i < 3000; i += 10 {
		r.fs.Insert(nil, tx, def, empRow(i, "e", "X", float64(i)))
	}
	r.fs.Commit(tx)

	tx2 := r.fs.Begin()
	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(0))
	n, _, err := r.fs.UpdateSubset(tx2, def, keys.All(), pred, []expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpMul, expr.F(3, "SALARY"), expr.CFloat(2))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 299 { // salary 0 excluded
		t.Errorf("updated %d", n)
	}
	if err := r.fs.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	row, _ := r.fs.Read(nil, def, ik(100), false)
	if row[3].F != 200 {
		t.Errorf("salary %v", row[3].F)
	}
}

func TestDeleteSubsetPushdown(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 100)
	tx := r.fs.Begin()
	pred := expr.Bin(expr.OpLT, expr.F(0, "EMPNO"), expr.CInt(40))
	n, _, err := r.fs.DeleteSubset(tx, def, keys.All(), pred)
	if err != nil || n != 40 {
		t.Fatalf("deleted %d, %v", n, err)
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if c, _ := r.c.DP("$DATA1").CountFile("EMP"); c != 60 {
		t.Errorf("count %d", c)
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := indexedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	if err := r.fs.Insert(nil, tx, def, empRow(1, "smith", "ENG", 100)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Insert(nil, tx, def, empRow(2, "jones", "ENG", 200)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Index file exists on $DATA2 with two entries.
	if n, _ := r.c.DP("$DATA2").CountFile("EMP.NAME"); n != 2 {
		t.Fatalf("index entries %d", n)
	}
	// Read via the index: Figure 2's two-step flow.
	rows, err := readByIndex(r, nil, def, def.Indexes[0], record.String("smith"))
	if err != nil || len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("index read: %v %v", rows, err)
	}
	// Update the indexed column: old entry out, new entry in.
	tx2 := r.fs.Begin()
	if err := r.fs.Update(tx2, def, ik(1), empRow(1, "smythe", "ENG", 100)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	if rows, _ := r.fs.ReadByIndex(nil, def, def.Indexes[0], record.String("smith")); len(rows) != 0 {
		t.Error("stale index entry")
	}
	if rows, _ := r.fs.ReadByIndex(nil, def, def.Indexes[0], record.String("smythe")); len(rows) != 1 {
		t.Error("new index entry missing")
	}
	// Delete maintains the index too.
	tx3 := r.fs.Begin()
	if err := r.fs.Delete(tx3, def, ik(2)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Commit(tx3); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.c.DP("$DATA2").CountFile("EMP.NAME"); n != 1 {
		t.Errorf("index entries after delete: %d", n)
	}
}

func TestIndexedUpdateFlowMessages(t *testing.T) {
	// Figure 2: update via alternate key = 1 index read + 1 base update
	// (+ index maintenance only if the indexed field changes).
	r := newRig(t, cluster.Options{})
	def := indexedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	r.fs.Insert(nil, tx, def, empRow(1, "smith", "ENG", 100))
	r.fs.Commit(tx)

	tx2 := r.fs.Begin()
	r.c.Net.ResetStats()
	rows, err := readByIndex(r, tx2, def, def.Indexes[0], record.String("smith"))
	if err != nil || len(rows) != 1 {
		t.Fatal(err)
	}
	// Update a non-indexed field via expression pushdown.
	key := def.Schema.Key(rows[0])
	err = r.fs.UpdateFields(tx2, def, key, []expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpSub, expr.F(3, "SALARY"), expr.CInt(10))},
	})
	if err != nil {
		t.Fatal(err)
	}
	msgs := r.c.Net.Stats().Requests
	// 1 index scan + 1 base read + 1 pushdown update = 3 messages.
	if msgs != 3 {
		t.Errorf("indexed update flow used %d messages, want 3", msgs)
	}
	r.fs.Commit(tx2)
}

func TestUpdateSubsetFallbackWhenIndexed(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := indexedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	for i := int64(0); i < 20; i++ {
		r.fs.Insert(nil, tx, def, empRow(i, fmt.Sprintf("name%02d", i), "X", float64(i)))
	}
	r.fs.Commit(tx)

	// Assigning the INDEXED column forces the requester-side path with
	// index maintenance.
	tx2 := r.fs.Begin()
	n, _, err := r.fs.UpdateSubset(tx2, def, keys.All(), nil, []expr.Assignment{
		{Field: 1, E: expr.Bin(expr.OpAdd, expr.F(1, "NAME"), expr.CString("-x"))},
	})
	if err != nil || n != 20 {
		t.Fatalf("updated %d, %v", n, err)
	}
	if err := r.fs.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	rows, err := r.fs.ReadByIndex(nil, def, def.Indexes[0], record.String("name05-x"))
	if err != nil || len(rows) != 1 {
		t.Fatalf("index not maintained by fallback: %v %v", rows, err)
	}
}

func TestAbortAcrossPartitions(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	r.fs.Insert(nil, tx, def, empRow(5, "a", "X", 1))
	r.fs.Insert(nil, tx, def, empRow(1500, "b", "X", 1))
	if err := r.fs.Abort(tx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"$DATA1", "$DATA2"} {
		if n, _ := r.c.DP(name).CountFile("EMP"); n != 0 {
			t.Errorf("%s has %d records after abort", name, n)
		}
	}
}

func TestTwoPhaseCommitAcrossPartitions(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := partitionedDef()
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	r.fs.Insert(nil, tx, def, empRow(5, "a", "X", 1))
	r.fs.Insert(nil, tx, def, empRow(1500, "b", "X", 1))
	if len(tx.Participants()) != 2 {
		t.Fatalf("participants %v", tx.Participants())
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"$DATA1", "$DATA2"} {
		if n, _ := r.c.DP(name).CountFile("EMP"); n != 1 {
			t.Errorf("%s has %d records after 2PC", name, n)
		}
	}
}

func TestBlockedInserterMessageSavings(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	const n = 160
	tx := r.fs.Begin()
	r.c.Net.ResetStats()
	bi, err := r.fs.NewBlockedInserter(tx, def, keys.All(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := bi.Add(empRow(int64(i), "bulk", "X", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bi.Flush(); err != nil {
		t.Fatal(err)
	}
	msgs := r.c.Net.Stats().Requests
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// 1 range lock + 10 INSERT^BLOCKs = 11, vs 160 single inserts.
	if msgs > n/8 {
		t.Errorf("blocked insert used %d messages for %d rows", msgs, n)
	}
	if c, _ := r.c.DP("$DATA1").CountFile("EMP"); c != n {
		t.Errorf("count %d", c)
	}
}

func TestCursorBufferedUpdates(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 100)
	tx := r.fs.Begin()
	cur, err := r.fs.OpenCursor(tx, def, keys.All(), nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	r.c.Net.ResetStats()
	n := 0
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		if n%2 == 0 {
			upd := row.Clone()
			upd[2] = record.String("MOVED")
			if err := cur.UpdateCurrent(upd); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := cur.DeleteCurrent(); err != nil {
				t.Fatal(err)
			}
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	msgs := r.c.Net.Stats().Requests
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// Unbuffered would cost ≥100 mutation messages; buffered at 20 costs
	// ~5 scan + ~3 update-blocks + ~3 delete-blocks.
	if msgs > 30 {
		t.Errorf("buffered cursor used %d messages", msgs)
	}
	if c, _ := r.c.DP("$DATA1").CountFile("EMP"); c != 50 {
		t.Errorf("count %d", c)
	}
	row, err := r.fs.Read(nil, def, ik(0), false)
	if err != nil || row[2].S != "MOVED" {
		t.Errorf("buffered update lost: %v %v", row, err)
	}
}

func TestCursorUnbuffered(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 10)
	tx := r.fs.Begin()
	cur, err := r.fs.OpenCursor(tx, def, keys.All(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		upd := row.Clone()
		upd[3] = record.Float(row[3].F + 1)
		if err := cur.UpdateCurrent(upd); err != nil {
			t.Fatal(err)
		}
	}
	cur.Close()
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	row, _ := r.fs.Read(nil, def, ik(5), false)
	if row[3].F != 5001 {
		t.Errorf("salary %v", row[3].F)
	}
}

func TestConstraintSurfacesToClient(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	def.Check = expr.Bin(expr.OpGE, expr.F(3, "SALARY"), expr.CInt(0))
	mustCreate(t, r, def)
	tx := r.fs.Begin()
	err := r.fs.Insert(nil, tx, def, empRow(1, "x", "X", -1))
	if !errors.Is(err, fs.ErrConstraint) {
		t.Errorf("got %v", err)
	}
	r.fs.Abort(tx)
}

func TestCrashRecoveryThroughCluster(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 50)

	// In-flight transaction at crash time.
	tx := r.fs.Begin()
	if err := r.fs.Insert(nil, tx, def, empRow(999, "phantom", "X", 1)); err != nil {
		t.Fatal(err)
	}

	if err := r.c.CrashDP("$DATA1"); err != nil {
		t.Fatal(err)
	}
	// Server unreachable while down.
	if _, err := r.fs.Read(nil, def, ik(1), false); err == nil {
		t.Fatal("read served by crashed DP")
	}
	// Takeover on another CPU.
	if err := r.c.RestartDP("$DATA1", 3); err != nil {
		t.Fatal(err)
	}
	// Committed data back, in-flight insert gone.
	row, err := r.fs.Read(nil, def, ik(1), false)
	if err != nil || row[1].S != "emp-00001" {
		t.Fatalf("committed data lost: %v %v", row, err)
	}
	if _, err := r.fs.Read(nil, def, ik(999), false); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf("phantom visible after recovery: %v", err)
	}
	if n, _ := r.c.DP("$DATA1").CountFile("EMP"); n != 50 {
		t.Errorf("count %d", n)
	}
}

func TestRemoteAccessCostsNetworkHops(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(1, 0, "$REMOTE"); err != nil {
		t.Fatal(err)
	}
	f := c.NewFS(0, 0)
	def := &fs.FileDef{Name: "EMP", Schema: empSchema(), FieldAudit: true,
		Partitions: []fs.Partition{{Server: "$REMOTE"}}}
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	c.Net.ResetStats()
	tx := f.Begin()
	f.Insert(nil, tx, def, empRow(1, "far", "X", 1))
	f.Commit(tx)
	s := c.Net.Stats()
	if s.Network == 0 {
		t.Errorf("no inter-node messages recorded: %+v", s)
	}
}

func TestSelectAllAndCount(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 30)
	rows, err := r.fs.SelectAll(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
	if err != nil || len(rows) != 30 {
		t.Fatalf("%d rows, %v", len(rows), err)
	}
	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(20000))
	n, _, err := r.fs.Count(nil, def, keys.All(), pred)
	if err != nil || n != 9 {
		t.Fatalf("count %d, %v", n, err)
	}
}

func TestCreateValidation(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := singleDef()
	def.Partitions = nil
	if err := r.fs.Create(def); err == nil {
		t.Error("create without partitions accepted")
	}
	def2 := indexedDef()
	def2.Indexes[0].Partitions = nil
	if err := r.fs.Create(def2); err == nil {
		t.Error("index without partitions accepted")
	}
}

func TestIndexSchemaExposed(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := indexedDef()
	mustCreate(t, r, def)
	is := def.IndexSchema(def.Indexes[0])
	if is == nil || is.Name != "EMP.NAME" || len(is.KeyFields) != 2 {
		t.Fatalf("index schema %+v", is)
	}
}

func TestCreateIndexBackfill(t *testing.T) {
	// CREATE INDEX on a populated table backfills existing rows.
	r := newRig(t, cluster.Options{})
	def := singleDef()
	mustCreate(t, r, def)
	load(t, r, def, 25)
	tx := r.fs.Begin()
	idx := &fs.IndexDef{Name: "EMP.LATE", Column: 1, Partitions: []fs.Partition{{Server: "$DATA2"}}}
	if err := r.fs.CreateIndex(tx, def, idx); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if n, _ := r.c.DP("$DATA2").CountFile("EMP.LATE"); n != 25 {
		t.Fatalf("backfill created %d entries", n)
	}
	rows, err := readByIndex(r, nil, def, idx, record.String("emp-00007"))
	if err != nil || len(rows) != 1 || rows[0][0].I != 7 {
		t.Fatalf("late index probe: %v %v", rows, err)
	}
}

func TestDropRemovesFragments(t *testing.T) {
	r := newRig(t, cluster.Options{})
	def := indexedDef()
	mustCreate(t, r, def)
	if err := r.fs.Drop(def); err != nil {
		t.Fatal(err)
	}
	// Fragments gone at both DPs.
	if _, err := r.c.DP("$DATA1").CountFile("EMP"); err == nil {
		t.Error("base fragment survived drop")
	}
	if _, err := r.c.DP("$DATA2").CountFile("EMP.NAME"); err == nil {
		t.Error("index fragment survived drop")
	}
}

// TestReadRefusesARowlessOK: READ indexed the reply's rows without
// counting them, so an OK reply carrying none — a relay, a confused backup
// under SetFollowerReads, hostile bytes on the wire transport — panicked
// the session's goroutine. It is a protocol error now. The stub servers
// also say where a READ goes: under a transaction or with follower reads
// off, to the partition's primary; a browse READ with them on, to its
// backup.
func TestReadRefusesARowlessOK(t *testing.T) {
	net := msg.NewNetwork()
	row := record.Encode(empRow(7, "alice", "eng", 1))
	for name, reply := range map[string]*fsdp.Reply{
		"$X":                     {},                                              // OK, and nothing
		"$X" + fsdp.BackupSuffix: {Rows: [][]byte{row}, RowKeys: [][]byte{ik(7)}}, // a well-formed READ reply
	} {
		raw := fsdp.EncodeReply(reply)
		if _, err := net.StartServer(name, msg.ProcessorID{CPU: 1}, 1, func([]byte) []byte { return raw }); err != nil {
			t.Fatal(err)
		}
		defer net.StopServer(name)
	}
	f := fs.New(net.NewClient(msg.ProcessorID{}), nil)
	def := &fs.FileDef{Name: "EMP", Schema: empSchema(), Partitions: []fs.Partition{{Server: "$X"}}}

	if got, err := f.Read(nil, def, ik(7), false); !errors.Is(err, fs.ErrProtocol) {
		t.Fatalf("READ answered OK without a record: row %v, err %v; want fs.ErrProtocol", got, err)
	}
	f.SetFollowerReads(true)
	if got, err := f.Read(nil, def, ik(7), false); err != nil || got[1].S != "alice" {
		t.Fatalf("browse READ with follower reads on: row %v, err %v; want the backup's record", got, err)
	}
	if got, err := f.Read(f.Begin(), def, ik(7), false); !errors.Is(err, fs.ErrProtocol) {
		t.Fatalf("READ under a transaction with follower reads on: row %v, err %v; want the primary's (rowless) reply", got, err)
	}
}

// TestRedriveWakesOnRegistration: a READ sent to a name that has no
// server — a takeover in progress — is re-driven when the name is
// registered, not on the next tick of a poll (it slept 2 ms between
// tries). Ten times over, the time from StartServer to the READ's answer
// has a median far under a millisecond. And the re-drive window is still
// the bound: with no server ever registered, the READ fails with
// msg.ErrNoServer once the window has passed, whatever else registers
// meanwhile.
func TestRedriveWakesOnRegistration(t *testing.T) {
	net := msg.NewNetwork()
	raw := fsdp.EncodeReply(&fsdp.Reply{Rows: [][]byte{record.Encode(empRow(7, "alice", "eng", 1))}, RowKeys: [][]byte{ik(7)}})
	f := fs.New(net.NewClient(msg.ProcessorID{}), nil)
	f.SetRedriveWindow(10 * time.Second)
	var lags []time.Duration
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("$LATE%d", i)
		def := &fs.FileDef{Name: "EMP", Schema: empSchema(), Partitions: []fs.Partition{{Server: name}}}
		done := make(chan time.Time, 1)
		go func() {
			if row, err := f.Read(nil, def, ik(7), false); err != nil || row[1].S != "alice" {
				t.Errorf("re-driven READ: %v, %v", row, err)
			}
			done <- time.Now()
		}()
		time.Sleep(5 * time.Millisecond) // the first send has failed: the READ is re-driving
		registered := time.Now()
		if _, err := net.StartServer(name, msg.ProcessorID{CPU: 1}, 1, func([]byte) []byte { return raw }); err != nil {
			t.Fatal(err)
		}
		lags = append(lags, (<-done).Sub(registered))
	}
	slices.Sort(lags)
	if median := lags[len(lags)/2]; median > 500*time.Microsecond {
		t.Errorf("a re-driven READ answered a median %v after its server registered (lags %v): it is polling", median, lags)
	}

	f.SetRedriveWindow(30 * time.Millisecond)
	def := &fs.FileDef{Name: "EMP", Schema: empSchema(), Partitions: []fs.Partition{{Server: "$NEVER"}}}
	stop := make(chan struct{})
	go func() { // other names come and go: each wakes the re-drive, none answers it
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				name := fmt.Sprintf("$OTHER%d", i)
				net.StartServer(name, msg.ProcessorID{CPU: 1}, 1, func([]byte) []byte { return raw })
				net.StopServer(name)
			}
		}
	}()
	start := time.Now()
	_, err := f.Read(nil, def, ik(7), false)
	close(stop)
	if elapsed := time.Since(start); !errors.Is(err, msg.ErrNoServer) || elapsed < 30*time.Millisecond {
		t.Errorf("READ to a name nobody registers: %v after %v; want msg.ErrNoServer once the 30ms window passed", err, elapsed)
	}
}
