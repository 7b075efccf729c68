package dp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// testDP builds a DP with its own audit trail.
func testDP(t testing.TB, mutate func(*Config)) (*DP, *wal.Trail, *disk.Volume) {
	t.Helper()
	vol := disk.NewVolume("$DATA1", true)
	auditVol := disk.NewVolume("$AUDIT", true)
	trail, err := wal.NewTrail(wal.Config{Volume: auditVol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trail.Close)
	cfg := Config{
		Name:   "$DATA1",
		Volume: vol,
		Audit:  tmf.NewAuditPort(trail, nil, "", 0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, trail, vol
}

func empSchema() *record.Schema {
	return record.MustSchema("EMP", []record.Field{
		{Name: "EMPNO", Type: record.TypeInt, NotNull: true},
		{Name: "NAME", Type: record.TypeString},
		{Name: "HIRE_DATE", Type: record.TypeString},
		{Name: "SALARY", Type: record.TypeFloat},
	}, []int{0})
}

// createEmp creates the EMP file on the DP (SQL audit mode).
func createEmp(t testing.TB, d *DP, check expr.Expr) *record.Schema {
	t.Helper()
	s := empSchema()
	reply := d.Serve(&fsdp.Request{
		Kind: fsdp.KCreateFile, File: "EMP",
		Schema: record.EncodeSchema(s), Check: expr.Encode(check), Audit: true,
	})
	if !reply.OK() {
		t.Fatalf("create: %s", reply.Err)
	}
	return s
}

func empRow(no int64, name string, salary float64) record.Row {
	return record.Row{record.Int(no), record.String(name), record.String("1984-01-01"), record.Float(salary)}
}

// insertEmp inserts one row under tx.
func insertEmp(t testing.TB, d *DP, s *record.Schema, tx uint64, row record.Row) {
	t.Helper()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, Tx: tx, File: "EMP", Row: record.Encode(row)})
	if !reply.OK() {
		t.Fatalf("insert: %s", reply.Err)
	}
}

func commitTx(t testing.TB, d *DP, tx uint64) {
	t.Helper()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: tx})
	if !reply.OK() {
		t.Fatalf("commit: %s", reply.Err)
	}
}

// loadEmp creates EMP and commits n rows (salary = 1000*i).
func loadEmp(t testing.TB, d *DP, n int) *record.Schema {
	t.Helper()
	s := createEmp(t, d, nil)
	rows := make([]record.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, empRow(int64(i), fmt.Sprintf("emp-%05d", i), float64(1000*i)))
	}
	if err := d.BulkLoad("EMP", rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func key1(v int64) []byte { return keys.AppendInt64(nil, v) }

func TestCreateInsertReadDelete(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	tx := tmf.NewTxID()
	insertEmp(t, d, s, tx, empRow(7, "alice", 40000))
	commitTx(t, d, tx)

	reply := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(7)})
	if !reply.OK() || len(reply.Rows) != 1 {
		t.Fatalf("read: %+v", reply)
	}
	row, err := record.Decode(reply.Rows[0])
	if err != nil || row[1].S != "alice" {
		t.Fatalf("decoded %v %v", row, err)
	}

	tx2 := tmf.NewTxID()
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: tx2, File: "EMP", Key: key1(7)})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	commitTx(t, d, tx2)
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(7)})
	if reply.Code != fsdp.ErrNotFound {
		t.Fatalf("read after delete: %+v", reply)
	}
}

func TestWriteRequiresTx(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	_ = s
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, File: "EMP", Row: record.Encode(empRow(1, "x", 1))})
	if reply.Code != fsdp.ErrBadRequest {
		t.Errorf("tx-less insert: %+v", reply.Code)
	}
}

func TestDuplicateInsert(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	tx := tmf.NewTxID()
	insertEmp(t, d, s, tx, empRow(1, "a", 1))
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, Tx: tx, File: "EMP", Row: record.Encode(empRow(1, "b", 2))})
	if reply.Code != fsdp.ErrDuplicate {
		t.Errorf("dup insert: %v", reply.Code)
	}
}

func TestCheckConstraintEnforcedAtDP(t *testing.T) {
	// CHECK SALARY >= 0 enforced by the Disk Process: no preliminary
	// read by the requester needed.
	d, _, _ := testDP(t, nil)
	check := expr.Bin(expr.OpGE, expr.F(3, "SALARY"), expr.CInt(0))
	s := createEmp(t, d, check)
	tx := tmf.NewTxID()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, Tx: tx, File: "EMP", Row: record.Encode(empRow(1, "a", -5))})
	if reply.Code != fsdp.ErrConstraint {
		t.Fatalf("negative salary accepted: %+v", reply)
	}
	insertEmp(t, d, s, tx, empRow(1, "a", 5))
	// Update violating the constraint via subset update expression.
	assigns := expr.EncodeAssignments([]expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpSub, expr.F(3, "SALARY"), expr.CInt(100))},
	})
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP", Range: keys.All(), Assign: assigns})
	if reply.Code != fsdp.ErrConstraint {
		t.Fatalf("constraint-violating update accepted: %+v", reply)
	}
	if d.Stats().CheckEvals == 0 {
		t.Error("CheckEvals not counted")
	}
}

func TestAbortUndoes(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := loadEmp(t, d, 10)
	_ = s

	tx := tmf.NewTxID()
	// Insert a new record, update an existing one, delete another.
	insertEmp(t, d, s, tx, empRow(100, "new", 1))
	assigns := expr.EncodeAssignments([]expr.Assignment{{Field: 1, E: expr.CString("CHANGED")}})
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP",
		Range: keys.Point(key1(3)), Assign: assigns})
	if !reply.OK() || reply.Count != 1 {
		t.Fatalf("update: %+v", reply)
	}
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: tx, File: "EMP", Key: key1(5)})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}

	reply = d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}

	// Inserted row gone.
	if r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(100)}); r.Code != fsdp.ErrNotFound {
		t.Error("aborted insert survived")
	}
	// Updated row restored.
	r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(3)})
	row, _ := record.Decode(r.Rows[0])
	if row[1].S != "emp-00003" {
		t.Errorf("aborted update not undone: %v", row[1].S)
	}
	// Deleted row back.
	if r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(5)}); !r.OK() {
		t.Error("aborted delete not undone")
	}
	// Locks released.
	if d.Locks().Held() != 0 {
		t.Error("locks survive abort")
	}
}

func TestCommitReleasesLocks(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	tx := tmf.NewTxID()
	insertEmp(t, d, s, tx, empRow(1, "a", 1))
	if d.Locks().Held() == 0 {
		t.Fatal("no lock held during tx")
	}
	commitTx(t, d, tx)
	if d.Locks().Held() != 0 {
		t.Error("locks survive commit")
	}
}

func TestVSBBSelectionProjection(t *testing.T) {
	// The paper's Example (1): SELECT NAME, HIRE_DATE FROM EMP WHERE
	// EMPNO <= 1000 AND SALARY > 32000.
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 100) // salaries 0..99000

	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(32000))
	reply := d.Serve(&fsdp.Request{
		Kind: fsdp.KGetFirstVSBB, File: "EMP",
		Range: keys.Range{High: key1(50), HighIncl: true},
		Pred:  expr.Encode(pred),
		Proj:  []int{1, 2},
	})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	// EMPNO 33..50 qualify (salary >32000 means empno>32).
	if len(reply.Rows) != 18 {
		t.Fatalf("got %d rows", len(reply.Rows))
	}
	row, err := record.Decode(reply.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 2 || row[0].S != "emp-00033" {
		t.Fatalf("projected row %v", row)
	}
	if !reply.Done {
		t.Error("small result should complete in one message")
	}
	st := d.Stats()
	if st.RowsFiltered == 0 || st.PredicateEvals == 0 {
		t.Errorf("DP-side filtering not counted: %+v", st)
	}
}

func TestVSBBRedriveProtocol(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 500)

	var rows int
	var msgs int
	req := &fsdp.Request{
		Kind: fsdp.KGetFirstVSBB, File: "EMP", Range: keys.All(),
		Proj: []int{0}, RowLimit: 50,
	}
	for {
		reply := d.Serve(req)
		if !reply.OK() {
			t.Fatal(reply.Err)
		}
		msgs++
		rows += len(reply.Rows)
		if reply.Done {
			break
		}
		// Re-drive: new begin-key is the last processed key, exclusive.
		// Predicate and projection are NOT re-sent (Subset Control Block).
		req = &fsdp.Request{
			Kind: fsdp.KGetNextVSBB, File: "EMP",
			Range:    req.Range.Continue(reply.LastKey),
			SCB:      reply.SCB,
			RowLimit: 50,
		}
	}
	if rows != 500 {
		t.Fatalf("re-drive lost rows: %d", rows)
	}
	if msgs != 10 {
		t.Fatalf("expected 10 messages at 50 rows each, got %d", msgs)
	}
	if d.Stats().Redrives == 0 {
		t.Error("redrives not counted")
	}
}

func TestSCBNotFoundAfterDone(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 100)
	req := &fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP", Range: keys.All(), Proj: []int{0}, RowLimit: 60}
	r1 := d.Serve(req)
	if r1.Done || r1.SCB == 0 {
		t.Fatalf("first: %+v", r1)
	}
	r2 := d.Serve(&fsdp.Request{Kind: fsdp.KGetNextVSBB, File: "EMP",
		Range: req.Range.Continue(r1.LastKey), SCB: r1.SCB, RowLimit: 60})
	if !r2.Done {
		t.Fatalf("second not done")
	}
	// SCB retired: further use fails.
	r3 := d.Serve(&fsdp.Request{Kind: fsdp.KGetNextVSBB, File: "EMP", Range: keys.All(), SCB: r1.SCB})
	if r3.OK() {
		t.Error("retired SCB still usable")
	}
}

func TestRSBBReturnsWholeRecords(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 50)
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstRSBB, File: "EMP", Range: keys.All()})
	if !reply.OK() || len(reply.Rows) == 0 {
		t.Fatalf("%+v", reply)
	}
	row, err := record.Decode(reply.Rows[0])
	if err != nil || len(row) != 4 {
		t.Fatalf("RSBB row %v %v", row, err)
	}
}

func TestRSBBBlockSizedBatches(t *testing.T) {
	// RSBB returns about one block (4 KB) of records per message: the
	// blocking factor is the message reduction over record-at-a-time.
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 1000)
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstRSBB, File: "EMP", Range: keys.All()})
	if !reply.OK() || reply.Done {
		t.Fatalf("%+v", reply)
	}
	var bytes int
	for _, r := range reply.Rows {
		bytes += len(r)
	}
	if bytes < disk.BlockSize/2 || bytes > 2*disk.BlockSize {
		t.Errorf("RSBB batch is %d bytes, want ≈%d", bytes, disk.BlockSize)
	}
}

func TestUpdateSubsetExpressionPushdown(t *testing.T) {
	// The paper's Example (3): UPDATE ACCOUNT SET BALANCE = BALANCE*1.07
	// WHERE BALANCE > 0 — one message, no records returned.
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 100)
	tx := tmf.NewTxID()
	pred := expr.Bin(expr.OpGT, expr.F(3, "SALARY"), expr.CInt(0))
	assigns := expr.EncodeAssignments([]expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpMul, expr.F(3, "SALARY"), expr.CFloat(1.07))},
	})
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP",
		Range: keys.All(), Pred: expr.Encode(pred), Assign: expr.EncodeAssignments(nil)})
	_ = reply
	// (re-issue with real assignments; above checked empty-assign safety)
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP",
		Range: keys.All(), Pred: expr.Encode(pred), Assign: assigns})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	if reply.Count != 99 { // salary 0 excluded
		t.Fatalf("updated %d", reply.Count)
	}
	if len(reply.Rows) != 0 {
		t.Error("subset update returned records")
	}
	commitTx(t, d, tx)
	r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(10)})
	row, _ := record.Decode(r.Rows[0])
	if row[3].F != 10000*1.07 {
		t.Errorf("salary %v", row[3].F)
	}
}

func TestDeleteSubsetWithPredicate(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 100)
	tx := tmf.NewTxID()
	pred := expr.Bin(expr.OpLT, expr.F(3, "SALARY"), expr.CInt(50000))
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KDeleteSubsetFirst, Tx: tx, File: "EMP",
		Range: keys.All(), Pred: expr.Encode(pred)})
	if !reply.OK() || reply.Count != 50 {
		t.Fatalf("%+v", reply)
	}
	commitTx(t, d, tx)
	n, err := d.CountFile("EMP")
	if err != nil || n != 50 {
		t.Fatalf("count %d %v", n, err)
	}
}

func TestUpdateSubsetRedrive(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 300)
	tx := tmf.NewTxID()
	assigns := expr.EncodeAssignments([]expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CInt(1))},
	})
	total := uint32(0)
	msgs := 0
	req := &fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP",
		Range: keys.All(), Assign: assigns, RowLimit: 100}
	for {
		reply := d.Serve(req)
		if !reply.OK() {
			t.Fatal(reply.Err)
		}
		msgs++
		total += reply.Count
		if reply.Done {
			break
		}
		req = &fsdp.Request{Kind: fsdp.KUpdateSubsetNext, Tx: tx, File: "EMP",
			Range: req.Range.Continue(reply.LastKey), SCB: reply.SCB, RowLimit: 100}
	}
	if total != 300 || msgs != 3 {
		t.Fatalf("updated %d in %d msgs", total, msgs)
	}
	commitTx(t, d, tx)
}

func TestInsertBlock(t *testing.T) {
	d, _, _ := testDP(t, nil)
	createEmp(t, d, nil)
	tx := tmf.NewTxID()
	// Prior agreement: lock the empty target range.
	lockReply := d.Serve(&fsdp.Request{Kind: fsdp.KLockRange, Tx: tx, File: "EMP",
		Range: keys.Range{Low: key1(0), High: key1(1000), HighIncl: true}, Mode: 2})
	if !lockReply.OK() {
		t.Fatal(lockReply.Err)
	}
	var rows [][]byte
	for i := int64(0); i < 50; i++ {
		rows = append(rows, record.Encode(empRow(i, fmt.Sprintf("bulk-%d", i), float64(i))))
	}
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KInsertBlock, Tx: tx, File: "EMP", Rows: rows})
	if !reply.OK() || reply.Count != 50 {
		t.Fatalf("%+v", reply)
	}
	commitTx(t, d, tx)
	if n, _ := d.CountFile("EMP"); n != 50 {
		t.Fatalf("count %d", n)
	}
}

func TestInsertBlockPartialFailure(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	tx := tmf.NewTxID()
	insertEmp(t, d, s, tx, empRow(5, "existing", 1))
	rows := [][]byte{
		record.Encode(empRow(4, "ok", 1)),
		record.Encode(empRow(5, "dup", 1)),
		record.Encode(empRow(6, "never", 1)),
	}
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KInsertBlock, Tx: tx, File: "EMP", Rows: rows})
	if reply.Code != fsdp.ErrDuplicate || reply.Count != 1 {
		t.Fatalf("%+v", reply)
	}
	// Client aborts; everything (including row 4) undone.
	d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
	if n, _ := d.CountFile("EMP"); n != 0 {
		t.Fatalf("count %d after abort", n)
	}
}

func TestUpdateDeleteBlocks(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 20)
	tx := tmf.NewTxID()
	// Buffered update-where-current for keys 1..3.
	var ks, rs [][]byte
	for i := int64(1); i <= 3; i++ {
		ks = append(ks, key1(i))
		rs = append(rs, record.Encode(empRow(i, "cursor-upd", 9)))
	}
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateBlock, Tx: tx, File: "EMP", RowKeys: ks, Rows: rs})
	if !reply.OK() || reply.Count != 3 {
		t.Fatalf("%+v", reply)
	}
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KDeleteBlock, Tx: tx, File: "EMP", RowKeys: [][]byte{key1(10), key1(11)}})
	if !reply.OK() || reply.Count != 2 {
		t.Fatalf("%+v", reply)
	}
	commitTx(t, d, tx)
	if n, _ := d.CountFile("EMP"); n != 18 {
		t.Fatalf("count %d", n)
	}
	r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(2)})
	row, _ := record.Decode(r.Rows[0])
	if row[1].S != "cursor-upd" {
		t.Errorf("block update lost: %v", row[1].S)
	}
}

func TestFieldCompressedAuditSmaller(t *testing.T) {
	// Same update through a SQL file (field audit) vs an ENSCRIBE file
	// (full images): the SQL audit bytes must be much smaller.
	run := func(fieldAudit bool) uint64 {
		d, trail, _ := testDP(t, nil)
		s := empSchema()
		reply := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "EMP",
			Schema: record.EncodeSchema(s), Audit: fieldAudit})
		if !reply.OK() {
			t.Fatal(reply.Err)
		}
		rows := make([]record.Row, 0, 100)
		for i := 0; i < 100; i++ {
			rows = append(rows, empRow(int64(i), fmt.Sprintf("a-very-long-employee-name-%05d-with-padding-padding", i), float64(i)))
		}
		if err := d.BulkLoad("EMP", rows); err != nil {
			t.Fatal(err)
		}
		trail.ResetStats()
		tx := tmf.NewTxID()
		assigns := expr.EncodeAssignments([]expr.Assignment{
			{Field: 3, E: expr.Bin(expr.OpMul, expr.F(3, "SALARY"), expr.CFloat(1.07))},
		})
		r := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP", Range: keys.All(), Assign: assigns})
		if !r.OK() || r.Count != 100 {
			t.Fatalf("%+v", r)
		}
		commitTx(t, d, tx)
		return trail.Stats().BytesAppended
	}
	enscribe, sql := run(false), run(true)
	if sql*2 > enscribe {
		t.Errorf("field-compressed audit %dB not ≪ full-image %dB", sql, enscribe)
	}
}

func TestPrepareCommitTwoPhase(t *testing.T) {
	d, trail, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	tx := tmf.NewTxID()
	insertEmp(t, d, s, tx, empRow(1, "a", 1))
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KPrepare, Tx: tx})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	// Prepare forced this tx's audit durable.
	if trail.FlushedLSN() == 0 {
		t.Error("prepare did not force audit")
	}
	lsn := trail.AppendCommit(tx)
	trail.WaitDurable(lsn)
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: tx, CommitLSN: uint64(lsn)})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	if d.Locks().Held() != 0 {
		t.Error("locks after phase 2")
	}
}

func TestStatsCounting(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 10)
	d.ResetStats()
	d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP", Range: keys.All(), Proj: []int{0}})
	st := d.Stats()
	if st.Requests != 1 || st.SetRequests != 1 || st.RowsScanned != 10 || st.RowsReturned != 10 {
		t.Errorf("%+v", st)
	}
}

func TestHandlerWire(t *testing.T) {
	// Full encode/serve/decode through the byte-level Handler.
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 5)
	raw := d.Handler(fsdp.EncodeRequest(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(2)}), nil)
	reply, err := fsdp.DecodeReply(raw)
	if err != nil || !reply.OK() || len(reply.Rows) != 1 {
		t.Fatalf("%+v %v", reply, err)
	}
	// Garbage request is rejected, not a panic.
	raw = d.Handler([]byte{0xFF, 0xFF}, nil)
	reply, err = fsdp.DecodeReply(raw)
	if err != nil || reply.OK() {
		t.Fatalf("garbage handled: %+v %v", reply, err)
	}
}

func TestUnknownFileAndKind(t *testing.T) {
	d, _, _ := testDP(t, nil)
	if r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "NOPE", Key: key1(1)}); r.OK() {
		t.Error("unknown file accepted")
	}
	if r := d.Serve(&fsdp.Request{Kind: fsdp.Kind(99)}); r.Code != fsdp.ErrBadRequest {
		t.Error("unknown kind accepted")
	}
	if r := d.Serve(&fsdp.Request{Kind: fsdp.KDropFile, File: "NOPE"}); r.Code != fsdp.ErrNotFound {
		t.Error("drop of unknown file accepted")
	}
}

func TestUpdateRecordRewrite(t *testing.T) {
	// The ENSCRIBE REWRITE path: full replacement record from the
	// requester.
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 5)
	tx := tmf.NewTxID()
	newRow := empRow(2, "rewritten", 777)
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: tx, File: "EMP",
		Key: key1(2), Row: record.Encode(newRow)})
	if !reply.OK() || reply.Count != 1 {
		t.Fatalf("%+v", reply)
	}
	// Changing the primary key via REWRITE is rejected.
	bad := empRow(99, "moved", 1)
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: tx, File: "EMP",
		Key: key1(3), Row: record.Encode(bad)})
	if reply.OK() {
		t.Fatal("key-changing rewrite accepted")
	}
	// Without a transaction it is rejected.
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KUpdateRecord, File: "EMP",
		Key: key1(2), Row: record.Encode(newRow)})
	if reply.Code != fsdp.ErrBadRequest {
		t.Fatalf("tx-less rewrite: %v", reply.Code)
	}
	commitTx(t, d, tx)
	r := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(2)})
	row, _ := record.Decode(r.Rows[0])
	if row[1].S != "rewritten" || row[3].F != 777 {
		t.Fatalf("%v", row)
	}
}

func TestCloseSubsetDiscardsSCB(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 100)
	r1 := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP",
		Range: keys.All(), Proj: []int{0}, RowLimit: 10})
	if r1.Done || r1.SCB == 0 {
		t.Fatalf("%+v", r1)
	}
	// Client abandons the scan early.
	r2 := d.Serve(&fsdp.Request{Kind: fsdp.KCloseSubset, File: "EMP", SCB: r1.SCB})
	if !r2.OK() {
		t.Fatal(r2.Err)
	}
	r3 := d.Serve(&fsdp.Request{Kind: fsdp.KGetNextVSBB, File: "EMP",
		Range: keys.All(), SCB: r1.SCB})
	if r3.OK() {
		t.Fatal("closed SCB still usable")
	}
}

// TestNextRefusedOnForeignSCB pins the skeleton's one ^NEXT validation
// rule: an SCB serves only the conversation that opened it. A ^NEXT of
// another kind, for another file or under another transaction is
// refused with ErrBadRequest and changes nothing — in particular a
// DELETE^SUBSET^NEXT naming a browse scan's SCB deletes no rows — and
// the rightful conversation still runs to Done.
func TestNextRefusedOnForeignSCB(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 20)
	createFile := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "OTHER",
		Schema: record.EncodeSchema(empSchema())})
	if !createFile.OK() {
		t.Fatal(createFile.Err)
	}
	first := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstRSBB, File: "EMP", Range: keys.All(), RowLimit: 1})
	if !first.OK() || first.Done || first.SCB == 0 {
		t.Fatalf("%+v", first)
	}
	rest := keys.All().Continue(first.LastKey)
	tx := tmf.NewTxID()
	for _, req := range []*fsdp.Request{
		{Kind: fsdp.KDeleteSubsetNext, Tx: tx, File: "EMP"},
		{Kind: fsdp.KUpdateSubsetNext, Tx: tx, File: "EMP"},
		{Kind: fsdp.KCountNext, File: "EMP"},
		{Kind: fsdp.KAggNext, File: "EMP"},
		{Kind: fsdp.KGetNextVSBB, File: "EMP"},
		{Kind: fsdp.KGetNextRSBB, File: "OTHER"},
		{Kind: fsdp.KGetNextRSBB, Tx: tx, File: "EMP"},
	} {
		req.Range, req.SCB = rest, first.SCB
		if reply := d.Serve(req); reply.Code != fsdp.ErrBadRequest {
			t.Errorf("%s on file %s tx %d against a browse GET^FIRST^RSBB's SCB: code %d (%s), count %d",
				req.Kind, req.File, req.Tx, reply.Code, reply.Err, reply.Count)
		}
	}
	d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
	if n, err := d.CountFile("EMP"); err != nil || n != 20 {
		t.Fatalf("%d rows remain, %v", n, err)
	}
	rows := len(first.Rows)
	for req := (&fsdp.Request{Kind: fsdp.KGetNextRSBB, File: "EMP", Range: rest, SCB: first.SCB}); ; {
		reply := d.Serve(req)
		if !reply.OK() {
			t.Fatalf("rightful ^NEXT refused: %s", reply.Err)
		}
		rows += len(reply.Rows)
		if reply.Done {
			break
		}
		req = &fsdp.Request{Kind: fsdp.KGetNextRSBB, File: "EMP", Range: req.Range.Continue(reply.LastKey), SCB: reply.SCB}
	}
	if rows != 20 {
		t.Errorf("conversation delivered %d rows, want 20", rows)
	}
	if _, scbs := d.OpenState(); scbs != 0 {
		t.Errorf("%d SCBs left open", scbs)
	}
}

func TestVSBBExclusiveMode(t *testing.T) {
	// Read-for-update: the virtual block is locked exclusively.
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 20)
	tx := tmf.NewTxID()
	r := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstVSBB, Tx: tx, File: "EMP",
		Range: keys.All(), Proj: []int{0}, Mode: 2})
	if !r.OK() {
		t.Fatal(r.Err)
	}
	// Another transaction cannot even read-lock inside the block.
	tx2 := tmf.NewTxID()
	r2 := d.Serve(&fsdp.Request{Kind: fsdp.KLockRecord, Tx: tx2, File: "EMP",
		Key: key1(5), Mode: 1})
	if r2.OK() {
		t.Fatal("S lock granted under exclusive virtual block")
	}
	commitTx(t, d, tx)
}

func TestTimeLimitRedrive(t *testing.T) {
	// The paper's elapsed-time limit: a slow scan yields after TimeLimit.
	d, _, _ := testDP(t, func(c *Config) { c.TimeLimit = time.Nanosecond })
	loadEmp(t, d, 100)
	r := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP",
		Range: keys.All(), Proj: []int{0}})
	if !r.OK() {
		t.Fatal(r.Err)
	}
	if r.Done {
		t.Fatal("nanosecond time limit did not trigger a re-drive")
	}
	if len(r.Rows) == 0 {
		t.Fatal("re-drive reply carried no progress at all")
	}
}

func TestConcurrentMixedWorkloadOnOneDP(t *testing.T) {
	// Concurrent scans, subset updates, point ops, and commits against a
	// single Disk Process: exercises the server's internal locking under
	// the race detector.
	d, _, _ := testDP(t, func(c *Config) {
		c.Prefetch = true
		c.WriteBehind = true
		c.LockTimeout = 5 * time.Second
	})
	loadEmp(t, d, 500)

	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx := tmf.NewTxID()
				lo := int64((id*25 + i) % 400)
				assigns := expr.EncodeAssignments([]expr.Assignment{
					{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CInt(1))},
				})
				r := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP",
					Range:  keys.Range{Low: key1(lo), High: key1(lo + 20), HighIncl: true},
					Assign: assigns})
				if !r.OK() {
					// Lock conflicts are legitimate: abort and retry next i.
					d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
					continue
				}
				cr := d.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: tx})
				if !cr.OK() {
					errCh <- fmt.Errorf("commit: %s", cr.Err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Browse scans run lock-free alongside the writers.
				req := &fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP",
					Range: keys.All(), Proj: []int{0}, RowLimit: 100}
				for {
					r := d.Serve(req)
					if !r.OK() {
						errCh <- fmt.Errorf("scan: %s", r.Err)
						return
					}
					if r.Done {
						break
					}
					req = &fsdp.Request{Kind: fsdp.KGetNextVSBB, File: "EMP",
						Range: req.Range.Continue(r.LastKey), SCB: r.SCB, RowLimit: 100}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n, _ := d.CountFile("EMP"); n != 500 {
		t.Fatalf("count %d after stress", n)
	}
}
