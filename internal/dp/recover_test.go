package dp

import (
	"fmt"
	"testing"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// crashRig wires a DP whose audit volume we can scan after a crash.
type crashRig struct {
	d        *DP
	trail    *wal.Trail
	auditVol *disk.Volume
	schema   *record.Schema
	root     disk.BlockNum
}

func newCrashRig(t *testing.T) *crashRig {
	t.Helper()
	vol := disk.NewVolume("$DATA1", true)
	auditVol := disk.NewVolume("$AUDIT", true)
	trail, err := wal.NewTrail(wal.Config{Volume: auditVol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trail.Close)
	d, err := New(Config{Name: "$DATA1", Volume: vol, Audit: tmf.NewAuditPort(trail, nil, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	s := empSchema()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "EMP",
		Schema: record.EncodeSchema(s), Audit: true})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	return &crashRig{d: d, trail: trail, auditVol: auditVol, schema: s, root: disk.BlockNum(reply.Root)}
}

// crashAndRecover simulates processor loss and runs restart recovery.
func (r *crashRig) crashAndRecover(t *testing.T) {
	t.Helper()
	r.d.Crash()
	r.d.AttachFile("EMP", r.schema, nil, r.root, true)
	recs, err := wal.Scan(r.auditVol, r.trail.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.d.Recover(recs); err != nil {
		t.Fatal(err)
	}
}

func (r *crashRig) read(t *testing.T, key int64) (record.Row, bool) {
	t.Helper()
	reply := r.d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(key)})
	if reply.Code == fsdp.ErrNotFound {
		return nil, false
	}
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	row, err := record.Decode(reply.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	return row, true
}

func TestRecoverCommittedSurvives(t *testing.T) {
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "committed", 100))
	commitTx(t, r.d, tx)
	r.crashAndRecover(t)
	row, ok := r.read(t, 1)
	if !ok || row[1].S != "committed" {
		t.Fatalf("committed insert lost: %v %v", row, ok)
	}
}

func TestRecoverUncommittedGone(t *testing.T) {
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "inflight", 100))
	// Force the insert's audit durable (as a WAL-gated page write would),
	// then crash without commit.
	r.trail.Flush()
	r.crashAndRecover(t)
	if _, ok := r.read(t, 1); ok {
		t.Fatal("uncommitted insert survived recovery")
	}
}

func TestRecoverUncommittedUpdateRolledBack(t *testing.T) {
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "original", 100))
	commitTx(t, r.d, tx)

	tx2 := tmf.NewTxID()
	assigns := expr.EncodeAssignments([]expr.Assignment{{Field: 1, E: expr.CString("dirty")}})
	reply := r.d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx2, File: "EMP",
		Range: keys.All(), Assign: assigns})
	if !reply.OK() || reply.Count != 1 {
		t.Fatalf("%+v", reply)
	}
	// The dirty page may even reach disk (WAL-gated): force it.
	r.trail.Flush()
	if err := r.d.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	r.crashAndRecover(t)
	row, ok := r.read(t, 1)
	if !ok || row[1].S != "original" {
		t.Fatalf("uncommitted field-compressed update not undone: %v", row)
	}
}

func TestRecoverUncommittedDeleteRestored(t *testing.T) {
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "keepme", 100))
	commitTx(t, r.d, tx)
	tx2 := tmf.NewTxID()
	reply := r.d.Serve(&fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: tx2, File: "EMP", Key: key1(1)})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	r.trail.Flush()
	r.d.Pool().FlushAll()
	r.crashAndRecover(t)
	row, ok := r.read(t, 1)
	if !ok || row[1].S != "keepme" {
		t.Fatalf("uncommitted delete not restored: %v %v", row, ok)
	}
}

func TestRecoverAbortedStaysAborted(t *testing.T) {
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "aborted", 100))
	r.d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
	r.trail.Flush()
	r.crashAndRecover(t)
	if _, ok := r.read(t, 1); ok {
		t.Fatal("aborted insert resurrected by recovery")
	}
}

func TestRecoverPeerAbortDoesNotSkipUndo(t *testing.T) {
	// Abort records are per-participant. In a 2PC abort the peer volume
	// can get its compensations and abort record onto the shared trail
	// while the crash catches THIS volume before its own undo ran: the
	// trail then holds our forward update, no local compensations, and
	// only the peer's abort marker. Recovery must still treat the txn as
	// a loser here and undo from before-images — honoring the foreign
	// marker left the dirty update in place.
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "original", 100))
	commitTx(t, r.d, tx)

	tx2 := tmf.NewTxID()
	assigns := expr.EncodeAssignments([]expr.Assignment{{Field: 1, E: expr.CString("dirty")}})
	reply := r.d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx2, File: "EMP",
		Range: keys.Point(key1(1)), Assign: assigns})
	if !reply.OK() || reply.Count != 1 {
		t.Fatalf("%+v", reply)
	}
	r.trail.Flush()

	r.d.Crash()
	r.d.AttachFile("EMP", r.schema, nil, r.root, true)
	recs, err := wal.Scan(r.auditVol, r.trail.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	// The peer's abort record, as it appears on the shared audit trail.
	recs = append(recs, &wal.Record{Type: wal.RecAbort, TxID: tx2, Volume: "$PEER"})
	if err := r.d.Recover(recs); err != nil {
		t.Fatal(err)
	}
	row, ok := r.read(t, 1)
	if !ok || row[1].S != "original" {
		t.Fatalf("peer abort record suppressed local undo: %v %v", row, ok)
	}
}

func TestRecoverMixedWorkload(t *testing.T) {
	r := newCrashRig(t)
	// Committed base data.
	tx := tmf.NewTxID()
	for i := int64(0); i < 50; i++ {
		insertEmp(t, r.d, r.schema, tx, empRow(i, fmt.Sprintf("base-%02d", i), float64(i)))
	}
	commitTx(t, r.d, tx)

	// Committed updates.
	tx2 := tmf.NewTxID()
	assigns := expr.EncodeAssignments([]expr.Assignment{
		{Field: 3, E: expr.Bin(expr.OpMul, expr.F(3, "SALARY"), expr.CFloat(2))},
	})
	reply := r.d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx2, File: "EMP",
		Range: keys.Range{High: key1(9), HighIncl: true}, Assign: assigns})
	if !reply.OK() || reply.Count != 10 {
		t.Fatalf("%+v", reply)
	}
	commitTx(t, r.d, tx2)

	// In-flight tx: inserts + deletes + updates, never committed.
	tx3 := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx3, empRow(100, "phantom", 1))
	r.d.Serve(&fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: tx3, File: "EMP", Key: key1(20)})
	r.d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx3, File: "EMP",
		Range: keys.Point(key1(30)), Assign: expr.EncodeAssignments([]expr.Assignment{{Field: 1, E: expr.CString("dirty")}})})
	r.trail.Flush()

	r.crashAndRecover(t)

	// Committed updates present.
	row, ok := r.read(t, 5)
	if !ok || row[3].F != 10 {
		t.Fatalf("committed update lost: %v", row)
	}
	// In-flight effects gone.
	if _, ok := r.read(t, 100); ok {
		t.Error("phantom insert survived")
	}
	if _, ok := r.read(t, 20); !ok {
		t.Error("in-flight delete not undone")
	}
	row, _ = r.read(t, 30)
	if row[1].S != "base-30" {
		t.Errorf("in-flight update not undone: %v", row[1].S)
	}
	n, _ := r.d.CountFile("EMP")
	if n != 50 {
		t.Errorf("count %d, want 50", n)
	}
}

func TestRecoverIdempotent(t *testing.T) {
	// Running recovery twice must converge to the same state.
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "x", 1))
	commitTx(t, r.d, tx)
	r.crashAndRecover(t)
	r.crashAndRecover(t)
	if _, ok := r.read(t, 1); !ok {
		t.Fatal("double recovery lost data")
	}
	if n, _ := r.d.CountFile("EMP"); n != 1 {
		t.Fatalf("count %d", n)
	}
}

func TestCrashReleasesLocks(t *testing.T) {
	r := newCrashRig(t)
	tx := tmf.NewTxID()
	insertEmp(t, r.d, r.schema, tx, empRow(1, "x", 1))
	if r.d.Locks().Held() == 0 {
		t.Fatal("no locks pre-crash")
	}
	r.d.Crash()
	if r.d.Locks().Held() != 0 {
		t.Error("locks survived crash")
	}
}

// TestRejectedDuplicateInsertLeavesNoTrace: an INSERT of a key that is
// already there is refused, and leaves nothing behind — not on the trail
// either. It used to append its audit record before the tree found the
// duplicate, and recorded no undo for it; recovery redoes an insert as an
// upsert, so after a crash the committed row read as the rejected one,
// whether the rejecting transaction went on to commit or to abort.
func TestRejectedDuplicateInsertLeavesNoTrace(t *testing.T) {
	for _, end := range []fsdp.Kind{fsdp.KCommit, fsdp.KAbort} {
		t.Run(end.String(), func(t *testing.T) {
			r := newCrashRig(t)
			tx := tmf.NewTxID()
			insertEmp(t, r.d, r.schema, tx, empRow(1, "original", 100))
			commitTx(t, r.d, tx)

			tx2 := tmf.NewTxID()
			reply := r.d.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, Tx: tx2, File: "EMP", Row: record.Encode(empRow(1, "rejected", 999))})
			if reply.Code != fsdp.ErrDuplicate {
				t.Fatalf("duplicate insert: %+v", reply)
			}
			if reply := r.d.Serve(&fsdp.Request{Kind: end, Tx: tx2}); !reply.OK() {
				t.Fatal(reply.Err)
			}
			if row, ok := r.read(t, 1); !ok || row[1].S != "original" {
				t.Fatalf("before the crash row 1 reads %v (there: %v), want original", row, ok)
			}
			r.trail.Flush()
			if err := r.d.Pool().FlushAll(); err != nil {
				t.Fatal(err)
			}
			r.crashAndRecover(t)
			if row, ok := r.read(t, 1); !ok || row[1].S != "original" {
				t.Fatalf("after recovery row 1 reads %v (there: %v), want original", row, ok)
			}
		})
	}
}
