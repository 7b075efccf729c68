package dp

import (
	"encoding/binary"
	"testing"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// shipFrames sends recs to the backup as one KShipRecords batch, framed
// with consecutive sequence numbers starting at startSeq — the exact
// wire shape the cluster's shipper produces.
func shipFrames(d *DP, startSeq uint64, recs []*wal.Record) *fsdp.Reply {
	rows := make([][]byte, 0, len(recs))
	seq := startSeq
	for _, r := range recs {
		frame := binary.AppendUvarint(nil, seq)
		frame = r.Encode(frame)
		rows = append(rows, frame)
		seq++
	}
	return d.Serve(&fsdp.Request{Kind: fsdp.KShipRecords, Rows: rows})
}

func readKey(t *testing.T, d *DP, key []byte) (*fsdp.Reply, bool) {
	t.Helper()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key})
	return reply, reply.OK()
}

// TestPromoteSkipsShippedCompensations pins the mid-abort takeover: the
// primary died while undoing a transaction, so the stream holds the
// originals AND compensation records for a suffix of them (LIFO order),
// but no abort marker. Promotion must undo only the un-compensated
// prefix — double-undoing a compensated insert deletes a missing key,
// a compensated delete re-inserts a duplicate.
func TestPromoteSkipsShippedCompensations(t *testing.T) {
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)

	keep := empRow(1, "keep", 100)
	base := empRow(5, "base", 500) // committed, then deleted by the loser
	dead2 := empRow(2, "dead", 0)
	dead3 := empRow(3, "dead", 0)
	dead4 := empRow(4, "dead", 0)
	key := func(r record.Row) []byte { return s.Key(r) }
	enc := record.Encode

	const committed, loser = 50, 77
	// Committed baseline: keep and base exist.
	if reply := shipFrames(d, 1, []*wal.Record{
		{Type: wal.RecInsert, TxID: committed, File: "EMP", Key: key(keep), After: enc(keep)},
		{Type: wal.RecInsert, TxID: committed, File: "EMP", Key: key(base), After: enc(base)},
		{Type: wal.RecCommit, TxID: committed},
	}); !reply.OK() {
		t.Fatalf("baseline batch: %s", reply.Err)
	}
	// The loser: three inserts and a delete, then the primary's abort got
	// three compensation steps in (reverse order) before the crash. No
	// abort marker ever shipped.
	if reply := shipFrames(d, 4, []*wal.Record{
		{Type: wal.RecInsert, TxID: loser, File: "EMP", Key: key(dead2), After: enc(dead2)},
		{Type: wal.RecInsert, TxID: loser, File: "EMP", Key: key(dead3), After: enc(dead3)},
		{Type: wal.RecInsert, TxID: loser, File: "EMP", Key: key(dead4), After: enc(dead4)},
		{Type: wal.RecDelete, TxID: loser, File: "EMP", Key: key(base), Before: enc(base)},
		{Type: wal.RecInsert, TxID: loser, File: "EMP", Key: key(base), After: enc(base), Compensation: true},
		{Type: wal.RecDelete, TxID: loser, File: "EMP", Key: key(dead4), Compensation: true},
		{Type: wal.RecDelete, TxID: loser, File: "EMP", Key: key(dead3), Compensation: true},
	}); !reply.OK() {
		t.Fatalf("mid-abort batch: %s", reply.Err)
	}

	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KPromote}); !reply.OK() {
		t.Fatalf("promote after mid-abort stream: %s", reply.Err)
	}

	// keep and base survive; every loser row is gone exactly once.
	if _, ok := readKey(t, d, key(keep)); !ok {
		t.Error("committed row lost by promotion")
	}
	if _, ok := readKey(t, d, key(base)); !ok {
		t.Error("compensated delete not restored (or double-undone)")
	}
	for _, r := range []record.Row{dead2, dead3, dead4} {
		if _, ok := readKey(t, d, key(r)); ok {
			t.Errorf("loser row %v survived promotion", r[0].I)
		}
	}
	if _, _, promoted, indoubt, fenced := d.ReplicaStats(); !promoted || indoubt != 0 || fenced != 1 {
		t.Errorf("replica state after promote: promoted %v, indoubt %d, fenced %d", promoted, indoubt, fenced)
	}
	// The fence still guards the undone transaction.
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: loser}); reply.OK() {
		t.Error("fenced transaction's commit acknowledged")
	}
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: loser})
}

// TestPromoteRetryAfterRelockFailure pins the promotion failure path: a
// KPromote whose in-doubt relock fails must report the error, and a
// retried KPromote must re-run the passes — never answer OK while
// transactions remain unresolved.
func TestPromoteRetryAfterRelockFailure(t *testing.T) {
	d, _, _ := testDP(t, func(c *Config) { c.LockTimeout = 50 * time.Millisecond })
	s := createEmp(t, d, nil)

	row := empRow(9, "indoubt", 900)
	key := s.Key(row)
	const tx = 88
	if reply := shipFrames(d, 1, []*wal.Record{
		{Type: wal.RecInsert, TxID: tx, File: "EMP", Key: key, After: record.Encode(row)},
		{Type: wal.RecPrepare, TxID: tx},
	}); !reply.OK() {
		t.Fatalf("ship: %s", reply.Err)
	}

	// A conflicting lock makes the in-doubt relock time out.
	if err := d.locks.LockRecord(999, "EMP", key, lock.Exclusive); err != nil {
		t.Fatal(err)
	}
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KPromote}); reply.OK() {
		t.Fatal("promote reported OK with the in-doubt relock failing")
	}
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KPromote}); reply.OK() {
		t.Fatal("retried promote reported OK while the transaction is still unresolved")
	}
	if _, _, promoted, _, _ := d.ReplicaStats(); promoted {
		t.Fatal("failed promotion marked the replica promoted")
	}
	// Once promotion was attempted the stream stays refused, even though
	// the promotion itself must still be retried.
	if reply := shipFrames(d, 3, []*wal.Record{
		{Type: wal.RecInsert, TxID: 99, File: "EMP", Key: s.Key(empRow(10, "x", 0)), After: record.Encode(empRow(10, "x", 0))},
	}); reply.OK() {
		t.Fatal("checkpoint stream accepted between promotion attempts")
	}

	d.locks.ReleaseTx(999)
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KPromote}); !reply.OK() {
		t.Fatalf("promote retry after releasing the conflict: %s", reply.Err)
	}
	if _, _, promoted, indoubt, _ := d.ReplicaStats(); !promoted || indoubt != 1 {
		t.Fatalf("replica state after retry: promoted %v, indoubt %d", promoted, indoubt)
	}
	// Phase 2 resolves the in-doubt transaction normally.
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: tx, CommitLSN: 1}); !reply.OK() {
		t.Fatalf("phase-2 commit of in-doubt tx: %s", reply.Err)
	}
	if _, ok := readKey(t, d, key); !ok {
		t.Error("in-doubt row lost after phase-2 commit")
	}
}

// TestPromoteRetryUndoesNothingTwice pins the undo bookkeeping a promotion
// retry relies on: rollback drops each undo entry once it is compensated.
// The loser changed record 5 and inserted 6 and 7; the first promotion
// takes back 7 and 6 and then fails on 5 (the row is gone from under it at
// that step), and the retry takes back 5 alone — one undo step after its
// start, where undoing 7 or 6 again would fail on a missing key.
func TestPromoteRetryUndoesNothingTwice(t *testing.T) {
	defer fault.Reset()
	d, _, _ := testDP(t, nil)
	s := createEmp(t, d, nil)
	base, changed := empRow(5, "base", 500), empRow(5, "changed", 501)
	dead6, dead7 := empRow(6, "x", 1), empRow(7, "x", 1)
	key := func(r record.Row) []byte { return s.Key(r) }
	enc := record.Encode

	const committed, loser = 60, 61
	if reply := shipFrames(d, 1, []*wal.Record{
		{Type: wal.RecInsert, TxID: committed, File: "EMP", Key: key(base), After: enc(base)},
		{Type: wal.RecCommit, TxID: committed},
		{Type: wal.RecUpdate, TxID: loser, File: "EMP", Key: key(base), Before: enc(base), After: enc(changed)},
		{Type: wal.RecInsert, TxID: loser, File: "EMP", Key: key(dead6), After: enc(dead6)},
		{Type: wal.RecInsert, TxID: loser, File: "EMP", Key: key(dead7), After: enc(dead7)},
	}); !reply.OK() {
		t.Fatalf("ship: %s", reply.Err)
	}
	f, err := d.getFile("EMP")
	if err != nil {
		t.Fatal(err)
	}
	// Hits: the start, then one per undo step; the fourth is record 5's.
	fault.Arm(fault.TakeoverPromote, 3, func() {
		if err := f.tree.Delete(key(base), 0); err != nil {
			t.Error(err)
		}
	})
	fault.Enable()
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KPromote}); reply.OK() {
		t.Fatal("promote reported OK with record 5 missing under its undo")
	}
	if !fault.Fired(fault.TakeoverPromote) {
		t.Fatal("the undo step of record 5 was not reached")
	}
	if err := f.tree.Insert(key(base), enc(changed), 0); err != nil {
		t.Fatal(err)
	}

	fault.Reset()
	fault.Enable()
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KPromote}); !reply.OK() {
		t.Fatalf("retried promote: %s", reply.Err)
	}
	if hits := fault.Hits(fault.TakeoverPromote); hits != 2 {
		t.Errorf("retried promote reached its crash point %d times, want 2 (its start and record 5's undo)", hits)
	}
	if reply, ok := readKey(t, d, key(base)); !ok {
		t.Errorf("record 5 lost: %s", reply.Err)
	} else if row, err := record.Decode(reply.Rows[0]); err != nil || row[1].S != "base" {
		t.Errorf("record 5 reads %v (%v), want its committed image", row, err)
	}
	for _, r := range []record.Row{dead6, dead7} {
		if _, ok := readKey(t, d, key(r)); ok {
			t.Errorf("loser row %d survived promotion", r[0].I)
		}
	}
	if _, _, promoted, indoubt, fenced := d.ReplicaStats(); !promoted || indoubt != 0 || fenced != 1 {
		t.Errorf("replica state after promote: promoted %v, indoubt %d, fenced %d", promoted, indoubt, fenced)
	}
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: loser})
}

// TestFencedTransactionRefusesEveryKind: on a promoted backup, every
// message of a transaction the promotion fenced is refused at first
// contact — each kind that joins a transaction, PREPARE and a subset's
// ^FIRST — and none writes anything or leaves a lock. COMMIT is refused
// too; ABORT answers OK and frees the fenced state, after which the Disk
// Process holds nothing.
func TestFencedTransactionRefusesEveryKind(t *testing.T) {
	d := rereadRig(t)
	const fenced = 71
	if reply := shipFrames(d, 1, []*wal.Record{
		{Type: wal.RecUpdate, TxID: fenced, File: "ACCT", Key: key1(300), Before: acctRow(300, 300), After: acctRow(300, -5)},
	}); !reply.OK() {
		t.Fatalf("ship: %s", reply.Err)
	}
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KPromote})

	asCommitted := func(t *testing.T) {
		t.Helper()
		for _, want := range []struct {
			id    int64
			there bool
		}{{249, true}, {250, true}, {300, true}, {1000, false}} {
			bal, there := acctBal(t, d, want.id)
			if there != want.there || (there && bal != float64(want.id)) {
				t.Errorf("record %d: present %v, BAL %v; want present %v, BAL %d", want.id, there, bal, want.there, want.id)
			}
		}
		if open := d.OpenState(); open != (Open{Txns: 1}) {
			t.Errorf("with one fenced transaction the Disk Process holds %+v", open)
		}
	}
	asCommitted(t)
	kinds := append(joiningKinds(),
		joiningKind{name: "PREPARE", req: fsdp.Request{Kind: fsdp.KPrepare}},
		joiningKind{name: "UPDATE^SUBSET^FIRST", req: fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Range: keys.All(),
			Assign: expr.EncodeAssignments([]expr.Assignment{{Field: 2, E: expr.CFloat(-1)}})}})
	for _, c := range kinds {
		t.Run(c.name, func(t *testing.T) {
			req := c.req
			req.Tx, req.File = fenced, "ACCT"
			if reply := d.Serve(&req); reply.OK() {
				t.Errorf("the %s of a fenced transaction replied %+v", c.name, reply)
			}
			asCommitted(t)
		})
	}
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: fenced, CommitLSN: 1}); reply.OK() {
		t.Error("the COMMIT of a fenced transaction was acknowledged")
	}
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: fenced})
	if open := d.OpenState(); open != (Open{}) {
		t.Errorf("after the fenced transaction's ABORT the Disk Process holds %+v", open)
	}
}
