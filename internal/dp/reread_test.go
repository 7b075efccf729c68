package dp

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// rereadRig is ACCT with 600 records, BAL = ID, and GRP = ID mod 100 below
// 200, 100 + ID mod 7 from 200 to 399 — groups a conversation's second
// message meets first — and ID mod 50 above; with a long lock timeout.
func rereadRig(t *testing.T) *DP {
	d, _, _ := testDP(t, func(c *Config) { c.LockTimeout = 30 * time.Second })
	createAcct(t, d)
	rows := make([]record.Row, 600)
	for i := range rows {
		grp := i % 100
		switch {
		case i >= 400:
			grp = i % 50
		case i >= 200:
			grp = 100 + i%7
		}
		rows[i] = record.Row{record.Int(int64(i)), record.Int(int64(grp)), record.Float(float64(i)), record.String("")}
	}
	if err := d.BulkLoad("ACCT", rows); err != nil {
		t.Fatal(err)
	}
	return d
}

// converse drives a conversation from first to Done, serving ^NEXT number
// at (from 1) through during when it is set, and returns its replies.
func converse(t *testing.T, d *DP, first fsdp.Request, at int, during func(*fsdp.Request) *fsdp.Reply) []*fsdp.Reply {
	t.Helper()
	var replies []*fsdp.Reply
	req := first
	for msg := 0; ; msg++ {
		var reply *fsdp.Reply
		if msg == at && during != nil {
			reply = during(&req)
		} else {
			reply = d.Serve(&req)
		}
		if !reply.OK() {
			t.Fatalf("message %d: %s", msg, reply.Err)
		}
		replies = append(replies, reply)
		if reply.Done {
			return replies
		}
		req = fsdp.Request{Kind: first.Kind.Next(), Tx: first.Tx, File: first.File, SCB: reply.SCB,
			Range: req.Range.Continue(reply.LastKey), RowLimit: first.RowLimit}
	}
}

// TestReadsAgainUnderTheGroupLock: an in-transaction read conversation
// whose group lock waits for another transaction reads its message again
// under the lock, and what it replies is what it would have replied had
// the other transaction never run. T2 raises record 250's BAL and deletes
// record 270, uncommitted; T1's second message scans both, folds or ships
// what it sees, and waits for T2 at its group lock; T2 rolls back.
//
// AGG: the second message's fold is undone — into groups the first
// message created, and the groups it created itself — and done again, so
// every entry of the conversation is byte for byte a quiet conversation's.
// GET with a row limit: the first read met the limit at record 503 only
// because record 250 qualified; read again it does not, so the
// conversation goes on past 503 instead of ending one row short.
func TestReadsAgainUnderTheGroupLock(t *testing.T) {
	t.Run("AGG", func(t *testing.T) {
		d := rereadRig(t)
		first := fsdp.Request{Kind: fsdp.KAggFirst, File: "ACCT", Range: keys.All(), Agg: acctByGroup, RowLimit: 200}
		quiet := converse(t, d, first, 0, nil)
		first.Tx = tmf.NewTxID()
		contended := converse(t, d, first, 1, func(req *fsdp.Request) *fsdp.Reply {
			return t2RollsBack(t, d, req)
		})
		if len(contended) != len(quiet) {
			t.Fatalf("%d messages contended, %d quiet", len(contended), len(quiet))
		}
		for i := range quiet {
			if !slices.EqualFunc(contended[i].Rows, quiet[i].Rows, bytes.Equal) || contended[i].Examined != quiet[i].Examined {
				t.Errorf("message %d: %d entries of %d examined, quiet %d of %d, or they differ", i,
					len(contended[i].Rows), contended[i].Examined, len(quiet[i].Rows), quiet[i].Examined)
			}
		}
		commitTx(t, d, first.Tx)
	})
	t.Run("GET with a row limit", func(t *testing.T) {
		d := rereadRig(t)
		first := fsdp.Request{Kind: fsdp.KGetFirstVSBB, Tx: tmf.NewTxID(), File: "ACCT", Range: keys.Range{Low: key1(200)}, Proj: []int{0},
			Pred: expr.Encode(expr.Bin(expr.OpGE, expr.F(2, "BAL"), expr.CFloat(500))), ScanLimit: 5}
		var got [][]byte
		for _, reply := range converse(t, d, first, 0, func(req *fsdp.Request) *fsdp.Reply { return t2RollsBack(t, d, req) }) {
			got = append(got, reply.RowKeys...)
		}
		want := [][]byte{key1(500), key1(501), key1(502), key1(503), key1(504)}
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Errorf("returned keys %x, want %x", got, want)
		}
		commitTx(t, d, first.Tx)
	})
}

// t2RollsBack serves req while another transaction holds record 250
// raised to a BAL of 1e6 and record 270 deleted, and rolls that
// transaction back once req waits for it.
func t2RollsBack(t *testing.T, d *DP, req *fsdp.Request) *fsdp.Reply {
	t.Helper()
	t2 := tmf.NewTxID()
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: t2, File: "ACCT", Key: key1(250),
		Row: record.Encode(record.Row{record.Int(250), record.Int(103), record.Float(1e6), record.String("")})})
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: t2, File: "ACCT", Key: key1(270)})
	done := waitingServe(t, d, req)
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: t2})
	return <-done
}

// TestAbortedTransactionIsNotJoinedAgain: a transaction aborts while its
// ^NEXT is in service, waiting at its group lock for another transaction.
// Once that lock is granted the message must not join the finished
// transaction again: it fails, and afterwards the Disk Process holds no
// transaction, no Subset Control Block and no lock.
func TestAbortedTransactionIsNotJoinedAgain(t *testing.T) {
	for _, kind := range []fsdp.Kind{fsdp.KCountFirst, fsdp.KAggFirst, fsdp.KGetFirstVSBB} {
		t.Run(kind.String(), func(t *testing.T) {
			d := rereadRig(t)
			t1, t2 := tmf.NewTxID(), tmf.NewTxID()
			first := fsdp.Request{Kind: kind, Tx: t1, File: "ACCT", Range: keys.All(), RowLimit: 200}
			if kind == fsdp.KAggFirst {
				first.Agg = acctByGroup
			}
			reply := serveOK(t, d, &first)
			if reply.Done {
				t.Fatal("^FIRST read the whole file")
			}
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: t2, File: "ACCT", Key: key1(250),
				Row: record.Encode(record.Row{record.Int(250), record.Int(103), record.Float(1e6), record.String("")})})
			next := fsdp.Request{Kind: kind.Next(), Tx: t1, File: "ACCT", SCB: reply.SCB,
				Range: first.Range.Continue(reply.LastKey), RowLimit: 200}
			done := waitingServe(t, d, &next)
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: t1})
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KCommit, Tx: t2})
			if reply := <-done; reply.OK() {
				t.Errorf("the ^NEXT of an aborted transaction replied %+v", reply)
			}
			if open := d.OpenState(); open.Txns != 0 || open.SCBs != 0 {
				t.Errorf("after the abort: %d transactions, %d subset control blocks", open.Txns, open.SCBs)
			}
			if n := d.Locks().Held(); n != 0 {
				t.Errorf("after the abort: %d locks held", n)
			}
		})
	}
}

// TestAbortedSubsetWriteIsNotJoinedAgain: an UPDATE^SUBSET that waits for
// a record lock while its own transaction aborts does not, once the lock
// is granted, write under the ended transaction. It fails, no write lands,
// and the Disk Process holds no transaction state and no lock afterwards.
func TestAbortedSubsetWriteIsNotJoinedAgain(t *testing.T) {
	d := rereadRig(t)
	t1, t2 := tmf.NewTxID(), tmf.NewTxID()
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: t2, File: "ACCT", Key: key1(250),
		Row: record.Encode(record.Row{record.Int(250), record.Int(103), record.Float(1e6), record.String("")})})
	update := fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: t1, File: "ACCT",
		Range:  keys.Range{Low: key1(240), High: key1(260)},
		Assign: expr.EncodeAssignments([]expr.Assignment{{Field: 2, E: expr.CFloat(-1)}})}
	done := waitingServe(t, d, &update)
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: t1})
	serveOK(t, d, &fsdp.Request{Kind: fsdp.KCommit, Tx: t2})
	if reply := <-done; reply.OK() {
		t.Errorf("the UPDATE^SUBSET of an aborted transaction replied %+v", reply)
	}
	for id := int64(240); id < 260; id++ {
		reply := serveOK(t, d, &fsdp.Request{Kind: fsdp.KReadRecord, File: "ACCT", Key: key1(id)})
		row, err := record.Decode(reply.Rows[0])
		if err != nil {
			t.Fatal(err)
		}
		want := float64(id)
		if id == 250 {
			want = 1e6
		}
		if row[2].F != want {
			t.Errorf("record %d: BAL %v after the abort, want %v", id, row[2].F, want)
		}
	}
	if open := d.OpenState(); open.Txns != 0 || open.SCBs != 0 {
		t.Errorf("after the abort: %d transactions, %d subset control blocks", open.Txns, open.SCBs)
	}
	if n := d.Locks().Held(); n != 0 {
		t.Errorf("after the abort: %d locks held", n)
	}
}

// TestNoKindJoinsAnAbortedTransaction: a message of any kind that carries a
// transaction, waiting for a lock while its own transaction aborts, does
// not join the transaction again once the lock is granted. T2 holds record
// 250 raised to a BAL of 1e6 (deleted, for the inserts); T1's message on
// it waits; ABORT T1; COMMIT T2. The message fails, what it names is as
// committed — T2's record 250, and what a block changed before it waited
// taken back — and the Disk Process holds nothing afterwards.
func TestNoKindJoinsAnAbortedTransaction(t *testing.T) {
	acct := func(id int64, bal float64) []byte {
		return record.Encode(record.Row{record.Int(id), record.Int(id % 100), record.Float(bal), record.String("")})
	}
	minusOne := expr.EncodeAssignments([]expr.Assignment{{Field: 2, E: expr.CFloat(-1)}})
	cases := []struct {
		name      string
		t2Deletes bool // T2 deletes record 250 instead of raising it
		req       fsdp.Request
	}{
		{"READ", false, fsdp.Request{Kind: fsdp.KReadRecord, Key: key1(250)}},
		{"LOCKRECORD", false, fsdp.Request{Kind: fsdp.KLockRecord, Key: key1(250)}},
		{"LOCKRANGE", false, fsdp.Request{Kind: fsdp.KLockRange, Range: keys.Range{Low: key1(240), High: key1(260)}}},
		{"LOCKFILE", false, fsdp.Request{Kind: fsdp.KLockFile}},
		{"REWRITE", false, fsdp.Request{Kind: fsdp.KUpdateRecord, Key: key1(250), Row: acct(250, -1)}},
		{"UPDATE^KEY", false, fsdp.Request{Kind: fsdp.KUpdateKey, Key: key1(250), Assign: minusOne}},
		{"DELETE", false, fsdp.Request{Kind: fsdp.KDeleteRecord, Key: key1(250)}},
		{"DELETE^KEY", false, fsdp.Request{Kind: fsdp.KDeleteKey, Key: key1(250)}},
		{"INSERT", true, fsdp.Request{Kind: fsdp.KInsertRecord, Row: acct(250, -1)}},
		{"INSERT^BLOCK", true, fsdp.Request{Kind: fsdp.KInsertBlock, Rows: [][]byte{acct(1000, -1), acct(250, -1)}}},
		{"UPDATE^BLOCK", false, fsdp.Request{Kind: fsdp.KUpdateBlock,
			RowKeys: [][]byte{key1(249), key1(250)}, Rows: [][]byte{acct(249, -1), acct(250, -1)}}},
		{"DELETE^BLOCK", false, fsdp.Request{Kind: fsdp.KDeleteBlock, RowKeys: [][]byte{key1(249), key1(250)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := rereadRig(t)
			t1, t2 := tmf.NewTxID(), tmf.NewTxID()
			if c.t2Deletes {
				serveOK(t, d, &fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: t2, File: "ACCT", Key: key1(250)})
			} else {
				serveOK(t, d, &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: t2, File: "ACCT", Key: key1(250), Row: acct(250, 1e6)})
			}
			req := c.req
			req.Tx, req.File = t1, "ACCT"
			done := waitingServe(t, d, &req)
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: t1})
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KCommit, Tx: t2})
			if reply := <-done; reply.OK() {
				t.Errorf("the %s of an aborted transaction replied %+v", c.name, reply)
			}
			for _, want := range []struct {
				id    int64
				there bool
				bal   float64
			}{{250, !c.t2Deletes, 1e6}, {249, true, 249}, {1000, false, 0}} {
				bal, there := acctBal(t, d, want.id)
				if there != want.there || (there && bal != want.bal) {
					t.Errorf("record %d: present %v, BAL %v; want present %v, BAL %v", want.id, there, bal, want.there, want.bal)
				}
			}
			if open := d.OpenState(); open.Txns != 0 || open.Locks != 0 || open.SCBs != 0 {
				t.Errorf("after the abort the Disk Process holds %+v", open)
			}
		})
	}
}

// TestAbortBeforeUndoTakesTheWriteBack: a write whose change is in the tree
// while its transaction aborts, before its undo entry joins the undo chain
// (fault.DPBeforeUndo), is taken back and fails, and so is everything the
// transaction wrote before it, newest first: T1 has set records 249 and
// 250 to -1, and its REWRITE of 250 to -2 is held in that window while
// ABORT T1 is served. Afterwards both read as committed, the Disk Process
// holds nothing, and recovery from the trail agrees.
func TestAbortBeforeUndoTakesTheWriteBack(t *testing.T) {
	defer fault.Reset()
	r := newCrashRig(t)
	for i := int64(249); i <= 250; i++ {
		insertEmp(t, r.d, r.schema, 1, empRow(i, "e", float64(i)))
	}
	commitTx(t, r.d, 1)
	rewrite := func(tx uint64, id int64, salary float64) *fsdp.Request {
		return &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: tx, File: "EMP", Key: key1(id), Row: record.Encode(empRow(id, "e", salary))}
	}
	t1 := tmf.NewTxID()
	serveOK(t, r.d, rewrite(t1, 249, -1))
	serveOK(t, r.d, rewrite(t1, 250, -1))

	paused, release := make(chan struct{}), make(chan struct{})
	fault.Enable()
	fault.Arm(fault.DPBeforeUndo, 0, func() { close(paused); <-release })
	done := make(chan *fsdp.Reply, 1)
	go func() { done <- r.d.Serve(rewrite(t1, 250, -2)) }()
	select {
	case <-paused:
	case reply := <-done:
		t.Fatalf("the REWRITE did not reach its undo: %+v", reply)
	case <-time.After(5 * time.Second):
		t.Fatal("the REWRITE did not reach its undo in 5 s")
	}
	serveOK(t, r.d, &fsdp.Request{Kind: fsdp.KAbort, Tx: t1})
	close(release)
	if reply := <-done; reply.OK() {
		t.Errorf("the REWRITE of an aborted transaction replied %+v", reply)
	}
	fault.Reset()

	check := func(when string) {
		t.Helper()
		for _, id := range []int64{249, 250} {
			if row, ok := r.read(t, id); !ok || row[3].F != float64(id) {
				t.Errorf("%s: record %d is %v, want SALARY %d", when, id, row, id)
			}
		}
		if open := r.d.OpenState(); open != (Open{}) {
			t.Errorf("%s: the Disk Process holds %+v", when, open)
		}
	}
	check("after the abort")
	r.crashAndRecover(t)
	check("after recovery")
}

// acctBal reads one committed ACCT record's BAL; there is false when the
// key is not there.
func acctBal(t *testing.T, d *DP, id int64) (bal float64, there bool) {
	t.Helper()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "ACCT", Key: key1(id)})
	if reply.Code == fsdp.ErrNotFound {
		return 0, false
	}
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	row, err := record.Decode(reply.Rows[0])
	if err != nil {
		t.Fatal(err)
	}
	return row[2].F, true
}
