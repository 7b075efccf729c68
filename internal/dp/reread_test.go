package dp

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"nonstopsql/internal/expr"
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
			if txns, scbs := d.OpenState(); txns != 0 || scbs != 0 {
				t.Errorf("after the abort: %d transactions, %d subset control blocks", txns, scbs)
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
	if txns, scbs := d.OpenState(); txns != 0 || scbs != 0 {
		t.Errorf("after the abort: %d transactions, %d subset control blocks", txns, scbs)
	}
	if n := d.Locks().Held(); n != 0 {
		t.Errorf("after the abort: %d locks held", n)
	}
}
