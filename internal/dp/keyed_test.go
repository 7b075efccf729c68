package dp

import (
	"testing"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// waitingServe serves req on its own goroutine and returns once the
// request has queued behind a lock; the channel delivers its reply.
func waitingServe(t *testing.T, d *DP, req *fsdp.Request) <-chan *fsdp.Reply {
	t.Helper()
	w0 := d.Locks().Stats().Waits
	done := make(chan *fsdp.Reply, 1)
	go func() { done <- d.Serve(req) }()
	for deadline := time.Now().Add(5 * time.Second); d.Locks().Stats().Waits == w0; time.Sleep(time.Millisecond) {
		select {
		case reply := <-done:
			t.Fatalf("%s did not wait for a lock: %+v", req.Kind, reply)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s queued no lock wait in 5 s", req.Kind)
		}
	}
	return done
}

func serveOK(t *testing.T, d *DP, req *fsdp.Request) *fsdp.Reply {
	t.Helper()
	reply := d.Serve(req)
	if !reply.OK() {
		t.Fatalf("%s: %s", req.Kind, reply.Err)
	}
	return reply
}

// salaryOf reads one committed record's SALARY; ok is false when the key
// is not there.
func salaryOf(t *testing.T, d *DP, empno int64) (salary float64, ok bool) {
	t.Helper()
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(empno)})
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
	return row[3].F, true
}

// lessSalary is SET SALARY = SALARY - v.
func lessSalary(v float64) []byte {
	return expr.EncodeAssignments([]expr.Assignment{{Field: 3, E: expr.Bin(expr.OpSub, expr.F(3, "SALARY"), expr.CFloat(v))}})
}

// TestSubsetWritesRecheckUnderLock: UPDATE^SUBSET and DELETE^SUBSET choose
// their records by the predicate during the scan, which reads without a
// lock, and used to lock and write each chosen key without looking again.
// T2 holds emp 3 raised to 9000 and a new emp 100, both uncommitted; T1's
// subset write WHERE SALARY >= 8500 over the whole file waits on emp 3;
// T2 rolls back. Only emp 50 (committed at 8600) ever qualified: T1 writes
// it and nothing else. T1 used to set emp 3 to -5500 (delete it), and
// then fail on emp 100 with "record not found".
func TestSubsetWritesRecheckUnderLock(t *testing.T) {
	for _, c := range []struct {
		name  string
		req   fsdp.Request
		emp50 float64 // its salary afterwards; 0 = deleted
	}{
		{"UPDATE^SUBSET", fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Assign: lessSalary(8500)}, 100},
		{"DELETE^SUBSET", fsdp.Request{Kind: fsdp.KDeleteSubsetFirst}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, _, _ := testDP(t, func(c *Config) { c.LockTimeout = 30 * time.Second })
			s := loadEmp(t, d, 5) // salaries 0..4000
			t0 := tmf.NewTxID()
			insertEmp(t, d, s, t0, empRow(50, "fifty", 8600))
			commitTx(t, d, t0)

			t2 := tmf.NewTxID()
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: t2, File: "EMP", Key: key1(3), Row: record.Encode(empRow(3, "emp-00003", 9000))})
			insertEmp(t, d, s, t2, empRow(100, "hundred", 9999))

			t1 := tmf.NewTxID()
			req := c.req
			req.Tx, req.File, req.Range, req.Pred = t1, "EMP", keys.All(), salaryPred(expr.OpGE, 8500)
			done := waitingServe(t, d, &req)
			serveOK(t, d, &fsdp.Request{Kind: fsdp.KAbort, Tx: t2})
			reply := <-done
			if !reply.OK() || !reply.Done || reply.Count != 1 {
				t.Fatalf("T1's %s after T2's rollback: %+v (want one record written)", c.name, reply)
			}
			commitTx(t, d, t1)

			if got, ok := salaryOf(t, d, 3); !ok || got != 3000 {
				t.Errorf("emp 3 reads %v (there: %v); no committed version of it qualified, so it keeps 3000", got, ok)
			}
			if _, ok := salaryOf(t, d, 100); ok {
				t.Error("emp 100, rolled back, is there")
			}
			got, ok := salaryOf(t, d, 50)
			if c.emp50 == 0 && ok || c.emp50 != 0 && got != c.emp50 {
				t.Errorf("emp 50 reads %v (there: %v), want %v (0 = deleted)", got, ok, c.emp50)
			}
		})
	}
}

// TestKeyedUpdateLocksBeforeItReads is the keyed twin: T2 holds emp 3
// raised to 9000; T1's UPDATE^KEY of emp 3 WHERE SALARY >= 8500 waits for
// the lock before it looks at the record, so once T2 rolls back it finds
// 3000 and updates nothing — and once T2 commits instead, it finds 9000.
func TestKeyedUpdateLocksBeforeItReads(t *testing.T) {
	for _, end := range []struct {
		kind  fsdp.Kind
		count uint32
		want  float64
	}{{fsdp.KAbort, 0, 3000}, {fsdp.KCommit, 1, 500}} {
		d, _, _ := testDP(t, func(c *Config) { c.LockTimeout = 30 * time.Second })
		loadEmp(t, d, 5)
		t2 := tmf.NewTxID()
		serveOK(t, d, &fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: t2, File: "EMP", Key: key1(3), Row: record.Encode(empRow(3, "emp-00003", 9000))})
		t1 := tmf.NewTxID()
		done := waitingServe(t, d, &fsdp.Request{Kind: fsdp.KUpdateKey, Tx: t1, File: "EMP", Key: key1(3),
			Pred: salaryPred(expr.OpGE, 8500), Assign: lessSalary(8500)})
		serveOK(t, d, &fsdp.Request{Kind: end.kind, Tx: t2})
		reply := <-done
		if !reply.OK() || reply.Count != end.count || reply.Examined != 1 {
			t.Fatalf("after T2's %s: %+v, want Count %d", end.kind, reply, end.count)
		}
		commitTx(t, d, t1)
		if got, _ := salaryOf(t, d, 3); got != end.want {
			t.Errorf("after T2's %s emp 3 reads %v, want %v", end.kind, got, end.want)
		}
	}
}

// TestKeyedWrite: UPDATE^KEY and DELETE^KEY against the one record of a
// key, outcome by outcome — what the reply says, what the file holds,
// what was audited and what stays locked — and that none of them opens a
// subset: no Subset Control Block, no set request, no re-drive.
func TestKeyedWrite(t *testing.T) {
	check := expr.Bin(expr.OpGE, expr.F(3, "SALARY"), expr.CInt(0))
	for _, c := range []struct {
		name       string
		req        fsdp.Request
		code       fsdp.ErrCode
		count      uint32
		salary     float64 // emp 3 afterwards; -1 = deleted
		auditTypes []wal.RecType
	}{
		{"update", fsdp.Request{Kind: fsdp.KUpdateKey, Key: key1(3), Assign: lessSalary(500)},
			fsdp.ErrNone, 1, 2500, []wal.RecType{wal.RecUpdate}},
		{"update, residual true", fsdp.Request{Kind: fsdp.KUpdateKey, Key: key1(3), Pred: salaryPred(expr.OpGT, 2000), Assign: lessSalary(500)},
			fsdp.ErrNone, 1, 2500, []wal.RecType{wal.RecUpdate}},
		{"update, residual false", fsdp.Request{Kind: fsdp.KUpdateKey, Key: key1(3), Pred: salaryPred(expr.OpGT, 5000), Assign: lessSalary(500)},
			fsdp.ErrNone, 0, 3000, nil},
		{"update, key not there", fsdp.Request{Kind: fsdp.KUpdateKey, Key: key1(77), Assign: lessSalary(500)},
			fsdp.ErrNone, 0, 3000, nil},
		{"update, CHECK violated", fsdp.Request{Kind: fsdp.KUpdateKey, Key: key1(3), Assign: lessSalary(5000)},
			fsdp.ErrConstraint, 0, 3000, nil},
		{"delete", fsdp.Request{Kind: fsdp.KDeleteKey, Key: key1(3)},
			fsdp.ErrNone, 1, -1, []wal.RecType{wal.RecDelete}},
		{"delete, residual false", fsdp.Request{Kind: fsdp.KDeleteKey, Key: key1(3), Pred: salaryPred(expr.OpLT, 0)},
			fsdp.ErrNone, 0, 3000, nil},
		{"delete, key not there", fsdp.Request{Kind: fsdp.KDeleteKey, Key: key1(77)},
			fsdp.ErrNone, 0, 3000, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			var audited []*wal.Record
			d, _, _ := testDP(t, func(c *Config) { c.Ship = func(rec *wal.Record) { r := *rec; audited = append(audited, &r) } })
			s := createEmp(t, d, check)
			t0 := tmf.NewTxID()
			for i := int64(0); i < 5; i++ {
				insertEmp(t, d, s, t0, empRow(i, "e", float64(1000*i)))
			}
			commitTx(t, d, t0)
			st0 := d.Stats()

			tx := tmf.NewTxID()
			req := c.req
			req.Tx, req.File = tx, "EMP"
			reply := d.Serve(&req)
			if reply.Code != c.code || reply.Count != c.count {
				t.Fatalf("reply %+v, want code %d count %d", reply, c.code, c.count)
			}
			// The key is locked whatever became of the record, until the
			// transaction ends.
			if held := d.Locks().Held(); held != 1 {
				t.Errorf("%d locks held after the request, want the key's", held)
			}
			if _, scbs := d.OpenState(); scbs != 0 {
				t.Errorf("%d Subset Control Blocks open", scbs)
			}
			if st := d.Stats(); st.SetRequests != st0.SetRequests || st.Redrives != st0.Redrives || st.Requests != st0.Requests+1 {
				t.Errorf("one keyed write counted %d requests, %d set requests, %d re-drives",
					st.Requests-st0.Requests, st.SetRequests-st0.SetRequests, st.Redrives-st0.Redrives)
			}
			commitTx(t, d, tx)

			got, ok := salaryOf(t, d, 3)
			if c.salary < 0 && ok || c.salary >= 0 && got != c.salary {
				t.Errorf("emp 3 reads %v (there: %v), want %v (-1 = deleted)", got, ok, c.salary)
			}
			var types []wal.RecType
			for _, rec := range audited {
				if rec.TxID == tx && rec.Type != wal.RecCommit {
					types = append(types, rec.Type)
				}
			}
			if len(types) != len(c.auditTypes) || len(types) == 1 && types[0] != c.auditTypes[0] {
				t.Errorf("audited %v, want %v", types, c.auditTypes)
			}
		})
	}

	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 5)
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateKey, File: "EMP", Key: key1(3), Assign: lessSalary(1)}); reply.Code != fsdp.ErrBadRequest {
		t.Errorf("UPDATE^KEY without a transaction: %+v", reply)
	}
}

// BenchmarkKeyedUpdate is one keyed write — SET SALARY = SALARY + 1 on one
// record by its key — as UPDATE^KEY and as the one-key UPDATE^SUBSET^FIRST
// it replaced, through the Disk Process's message handler: request decoded,
// served, reply encoded and decoded. UPDATE^KEY-param is the same write
// with a different increment each time, as SQL sends SET SALARY = SALARY
// + ? (the requester substitutes the parameter into the SET list), so no
// two messages carry the same SET bytes. Pre-fetch is on, as in a cluster
// that serves SQL. Each request gets a Disk Process of its own, and a
// transaction commits every 256 writes, off the clock.
func BenchmarkKeyedUpdate(b *testing.B) {
	const records = 3000
	raiseBy := func(n float64) []byte {
		return expr.EncodeAssignments([]expr.Assignment{{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CFloat(n))}})
	}
	raise := raiseBy(1)
	for _, c := range []struct {
		name string
		req  func(i int, key []byte) fsdp.Request
	}{
		{"UPDATE^KEY", func(_ int, key []byte) fsdp.Request {
			return fsdp.Request{Kind: fsdp.KUpdateKey, Key: key, Assign: raise}
		}},
		{"UPDATE^KEY-param", func(i int, key []byte) fsdp.Request {
			return fsdp.Request{Kind: fsdp.KUpdateKey, Key: key, Assign: raiseBy(float64(i%100000) + 0.5)}
		}},
		{"UPDATE^SUBSET-point", func(_ int, key []byte) fsdp.Request {
			return fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Range: keys.Point(key), Assign: raise}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, _, _ := testDP(b, func(c *Config) { c.Prefetch = true })
			loadEmp(b, d, records)
			b.ReportAllocs()
			b.ResetTimer()
			tx := tmf.NewTxID()
			for i := 0; i < b.N; i++ {
				if i%256 == 255 {
					b.StopTimer()
					commitTx(b, d, tx)
					tx = tmf.NewTxID()
					b.StartTimer()
				}
				req := c.req(i, key1(int64(i%records)))
				req.Tx, req.File = tx, "EMP"
				reply, err := fsdp.DecodeReply(d.Handler(fsdp.EncodeRequest(&req), nil))
				if err != nil || !reply.OK() || reply.Count != 1 {
					b.Fatalf("%+v %v", reply, err)
				}
			}
			b.StopTimer()
			commitTx(b, d, tx)
		})
	}
}
