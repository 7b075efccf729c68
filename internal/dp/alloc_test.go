package dp

import (
	"runtime"
	"testing"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/tmf"
)

// oneMessageRig is a Disk Process holding 3000 EMP records — every
// HIRE_DATE the same, every EMPNO and NAME distinct — and 3000 ACCT
// records, whose INTEGER GRP cycles through 100 values, with the message
// budgets lifted out of the way, so one message serves them all.
func oneMessageRig(t testing.TB) *DP {
	d, _, _ := testDP(t, func(c *Config) {
		c.MaxRowsPerMsg, c.MaxReplyBytes = 1<<20, 1<<30
	})
	loadEmp(t, d, 3000)
	loadAcct(t, d, 3000, noNote)
	return d
}

func salaryPred(op expr.Op, v float64) []byte {
	return expr.Encode(expr.Bin(op, expr.F(3, "SALARY"), expr.CFloat(v)))
}

// countSumBy is COUNT(*), SUM(SALARY) GROUP BY one field.
func countSumBy(groupBy int) []byte {
	return fsdp.EncodeAggSpec(&fsdp.AggSpec{GroupBy: []int{groupBy},
		Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 3}}})
}

// acctByGroup is ACCT's COUNT(*), SUM(BAL) GROUP BY GRP: an INTEGER key
// with 100 values, the int path of the group probe.
var acctByGroup = fsdp.EncodeAggSpec(countSum)

// TestAllocationCeilings pins what reading the record where it lies
// bought, one layer above btree's test of the same name: the Disk
// Process examines, filters, counts and aggregates a record without
// allocating, and what a message does allocate — its virtual block, its
// group arenas — grows with the message, not with the row. Each case
// serves the same request over 1000 and over 3000 records in ONE message
// (the budgets are lifted out of the way) and looks at the difference:
// the per-message constant cancels, and what is left is the cost of 2000
// more records. The re-drive case puts those records in a conversation's
// SECOND message, after a 100-record ^FIRST opened the group: the groups
// are the conversation's, so meeting one again costs nothing there
// either. A regression here is a decode, a boxed value or a per-row
// buffer that crept back under the subset skeleton.
// The last ceiling is the compiled predicate's (compilingCostsAConstantAtFirst).
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := oneMessageRig(t)
	ceilings := []struct {
		name string
		req  fsdp.Request // over EMP unless it names a file
		// extra is the ceiling on allocations for 2000 more records in the
		// message: 0 where the record costs nothing, a few doublings of a
		// buffer where the reply grows with it unreserved.
		extra float64
		check func(*fsdp.Reply) bool
	}{
		{"filtered scan, no record qualifies (string predicate)",
			fsdp.Request{Kind: fsdp.KGetFirstVSBB, Proj: []int{0}, Pred: expr.Encode(expr.Bin(expr.OpLike, expr.F(1, "NAME"), expr.CString("%x")))},
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 0 }},
		{"COUNT^FIRST, every record qualifies",
			fsdp.Request{Kind: fsdp.KCountFirst, Pred: salaryPred(expr.OpGE, 0)},
			0, func(r *fsdp.Reply) bool { return r.Count == r.Examined }},
		{"AGG^FIRST COUNT(*), SUM into a group the message already has",
			fsdp.Request{Kind: fsdp.KAggFirst, Pred: salaryPred(expr.OpGE, 0), Agg: countSumBy(2)},
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 1 }},
		{"AGG re-drive into groups the conversation already has",
			fsdp.Request{Kind: fsdp.KAggFirst, Pred: salaryPred(expr.OpGE, 0), Agg: countSumBy(2), RowLimit: 100}, // ^FIRST takes 100, its ^NEXT the rest
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 1 }},
		{"AGG^FIRST GROUP BY an INTEGER into 100 groups the message already has",
			fsdp.Request{Kind: fsdp.KAggFirst, File: "ACCT", Agg: acctByGroup},
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 100 }},
		// The virtual block and the reply's row and key lists are reserved
		// once, at the second row, for every row the message can carry.
		{"GET^FIRST^VSBB with a projection, every record returned",
			fsdp.Request{Kind: fsdp.KGetFirstVSBB, Proj: []int{1, 3}, Pred: salaryPred(expr.OpGE, 0)},
			0, func(r *fsdp.Reply) bool { return uint32(len(r.Rows)) == r.Examined }},
		{"AGG^FIRST, every record a new group",
			fsdp.Request{Kind: fsdp.KAggFirst, Agg: countSumBy(0)},
			16, func(r *fsdp.Reply) bool { return uint32(len(r.Rows)) == r.Examined }},
	}
	for _, c := range ceilings {
		allocs := func(records int64) float64 {
			req := c.req
			if req.File == "" {
				req.File = "EMP"
			}
			req.Range = keys.Range{High: key1(records)}
			serve := func() {
				req, records := req, records
				if req.RowLimit > 0 {
					first := d.Serve(&req)
					if !first.OK() || first.Done || len(first.Rows) != 0 || first.Examined != req.RowLimit {
						t.Fatalf("%s: ^FIRST %+v", c.name, first)
					}
					req = fsdp.Request{Kind: req.Kind.Next(), File: req.File, SCB: first.SCB, Range: req.Range.Continue(first.LastKey)}
					records -= int64(first.Examined)
				}
				reply := d.Serve(&req)
				if !reply.OK() || !reply.Done || int64(reply.Examined) != records || !c.check(reply) {
					t.Fatalf("%s over %d records: %+v", c.name, records, reply)
				}
			}
			serve() // warm: the leaves' offset tables
			return testing.AllocsPerRun(10, serve)
		}
		small, large := allocs(1000), allocs(3000)
		t.Logf("%s: %.0f allocations for 1000 records, %.0f for 3000", c.name, small, large)
		if large-small > c.extra {
			t.Errorf("%s: %.0f allocations for 1000 records, %.0f for 3000: 2000 more records cost %.0f, ceiling %.0f",
				c.name, small, large, large-small, c.extra)
		}
	}
	compilingCostsAConstantAtFirst(t, d)
	probesCostTheMessage(t, d)
	oneRowCostsOneRow(t, d)
	aReadCostsNothing(t, d)
	aKeyedUpdateCostsItsImages(t, d)
}

// aKeyedUpdateCostsItsImages is TestAllocationCeilings' ceiling on one
// served UPDATE^KEY — SET SALARY = SALARY + 1 on a record by its key,
// under a transaction, through the Handler into a reused reply buffer.
// The request is decoded into a pooled slot, its SET list into the slot's
// SetList, and the record is found, judged, transformed, audited and
// rewritten in one look at its leaf, its rows, images and audit record
// made in the slot's write. What is left is what the transaction keeps:
// the key's lock, a grant and its copy of the key — a finished
// transaction's grants are reused, but all 300 updates here are one
// transaction's — while its undo chain, the chain's copies of keys and
// images and the lock table's lists grow by doubling: 2. It
// measured 27 while the Disk Process read the record before it rewrote it
// and copied the request whole, and 14 while it decoded the SET list into
// a tree and allocated each change's rows, images and audit record.
func aKeyedUpdateCostsItsImages(t *testing.T, d *DP) {
	set := expr.EncodeAssignments([]expr.Assignment{{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CFloat(1))}})
	tx := tmf.NewTxID()
	reqs := make([][]byte, 300)
	for i := range reqs {
		reqs[i] = fsdp.EncodeRequest(&fsdp.Request{Kind: fsdp.KUpdateKey, Tx: tx, File: "EMP", Key: key1(int64(i)), Assign: set})
	}
	var out []byte
	var reply fsdp.Reply
	next := 0
	update := func() {
		out = d.Handler(reqs[next], out[:0])
		next++
		if err := fsdp.DecodeReplyInto(&reply, out); err != nil || !reply.OK() || reply.Count != 1 {
			t.Fatalf("UPDATE^KEY: %+v, %v", reply, err)
		}
	}
	update()
	got := testing.AllocsPerRun(200, update)
	commitTx(t, d, tx)
	t.Logf("UPDATE^KEY through the Handler: %.0f allocations", got)
	const ceiling = 2
	if got > ceiling {
		t.Errorf("an UPDATE^KEY through the Handler into a reused buffer allocates %.1f objects, ceiling %d", got, ceiling)
	}
}

// aReadCostsNothing is TestAllocationCeilings' ceiling on the served READ:
// the Handler decodes it into a pooled service slot, copies the record
// from the leaf into the slot and appends the reply to the sender's
// buffer — which the sender reuses — so a READ allocates nothing, browse
// or under a transaction (whose lock holds a copy of the key: that one
// allocation is the lock's, not the message's, and is not measured here).
func aReadCostsNothing(t *testing.T, d *DP) {
	req := fsdp.EncodeRequest(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(1234)})
	var out []byte
	var reply fsdp.Reply
	read := func() {
		out = d.Handler(req, out[:0])
		if err := fsdp.DecodeReplyInto(&reply, out); err != nil || !reply.OK() || len(reply.Rows) != 1 {
			t.Fatalf("READ: %+v, %v", reply, err)
		}
	}
	read()
	if got := testing.AllocsPerRun(200, read); got > 0 {
		t.Errorf("a READ through the Handler into a reused buffer allocates %.1f objects, ceiling 0", got)
	}
}

// oneRowCostsOneRow is TestAllocationCeilings' ceiling in bytes on a
// GET^VSBB message that returns a single row out of 1000 records — a
// selective range, a lookup through an index: the row and its place in
// the reply, within a few hundred bytes of the same message returning
// nothing, and not a block reserved for every row the budgets allow (the
// rig's lifted budgets would allow 4096).
func oneRowCostsOneRow(t *testing.T, d *DP) {
	perMessage := func(empno int64) float64 {
		pred := expr.Encode(expr.Bin(expr.OpEQ, expr.F(0, "EMPNO"), expr.CInt(empno)))
		serve := func() {
			req := fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP", Pred: pred, Range: keys.Range{High: key1(1000)}}
			reply := d.Serve(&req)
			if !reply.OK() || !reply.Done || reply.Examined != 1000 || len(reply.Rows) != int(min(empno+1, 1)) {
				t.Fatalf("EMPNO = %d: %+v", empno, reply)
			}
		}
		serve()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	one, none := perMessage(500), perMessage(-1)
	t.Logf("GET^VSBB over 1000 records: %.0f bytes returning one row, %.0f returning none", one, none)
	if one-none > 512 {
		t.Errorf("GET^VSBB over 1000 records: %.0f bytes returning one row, %.0f returning none: the row costs %.0f, ceiling 512", one, none, one-none)
	}
}

// probesCostTheMessage is TestAllocationCeilings' ceiling for batched
// index-join probes: a PROBE^BLOCK message copies every matched key and
// record into one block it cuts the reply out of, walks a lone record into
// scratch the scan pools, and bounds each probe's range in scratch of its
// own, so 200 more probes cost a few doublings of the message's buffers,
// not an allocation or three per probe.
func probesCostTheMessage(t *testing.T, d *DP) {
	allocs := func(probes int) float64 {
		req := fsdp.Request{Kind: fsdp.KProbeBlock, File: "EMP"}
		for i := 0; i < probes; i++ {
			req.RowKeys = append(req.RowKeys, key1(int64(7*i)))
		}
		serve := func() {
			if reply := d.Serve(&req); !reply.OK() || !reply.Done || len(reply.Rows) != probes || int(reply.Count) != probes {
				t.Fatalf("PROBE^BLOCK of %d keys: %+v", probes, reply)
			}
		}
		serve()
		return testing.AllocsPerRun(10, serve)
	}
	small, large := allocs(100), allocs(300)
	t.Logf("PROBE^BLOCK: %.0f allocations for 100 probes, %.0f for 300", small, large)
	if large-small > 12 {
		t.Errorf("PROBE^BLOCK: %.0f allocations for 100 probes, %.0f for 300: 200 more probes cost %.0f, ceiling 12", small, large, large-small)
	}
}

// compilingCostsAConstantAtFirst is TestAllocationCeilings' last ceiling:
// the predicate is decoded and compiled into the Subset Control Block's
// program when ^FIRST opens it, and that is all it ever costs in
// allocations — the same few whether ^FIRST goes on to examine 100 records
// or 1000, and nothing at all on a ^NEXT, which allocates exactly what a
// ^NEXT of a conversation with no predicate does.
func compilingCostsAConstantAtFirst(t *testing.T, d *DP) {
	// conversation is COUNT^FIRST over `first` records and then, when next
	// is set, a COUNT^NEXT over 100 more; otherwise the SCB is closed.
	conversation := func(pred []byte, first uint32, next bool) float64 {
		serve := func() {
			req := fsdp.Request{Kind: fsdp.KCountFirst, File: "EMP", Pred: pred, Range: keys.Range{High: key1(int64(first) + 100)}, RowLimit: first}
			reply := d.Serve(&req)
			if !reply.OK() || reply.Done || reply.Examined != first || reply.Count != first {
				t.Fatalf("^FIRST %+v", reply)
			}
			rest := req.Range.Continue(reply.LastKey)
			req = fsdp.Request{Kind: fsdp.KCloseSubset, File: "EMP", SCB: reply.SCB}
			if next {
				req = fsdp.Request{Kind: fsdp.KCountNext, File: "EMP", SCB: reply.SCB, Range: rest}
			}
			if reply = d.Serve(&req); !reply.OK() || (next && (!reply.Done || reply.Examined != 100 || reply.Count != 100)) {
				t.Fatalf("then %+v", reply)
			}
		}
		serve()
		return testing.AllocsPerRun(10, serve)
	}
	pred := expr.Encode(expr.And(expr.Bin(expr.OpGE, expr.F(3, "SALARY"), expr.CFloat(0)),
		expr.And(expr.Bin(expr.OpNE, expr.F(1, "NAME"), expr.CString("nobody")), expr.Bin(expr.OpLike, expr.F(2, "HIRE_DATE"), expr.CString("19%")))))
	compile100 := conversation(pred, 100, false) - conversation(nil, 100, false)
	compile1000 := conversation(pred, 1000, false) - conversation(nil, 1000, false)
	t.Logf("decoding and compiling a three-conjunct predicate at ^FIRST: %.0f allocations", compile100)
	if compile100 != compile1000 || compile100 <= 0 || compile100 > 24 {
		t.Errorf("the predicate costs ^FIRST %.0f allocations over 100 records and %.0f over 1000: want one small constant", compile100, compile1000)
	}
	with := conversation(pred, 100, true) - conversation(pred, 100, false)
	without := conversation(nil, 100, true) - conversation(nil, 100, false)
	if with != without {
		t.Errorf("a 100-record ^NEXT costs %.0f allocations more than CLOSE^SUBSET with a predicate, %.0f without: the program is not free to run", with, without)
	}
}

// BenchmarkSubsetRecord is the per-record cost of the subset skeleton, by
// what is asked of the record: one 3000-record message per iteration, the
// message's constant included and amortised, reported as ns/record.
func BenchmarkSubsetRecord(b *testing.B) {
	d := oneMessageRig(b)
	const records = 3000
	cases := []struct {
		name string
		req  fsdp.Request
	}{
		{"filter-int", fsdp.Request{Kind: fsdp.KCountFirst,
			Pred: expr.Encode(expr.Bin(expr.OpLT, expr.F(0, "EMPNO"), expr.CInt(records/10)))}},
		{"filter-string", fsdp.Request{Kind: fsdp.KCountFirst,
			Pred: expr.Encode(expr.Bin(expr.OpLT, expr.F(1, "NAME"), expr.CString("emp-00300")))}},
		{"agg-existing-group", fsdp.Request{Kind: fsdp.KAggFirst, Pred: salaryPred(expr.OpGE, 0), Agg: countSumBy(2)}},
		{"agg-new-group", fsdp.Request{Kind: fsdp.KAggFirst, Agg: countSumBy(0)}},
		{"agg-int-groups", fsdp.Request{Kind: fsdp.KAggFirst, File: "ACCT", Agg: acctByGroup}},
		{"project", fsdp.Request{Kind: fsdp.KGetFirstVSBB, Proj: []int{1, 3}, Pred: salaryPred(expr.OpGE, 0)}},
		// The benchmark's scan-agg detail statement at the Disk Process: an
		// INTEGER < conjunct keeping one record in ten, two fields shipped.
		{"detail", fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "ACCT", Proj: []int{0, 2},
			Pred: expr.Encode(expr.Bin(expr.OpLT, expr.F(1, "GRP"), expr.CInt(10)))}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			req := c.req
			if req.File == "" {
				req.File = "EMP"
			}
			req.Range = keys.Range{High: key1(records)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := req
				if reply := d.Serve(&req); !reply.OK() || !reply.Done || reply.Examined != records {
					b.Fatalf("%+v", reply)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
		})
	}
}
