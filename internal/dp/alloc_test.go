package dp

import (
	"testing"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
)

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
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d, _, _ := testDP(t, func(c *Config) {
		c.MaxRowsPerMsg, c.MaxReplyBytes = 1<<20, 1<<30
	})
	loadEmp(t, d, 3000) // every HIRE_DATE the same, every EMPNO and NAME distinct
	salary := func(op expr.Op, v float64) []byte {
		return expr.Encode(expr.Bin(op, expr.F(3, "SALARY"), expr.CFloat(v)))
	}
	agg := func(groupBy int) []byte {
		return fsdp.EncodeAggSpec(&fsdp.AggSpec{GroupBy: []int{groupBy},
			Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 3}}})
	}
	ceilings := []struct {
		name string
		req  fsdp.Request
		// extra is the ceiling on allocations for 2000 more records in the
		// message: 0 where the record costs nothing, a few doublings of a
		// buffer where the reply grows with it.
		extra float64
		check func(*fsdp.Reply) bool
	}{
		{"filtered scan, no record qualifies (string predicate)",
			fsdp.Request{Kind: fsdp.KGetFirstVSBB, Proj: []int{0}, Pred: expr.Encode(expr.Bin(expr.OpLike, expr.F(1, "NAME"), expr.CString("%x")))},
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 0 }},
		{"COUNT^FIRST, every record qualifies",
			fsdp.Request{Kind: fsdp.KCountFirst, Pred: salary(expr.OpGE, 0)},
			0, func(r *fsdp.Reply) bool { return r.Count == r.Examined }},
		{"AGG^FIRST COUNT(*), SUM into a group the message already has",
			fsdp.Request{Kind: fsdp.KAggFirst, Pred: salary(expr.OpGE, 0), Agg: agg(2)},
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 1 }},
		{"AGG re-drive into groups the conversation already has",
			fsdp.Request{Kind: fsdp.KAggFirst, Pred: salary(expr.OpGE, 0), Agg: agg(2), RowLimit: 100}, // ^FIRST takes 100, its ^NEXT the rest
			0, func(r *fsdp.Reply) bool { return len(r.Rows) == 1 }},
		{"GET^FIRST^VSBB with a projection, every record returned",
			fsdp.Request{Kind: fsdp.KGetFirstVSBB, Proj: []int{1, 3}, Pred: salary(expr.OpGE, 0)},
			16, func(r *fsdp.Reply) bool { return uint32(len(r.Rows)) == r.Examined }},
		{"AGG^FIRST, every record a new group",
			fsdp.Request{Kind: fsdp.KAggFirst, Agg: agg(0)},
			16, func(r *fsdp.Reply) bool { return uint32(len(r.Rows)) == r.Examined }},
	}
	for _, c := range ceilings {
		allocs := func(records int64) float64 {
			req := c.req
			req.File, req.Range = "EMP", keys.Range{High: key1(records)}
			serve := func() {
				req, records := req, records
				if req.RowLimit > 0 {
					first := d.Serve(&req)
					if !first.OK() || first.Done || len(first.Rows) != 0 || first.Examined != req.RowLimit {
						t.Fatalf("%s: ^FIRST %+v", c.name, first)
					}
					req = fsdp.Request{Kind: req.Kind.Next(), File: "EMP", SCB: first.SCB, Range: req.Range.Continue(first.LastKey)}
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
}
