package dp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// columnValue draws a field value for the column path's differential
// test: mostly small integers and floats that group and compare often,
// the numbers where INTEGER meets FLOAT — ±0, 2^53 and its neighbours,
// NaN, the infinities — NULL, and, at rate hostile, a VARCHAR or a
// BOOLEAN no column holds.
func columnValue(rng *rand.Rand, hostile float64) record.Value {
	if rng.Float64() < hostile {
		if rng.Intn(2) == 0 {
			return record.String(fmt.Sprint(rng.Intn(5)))
		}
		return record.Bool(rng.Intn(2) == 0)
	}
	switch rng.Intn(10) {
	case 0:
		return record.Null
	case 1:
		return record.Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 2.5}[rng.Intn(7)])
	case 2:
		return record.Int([]int64{1 << 53, 1<<53 + 1, -1 << 53, math.MaxInt64, math.MinInt64}[rng.Intn(5)])
	case 3, 4, 5:
		return record.Float(float64(rng.Intn(12)-4) / 2)
	}
	return record.Int(int64(rng.Intn(12) - 4))
}

// columnRig is a Disk Process with one file, MIX, of n records written
// straight into its tree, bypassing the schema: five fields each, drawn
// by columnValue, and at rate hostile fewer. Its budgets are small, so a conversation takes
// many messages and stops inside leaves.
func columnRig(t *testing.T, rng *rand.Rand, n int, hostile float64) *DP {
	d, _, _ := testDP(t, func(c *Config) { c.MaxRowsPerMsg, c.MaxReplyBytes = 20+rng.Intn(200), 200+rng.Intn(2000) })
	s := record.MustSchema("MIX", []record.Field{
		{Name: "ID", Type: record.TypeInt, NotNull: true},
		{Name: "A", Type: record.TypeInt}, {Name: "B", Type: record.TypeFloat},
		{Name: "C", Type: record.TypeInt}, {Name: "D", Type: record.TypeFloat},
	}, []int{0})
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "MIX", Schema: record.EncodeSchema(s)}); !reply.OK() {
		t.Fatal(reply.Err)
	}
	kvs := make([]btree.KV, n)
	for i := range kvs {
		row := make(record.Row, 5)
		if rng.Float64() < hostile {
			row = row[:1+rng.Intn(4)]
		}
		for f := range row {
			row[f] = columnValue(rng, hostile)
		}
		kvs[i] = btree.KV{Key: key1(int64(i)), Val: record.Encode(row)}
	}
	f, err := d.getFile("MIX")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.tree.BulkLoad(kvs, 0); err != nil {
		t.Fatal(err)
	}
	return d
}

// columnPredicate draws a predicate: an AND of one to three FIELD op
// number conjuncts (either operand order), the column path's shape, or
// now and then one it leaves to the row path.
func columnPredicate(rng *rand.Rand) expr.Expr {
	if rng.Intn(6) == 0 {
		return nil
	}
	var pred expr.Expr
	for range 1 + rng.Intn(3) {
		c := columnValue(rng, 0)
		if c.IsNull() {
			c = record.Int(1)
		}
		if rng.Intn(20) == 0 {
			c = record.String("2")
		}
		field := rng.Intn(5)
		if rng.Intn(40) == 0 {
			field = 5 // past every record
		}
		op := expr.OpEQ + expr.Op(rng.Intn(int(expr.OpGE-expr.OpEQ)+1))
		var conj expr.Expr = expr.Bin(op, expr.F(field, "F"), expr.C(c))
		if rng.Intn(2) == 0 {
			conj = expr.Bin(op, expr.C(c), expr.F(field, "F"))
		}
		if rng.Intn(25) == 0 {
			conj = expr.Unary{Op: expr.OpIsNull, E: expr.F(field, "F")}
		}
		if pred == nil {
			pred = conj
		} else {
			pred = expr.And(pred, conj)
		}
	}
	return pred
}

// columnRequest draws a ^FIRST: COUNT, GET^VSBB (projected or whole, with
// or without a row limit) or AGG (one INTEGER-or-whatever group key or
// two, or none; COUNT(*), COUNT, SUM, MIN, MAX of any field, an ordinal
// now and then past every record), over a random key range.
func columnRequest(rng *rand.Rand, n int) fsdp.Request {
	ordinal := func() int {
		switch rng.Intn(60) {
		case 0:
			return 0x7fffffff
		case 1:
			return 5 // past every record
		}
		return rng.Intn(5)
	}
	req := fsdp.Request{File: "MIX", RowLimit: uint32(rng.Intn(3) * rng.Intn(300))}
	if pred := columnPredicate(rng); pred != nil {
		req.Pred = expr.Encode(pred)
	}
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n/2)
	req.Range = keys.Range{Low: key1(int64(lo)), LowExcl: rng.Intn(2) == 0, High: key1(int64(hi)), HighIncl: rng.Intn(2) == 0}
	if rng.Intn(5) == 0 {
		req.Range = keys.All()
	}
	switch rng.Intn(3) {
	case 0:
		req.Kind = fsdp.KCountFirst
	case 1:
		req.Kind = fsdp.KGetFirstVSBB
		if rng.Intn(2) == 0 {
			req.Proj = []int{0, rng.Intn(5)}
		}
		if rng.Intn(3) == 0 {
			req.ScanLimit = uint32(1 + rng.Intn(50))
		}
	default:
		req.Kind = fsdp.KAggFirst
		spec := fsdp.AggSpec{GroupBy: []int{ordinal()}}
		switch rng.Intn(6) {
		case 0:
			spec.GroupBy = nil
		case 1:
			spec.GroupBy = append(spec.GroupBy, ordinal())
		}
		for range 1 + rng.Intn(4) {
			c := fsdp.AggCol{Fn: fsdp.AggFn(1 + rng.Intn(4)), Col: ordinal()}
			if c.Fn == fsdp.AggCount && rng.Intn(2) == 0 {
				c = fsdp.AggCol{Fn: fsdp.AggCount, Star: true}
			}
			spec.Cols = append(spec.Cols, c)
		}
		req.Agg = fsdp.EncodeAggSpec(&spec)
	}
	return req
}

// transcript drives a conversation from first to Done, or to its first
// failed message, through the Handler, and returns every reply's bytes —
// the Subset Control Block's number zeroed, the one thing two runs of a
// conversation may differ in — and the record counters it moved.
func transcript(t *testing.T, d *DP, first fsdp.Request) (replies [][]byte, counters [4]uint64) {
	t.Helper()
	before := d.Stats()
	req := first
	for range 10000 {
		b := d.Handler(fsdp.AppendRequest(nil, &req), nil)
		reply, err := fsdp.DecodeReply(b)
		if err != nil {
			t.Fatal(err)
		}
		scb := reply.SCB
		reply.SCB = 0
		replies = append(replies, fsdp.AppendReply(nil, reply))
		if !reply.OK() || reply.Done {
			after := d.Stats()
			return replies, [4]uint64{after.RowsScanned - before.RowsScanned, after.PredicateEvals - before.PredicateEvals,
				after.RowsFiltered - before.RowsFiltered, after.RowsReturned - before.RowsReturned}
		}
		req = fsdp.Request{Kind: first.Kind.Next(), File: first.File, SCB: scb,
			Range: req.Range.Continue(reply.LastKey), RowLimit: first.RowLimit}
	}
	t.Fatal("the conversation did not end")
	return nil, counters
}

// TestColumnPathMatchesRowPath is the column path's equivalence property:
// COUNT, GET^VSBB and AGG conversations over random records — NULL, NaN,
// ±0, INTEGER and FLOAT side by side, a VARCHAR or BOOLEAN in some
// records, short records, ordinals past every record — reply byte for
// byte what the row path replies, errors included, and move the scanned,
// evaluated, filtered and returned counters alike. Each conversation runs
// on the row path, then on the column path twice: building the leaves'
// columns, and reading them built. Between conversations a write splices
// a leaf, which drops its sidecar.
func TestColumnPathMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	trials, convs := 12, 40
	if testing.Short() {
		trials = 4
	}
	columnar := 0
	for trial := range trials {
		hostile := []float64{0, 0, 0.002, 0.05}[trial%4]
		n := 200 + rng.Intn(1500)
		d := columnRig(t, rng, n, hostile)
		f, _ := d.getFile("MIX")
		for range convs {
			first := columnRequest(rng, n)
			var rows [][]byte
			var rowCounters [4]uint64
			onRowPath(func() { rows, rowCounters = transcript(t, d, first) })
			for pass := range 2 {
				cols, colCounters := transcript(t, d, first)
				if !slices.EqualFunc(rows, cols, bytes.Equal) || rowCounters != colCounters {
					t.Fatalf("trial %d, %s pass %d: the row path replies %d messages, counters %v; the column path %d, %v\nrow:    %x\ncolumn: %x",
						trial, first.Kind, pass, len(rows), rowCounters, len(cols), colCounters, rows, cols)
				}
			}
			// A write splices a leaf: its sidecar goes, and the next
			// conversation builds it again.
			k := key1(int64(rng.Intn(n)))
			if val, err := f.tree.Get(k); err == nil {
				if err := f.tree.Update(k, val, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		columnar += int(d.Stats().RowsScanned)
	}
	if columnar == 0 {
		t.Fatal("no record was scanned")
	}
}
