package dp

import (
	"bytes"
	"testing"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/tmf"
)

func deepCopy(bs [][]byte) [][]byte {
	out := make([][]byte, len(bs))
	for i, b := range bs {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

// TestRepliesDoNotAliasCachePages holds the Disk Process to the B-tree's
// page-access contract: scan callbacks borrow key and record bytes from
// the leaf where it lies in the cache, so whatever a reply keeps must be
// a copy — and, one layer up, to the record view's: a VARCHAR read
// through a record.View borrows those same bytes, so a projected row, a
// group's key values and a MIN/MAX partial must all have been copied out
// before the callback returned. A GET^FIRST^RSBB reply, a PROBE^BLOCK
// reply, a GET^FIRST^VSBB reply with a predicate and a projection, an
// AGG^FIRST reply grouped by a VARCHAR, and one carrying MIN and MAX of a
// VARCHAR are taken and deep-copied; then every record they read is
// rewritten on the same leaves — once at the same length (bytes
// overwritten where they lie), once longer (the leaf's tail moves). A
// reply whose Rows or RowKeys still pointed into a page would change
// under the test's feet.
func TestRepliesDoNotAliasCachePages(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 60)

	rsbb := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstRSBB, File: "EMP", Range: keys.All()})
	if !rsbb.OK() || len(rsbb.Rows) == 0 || len(rsbb.RowKeys) != len(rsbb.Rows) {
		t.Fatalf("RSBB: %+v", rsbb)
	}
	var probes [][]byte
	for i := int64(0); i < 60; i += 7 {
		probes = append(probes, key1(i))
	}
	probe := d.Serve(&fsdp.Request{Kind: fsdp.KProbeBlock, File: "EMP", RowKeys: probes})
	if !probe.OK() || len(probe.Rows) != len(probes) || len(probe.RowKeys) != len(probes) {
		t.Fatalf("PROBE: %+v", probe)
	}
	vsbb := d.Serve(&fsdp.Request{Kind: fsdp.KGetFirstVSBB, File: "EMP", Range: keys.All(), Proj: []int{1, 3},
		Pred: expr.Encode(expr.Bin(expr.OpLike, expr.F(1, "NAME"), expr.CString("emp-%")))})
	if !vsbb.OK() || len(vsbb.Rows) != 60 || len(vsbb.RowKeys) != 60 {
		t.Fatalf("VSBB: %+v", vsbb)
	}
	byName := d.Serve(&fsdp.Request{Kind: fsdp.KAggFirst, File: "EMP", Range: keys.All(),
		Agg: fsdp.EncodeAggSpec(&fsdp.AggSpec{GroupBy: []int{1}, Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}}})})
	if !byName.OK() || len(byName.Rows) != 60 {
		t.Fatalf("AGG by NAME: %+v", byName)
	}
	minMax := d.Serve(&fsdp.Request{Kind: fsdp.KAggFirst, File: "EMP", Range: keys.All(),
		Agg: fsdp.EncodeAggSpec(&fsdp.AggSpec{GroupBy: []int{2}, Cols: []fsdp.AggCol{{Fn: fsdp.AggMin, Col: 1}, {Fn: fsdp.AggMax, Col: 1}}})})
	if !minMax.OK() || len(minMax.Rows) != 1 {
		t.Fatalf("AGG MIN/MAX(NAME): %+v", minMax)
	}
	if _, parts, err := decodeEntry(minMax.Rows[0], []fsdp.AggCol{{Fn: fsdp.AggMin, Col: 1}, {Fn: fsdp.AggMax, Col: 1}}); err != nil || parts[0].Val.S != "emp-00000" || parts[1].Val.S != "emp-00059" {
		t.Fatalf("AGG MIN/MAX(NAME): %+v, %v", parts, err)
	}
	type snapshot struct {
		name       string
		live, kept [][]byte
	}
	snaps := []snapshot{
		{"RSBB Rows", rsbb.Rows, deepCopy(rsbb.Rows)},
		{"RSBB RowKeys", rsbb.RowKeys, deepCopy(rsbb.RowKeys)},
		{"PROBE Rows", probe.Rows, deepCopy(probe.Rows)},
		{"PROBE RowKeys", probe.RowKeys, deepCopy(probe.RowKeys)},
		{"VSBB Rows", vsbb.Rows, deepCopy(vsbb.Rows)},
		{"VSBB RowKeys", vsbb.RowKeys, deepCopy(vsbb.RowKeys)},
		{"AGG by VARCHAR Rows", byName.Rows, deepCopy(byName.Rows)},
		{"AGG MIN/MAX(VARCHAR) Rows", minMax.Rows, deepCopy(minMax.Rows)},
	}

	// "emp-00007" is nine bytes: the first pass keeps every record's
	// length, the second grows it.
	for _, name := range []string{"ZZZZZZZZZ", "a-much-longer-name-than-before"} {
		tx := tmf.NewTxID()
		reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateSubsetFirst, Tx: tx, File: "EMP", Range: keys.All(),
			Assign: expr.EncodeAssignments([]expr.Assignment{
				{Field: 1, E: expr.CString(name)},
				{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CFloat(0.5))},
			})})
		if !reply.OK() || reply.Count != 60 {
			t.Fatalf("update to %q: %+v", name, reply)
		}
		commitTx(t, d, tx)
		for _, s := range snaps {
			for i := range s.kept {
				if !bytes.Equal(s.live[i], s.kept[i]) {
					t.Fatalf("%s[%d] changed after the records were rewritten as %q: the reply aliases a cache page", s.name, i, name)
				}
			}
		}
	}
}
