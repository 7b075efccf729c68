package fsdp

import (
	"math"
	"reflect"
	"testing"

	"nonstopsql/internal/record"
)

func TestAggSpecRoundTrip(t *testing.T) {
	cases := []*AggSpec{
		{Cols: []AggCol{{Fn: AggCount, Star: true}}},
		{GroupBy: []int{2}, Cols: []AggCol{
			{Fn: AggCount, Star: true},
			{Fn: AggSum, Col: 3},
			{Fn: AggMin, Col: 1},
			{Fn: AggMax, Col: 7},
		}},
		{GroupBy: []int{0, 5}, Cols: []AggCol{{Fn: AggCount, Col: 4}}},
	}
	for _, spec := range cases {
		got, err := DecodeAggSpec(EncodeAggSpec(spec))
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !reflect.DeepEqual(spec, got) {
			t.Errorf("got %+v\nwant %+v", got, spec)
		}
	}
}

func TestAggSpecDecodeErrors(t *testing.T) {
	good := EncodeAggSpec(&AggSpec{GroupBy: []int{1}, Cols: []AggCol{{Fn: AggSum, Col: 2}}})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeAggSpec(good[:cut]); err == nil {
			t.Errorf("truncated spec at %d accepted", cut)
		}
	}
	if _, err := DecodeAggSpec(append(good, 0)); err == nil {
		t.Error("trailing spec bytes accepted")
	}
}

// hostileAggSpecs are specifications no SQL compiler writes, which
// DecodeAggSpec refuses: a function it does not know, and ordinals that do
// not fit in an int32 — 2^63 once came out of the decoder as a negative
// int. The biggest ordinal that fits still decodes (the Disk Process
// refuses it against the record).
var hostileAggSpecs = map[string][]byte{
	"function 99":             EncodeAggSpec(&AggSpec{Cols: []AggCol{{Fn: AggFn(99), Col: 0}}}),
	"function 0":              EncodeAggSpec(&AggSpec{Cols: []AggCol{{Fn: 0, Star: true}}}),
	"group-by ordinal 2^63":   EncodeAggSpec(&AggSpec{GroupBy: []int{math.MinInt64}, Cols: []AggCol{{Fn: AggCount, Star: true}}}),
	"group-by ordinal 2^31":   EncodeAggSpec(&AggSpec{GroupBy: []int{1 << 31}, Cols: []AggCol{{Fn: AggCount, Star: true}}}),
	"column ordinal 2^63 - 1": EncodeAggSpec(&AggSpec{Cols: []AggCol{{Fn: AggMax, Col: math.MaxInt64}}}),
}

func TestAggSpecRefusesWhatNoEncoderWrites(t *testing.T) {
	for name, b := range hostileAggSpecs {
		if s, err := DecodeAggSpec(b); err == nil {
			t.Errorf("%s: decoded to %+v", name, s)
		}
	}
	edge := &AggSpec{GroupBy: []int{math.MaxInt32}, Cols: []AggCol{{Fn: AggMin, Col: math.MaxInt32}}}
	if got, err := DecodeAggSpec(EncodeAggSpec(edge)); err != nil || !reflect.DeepEqual(got, edge) {
		t.Errorf("ordinals of 2^31-1: %+v, %v", got, err)
	}
}

func TestGroupRoundTrip(t *testing.T) {
	keyVals := record.Row{record.Int(7), record.String("ENG")}
	partials := []AggPartial{
		{Count: 3},
		{Count: 3, SumI: 42, SumF: 42},
		{Count: 2, SumF: 1.5, Float: true},
		{Count: 5, Val: record.String("abc")},
		{}, // empty partial (all inputs NULL)
	}
	var keyFields []byte
	for _, v := range keyVals {
		keyFields = record.AppendValue(keyFields, v)
	}
	entry := AppendGroup([]byte("earlier entries"), len(keyVals), keyFields, partials)[len("earlier entries"):]
	kv, ps, err := DecodeGroup(entry, len(partials), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keyVals, kv) {
		t.Errorf("keys: got %+v want %+v", kv, keyVals)
	}
	if !reflect.DeepEqual(partials, ps) {
		t.Errorf("partials: got %+v want %+v", ps, partials)
	}
	// Decoding into the scratch a previous entry filled reuses it.
	kv2, ps2, err := DecodeGroup(entry, len(partials), kv, ps)
	if err != nil || &kv2[0] != &kv[0] || &ps2[0] != &ps[0] || !reflect.DeepEqual(partials, ps2) {
		t.Errorf("decode into scratch: %v, keys %+v, partials %+v", err, kv2, ps2)
	}
	if _, _, err := DecodeGroup(append(entry, 9), len(partials), nil, nil); err == nil {
		t.Error("trailing group bytes accepted")
	}
	// A hostile key count is bounded by the bytes present, not trusted.
	if _, _, err := DecodeGroup([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0}, 1, nil, nil); err == nil {
		t.Error("oversized key count accepted")
	}
}

// TestPartialFeedMerge checks that feeding rows through two partials and
// merging equals feeding them all through one — the decomposability
// property AGG^FIRST/NEXT rests on.
func TestPartialFeedMerge(t *testing.T) {
	vals := []record.Value{
		record.Int(4), record.Int(-2), record.Int(9), record.Int(0), record.Int(7),
	}
	for _, fn := range []AggFn{AggCount, AggSum, AggMin, AggMax} {
		var whole AggPartial
		for _, v := range vals {
			whole.Feed(fn, v)
		}
		var a, b AggPartial
		for i, v := range vals {
			if i < 2 {
				a.Feed(fn, v)
			} else {
				b.Feed(fn, v)
			}
		}
		a.Merge(fn, b)
		if !reflect.DeepEqual(whole, a) {
			t.Errorf("%v: split-merge %+v != whole %+v", fn, a, whole)
		}
		// Merging an empty partial (a partition with no qualifying rows)
		// is the identity.
		id := whole
		id.Merge(fn, AggPartial{})
		if !reflect.DeepEqual(whole, id) {
			t.Errorf("%v: merge with empty changed %+v -> %+v", fn, whole, id)
		}
	}
	// Mixed int/float SUM marks the Float flag through a merge.
	var f1, f2 AggPartial
	f1.Feed(AggSum, record.Int(1))
	f2.Feed(AggSum, record.Float(2.5))
	f1.Merge(AggSum, f2)
	if !f1.Float || f1.SumF != 3.5 || f1.Count != 2 {
		t.Errorf("mixed sum merge: %+v", f1)
	}
}

// TestMinMaxIgnoresFeedOrder: MIN and MAX see their values in whatever
// order the records and partitions deliver them, so the answer may not
// depend on it. It did while numbers compared through float64 — 2^53+1
// "equalled" the FLOAT 2^53, and NaN "equalled" everything, so whichever
// came first stuck. Now they are ordered exactly, NaN below every number.
func TestMinMaxIgnoresFeedOrder(t *testing.T) {
	vals := []record.Value{record.Int(1<<53 + 1), record.Float(1 << 53), record.Float(math.NaN()), record.Int(-3), record.Float(-2.5)}
	for _, c := range []struct {
		fn   AggFn
		want record.Value
	}{{AggMin, record.Float(math.NaN())}, {AggMax, record.Int(1<<53 + 1)}} {
		for rot := range vals {
			var p AggPartial
			for i := range vals {
				p.Feed(c.fn, vals[(rot+i)%len(vals)])
			}
			var q, r AggPartial // and split across two partitions, merged the other way round
			for i, v := range vals {
				if (i+rot)%2 == 0 {
					q.Feed(c.fn, v)
				} else {
					r.Feed(c.fn, v)
				}
			}
			r.Merge(c.fn, q)
			for _, got := range []record.Value{p.Val, r.Val} {
				if got.Kind != c.want.Kind || got.Compare(c.want) != 0 {
					t.Errorf("%v fed from value %d on: %+v, want %+v", c.fn, rot, got, c.want)
				}
			}
		}
	}
}

// TestPartialOwnsWhatItKeeps: the Disk Process feeds partials values that
// borrow a cache page (record.View) and the File System merges partials
// that borrow a reply buffer (DecodeGroup); both are gone or rewritten
// long before the partial is read. A MIN/MAX that kept the borrowed
// string would change with the buffer.
func TestPartialOwnsWhatItKeeps(t *testing.T) {
	buf := record.AppendValue(nil, record.String("mmm"))
	borrowed, _, err := record.BorrowValue(buf)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi, merged AggPartial
	lo.Feed(AggMin, borrowed)
	hi.Feed(AggMax, borrowed)
	merged.Merge(AggMin, AggPartial{Count: 1, Val: borrowed})
	copy(buf[len(buf)-3:], "zzz")
	if borrowed.S != "zzz" {
		t.Fatalf("BorrowValue copied: %q", borrowed.S)
	}
	for name, p := range map[string]AggPartial{"Feed MIN": lo, "Feed MAX": hi, "Merge MIN": merged} {
		if p.Val.S != "mmm" {
			t.Errorf("%s kept a borrowed string: now %q", name, p.Val.S)
		}
	}
}
