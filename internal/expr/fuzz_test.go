package expr

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nonstopsql/internal/record"
)

// fuzzSeeds are predicates and SET lists as the encoders write them: every
// node tag, every value kind, both operand orders.
func fuzzSeeds() (exprs, assigns [][]byte) {
	for _, e := range []Expr{
		And(Bin(OpGE, F(0, "ID"), CInt(10)), Bin(OpLT, F(0, "ID"), CFloat(20.5))),
		Bin(OpOr, Bin(OpLike, F(1, "NAME"), CString("a%")), Unary{Op: OpIsNull, E: F(300, "WIDE")}),
		Bin(OpEQ, Param{Index: 2, Hint: record.TypeInt}, Bin(OpAdd, F(3, "PAY"), C(record.Null))),
		Unary{Op: OpNot, E: Bin(OpEQ, F(2, "OK"), C(record.Bool(true)))},
		Param{Index: maxOrdinal},
	} {
		exprs = append(exprs, Encode(e))
	}
	assigns = [][]byte{
		EncodeAssignments([]Assignment{{Field: 3, E: Bin(OpMul, F(3, "PAY"), CFloat(1.1))}, {Field: 1, E: Param{Index: 0}}}),
		EncodeAssignments([]Assignment{{Field: 200, E: C(record.Null)}}),
	}
	return
}

// recoders decode a message and encode it again, one per decoder a Disk
// Process runs on what the network hands it.
var recoders = []struct {
	what   string
	recode func(b []byte) ([]byte, error)
}{
	{"expression", func(b []byte) ([]byte, error) {
		e, err := Decode(b)
		if err != nil {
			return nil, err
		}
		return Encode(e), nil
	}},
	{"assignments", func(b []byte) ([]byte, error) {
		as, err := DecodeAssignments(b)
		if err != nil || as == nil {
			return nil, err
		}
		return EncodeAssignments(as), nil
	}},
}

// fuzzOne runs data through both decoders. Neither may panic or allocate
// more than a small multiple of its input; it returns the re-encodings of
// whatever decoded, each checked to be no longer than the input and a
// fixed point of decode-encode.
func fuzzOne(t *testing.T, data []byte) (encs [][]byte) {
	for _, c := range recoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := c.recode(data)
		runtime.ReadMemStats(&after)
		// The largest honest ratio is a chain of two-byte unary operators:
		// a 32-byte node per level, and the re-encoding on top.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d): %x", c.what, len(data), got, limit, data)
		}
		if err != nil {
			continue
		}
		if len(enc) > len(data) {
			t.Fatalf("%s %x re-encoded longer: %x", c.what, data, enc)
		}
		if twice, err := c.recode(enc); err != nil || !bytes.Equal(twice, enc) {
			t.Fatalf("%s %x re-encoded to %x, which decodes and encodes to %x, %v", c.what, data, enc, twice, err)
		}
		encs = append(encs, enc)
	}
	return encs
}

// TestEncodersAreCanonical is the fuzzer's property on its own seeds, where
// it is exact: what an encoder wrote decodes and re-encodes byte for byte.
func TestEncodersAreCanonical(t *testing.T) {
	exprs, assigns := fuzzSeeds()
	for _, data := range append(exprs, assigns...) {
		if encs := fuzzOne(t, data); !slices.ContainsFunc(encs, func(enc []byte) bool { return bytes.Equal(enc, data) }) {
			t.Errorf("%x decoded and re-encoded to %x", data, encs)
		}
	}
}

// TestHostileExpressionsAreRefused pins the three ways a few bytes off the
// network once cost a Disk Process far more than a few bytes: a count that
// sized a slice, nesting that recursed until the stack ran out (fatal, not
// a panic a server recovers from), and an ordinal that wrapped negative.
func TestHostileExpressionsAreRefused(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // 2^64-1
	if as, err := DecodeAssignments(huge); err == nil {
		t.Errorf("2^64-1 assignments with nothing behind them decoded: %v", as)
	}
	if as, err := DecodeAssignments(append([]byte{1}, append(huge, 1, nodeConst)...)); err == nil {
		t.Errorf("assignment to field 2^64-1 decoded: %v", as)
	}
	for _, tag := range [][]byte{{nodeField}, {nodeParam, 0}} {
		if e, err := Decode(append(tag, append(huge, 0)...)); err == nil {
			t.Errorf("ordinal 2^64-1 decoded: %#v", e)
		}
	}
	deep := bytes.Repeat([]byte{nodeUnary, byte(OpNot)}, 8<<20) // a 16 MiB frame
	if _, err := Decode(deep); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Errorf("8M nested operators: %v", err)
	}
	// The cap is on nesting, not size: a chain at the cap still decodes.
	var atCap Expr = CInt(1)
	for i := 1; i < maxDepth; i++ {
		atCap = Unary{Op: OpNot, E: atCap}
	}
	if _, err := Decode(Encode(atCap)); err != nil {
		t.Errorf("%d nested operators: %v", maxDepth-1, err)
	}
}

// fuzzRecords are the records FuzzExpr's seed predicates meet: a hit, a
// miss, a NULL field, a field of the wrong kind, a record too short for the
// ordinal, and bytes that are no record.
func fuzzRecords() [][]byte {
	return [][]byte{
		record.Encode(record.Row{record.Int(15), record.String("ann"), record.Bool(true), record.Float(3.5)}),
		record.Encode(record.Row{record.Int(25), record.String("bob"), record.Bool(false), record.Float(-1)}),
		record.Encode(record.Row{record.Null, record.Null, record.Null, record.Null}),
		record.Encode(record.Row{record.String("15"), record.Int(1), record.Float(1), record.Bool(true)}),
		record.Encode(record.Row{record.Int(15)}),
		{2, 1},
	}
}

// FuzzExpr feeds hostile bytes to the two decoders a Disk Process runs on
// a request's predicate, CHECK constraint and SET list, and — the second
// input — runs whatever decodes as a predicate against whatever decodes as
// a record, three ways: the compiled Program the Disk Process runs must be
// eval, on the View and on the Row, in keep or reject and in error text.
func FuzzExpr(f *testing.F) {
	exprs, assigns := fuzzSeeds()
	// Later conjuncts that fail behind a false first one, on the compiled
	// shape; an ordinal past every seed record.
	for _, e := range []Expr{
		And(Bin(OpLT, F(0, "ID"), CInt(2)), Bin(OpLT, F(1, "NAME"), CInt(5))),
		And(Bin(OpGT, CFloat(20), F(0, "ID")), And(Bin(OpEQ, F(2, "OK"), C(record.Bool(true))), Bin(OpNE, F(7, "PAST"), CString("x")))),
	} {
		exprs = append(exprs, Encode(e))
	}
	for _, data := range append(exprs, assigns...) {
		for _, rec := range fuzzRecords() {
			f.Add(data, rec)
		}
	}
	f.Add(bytes.Repeat([]byte{nodeUnary, byte(OpNot)}, 4096), []byte{0})
	f.Fuzz(func(t *testing.T, data, rec []byte) {
		fuzzOne(t, data)
		row, rowErr := record.Decode(rec)
		checkSetList(t, data, row)
		e, err := Decode(data)
		var v record.View
		if err != nil || v.Reset(rec) != nil {
			return
		}
		if rowErr != nil {
			t.Fatalf("%x: a View reads it, Decode says %v", rec, rowErr)
		}
		checkThreeWays(t, e, row, &v)
	})
}

// checkSetList holds a SetList to the tree form it stands for: data
// decodes into one — one that last held another list — exactly when
// DecodeAssignments accepts it, with the same error, and on row (when not
// nil) Append computes what AppendAssignments does, error for error.
func checkSetList(t *testing.T, data []byte, row record.Row) {
	t.Helper()
	var sl SetList
	if err := sl.Decode(EncodeAssignments([]Assignment{{Field: 0, E: Bin(OpAdd, F(0, "A"), CInt(1))}, {Field: 1, E: CString("old")}})); err != nil {
		t.Fatal(err)
	}
	as, aerr := DecodeAssignments(data)
	serr := sl.Decode(data)
	if (aerr == nil) != (serr == nil) || aerr != nil && aerr.Error() != serr.Error() {
		t.Fatalf("%x: DecodeAssignments says %v, SetList.Decode %v", data, aerr, serr)
	}
	if aerr != nil {
		if len(sl.sets) != 0 {
			t.Fatalf("%x: a refused list left %d assignments", data, len(sl.sets))
		}
		return
	}
	if len(sl.sets) != len(as) {
		t.Fatalf("%x: %d assignments, the tree form has %d", data, len(sl.sets), len(as))
	}
	if row == nil {
		return
	}
	want, werr := AppendAssignments(nil, row, as)
	got, gerr := sl.Append(nil, row)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("%x on %v: AppendAssignments says %v, SetList %v", data, row, werr, gerr)
	}
	if werr == nil && !bytes.Equal(record.Encode(want), record.Encode(got)) {
		t.Fatalf("%x on %v: AppendAssignments makes %v, SetList %v", data, row, want, got)
	}
}
