package record

import (
	"bytes"
	"math"
	"testing"
)

// checkViewAgainstDecode holds a View to Decode on one input: both accept
// or both refuse with the same error, and on acceptance every accessor
// agrees with the decoded Row.
func checkViewAgainstDecode(t *testing.T, v *View, b []byte) {
	t.Helper()
	row, derr := Decode(b)
	verr := v.Reset(b)
	if (derr == nil) != (verr == nil) || (derr != nil && derr.Error() != verr.Error()) {
		t.Fatalf("%x: Decode says %v, View.Reset says %v", b, derr, verr)
	}
	if derr != nil {
		if v.Len() != 0 {
			t.Fatalf("%x: refused, but the view still shows %d fields", b, v.Len())
		}
		return
	}
	if v.Len() != len(row) {
		t.Fatalf("%x: view has %d fields, row %d", b, v.Len(), len(row))
	}
	for i, want := range row {
		got := v.Value(i)
		// NaN != NaN, so floats compare by bits.
		if got != want && !(got.Kind == TypeFloat && want.Kind == TypeFloat && math.Float64bits(got.F) == math.Float64bits(want.F)) {
			t.Fatalf("%x: field %d: view %+v, row %+v", b, i, got, want)
		}
		field := v.AppendField(nil, i)
		back, rest, err := DecodeValue(field)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%x: field %d: AppendField %x does not decode alone: %v, %d bytes left", b, i, field, err, len(rest))
		}
		if back != want && !(back.Kind == TypeFloat && math.Float64bits(back.F) == math.Float64bits(want.F)) {
			t.Fatalf("%x: field %d: AppendField round-trips to %+v, row has %+v", b, i, back, want)
		}
		if k, wantK := v.AppendKey([]byte{0xEE}, i), want.AppendKey([]byte{0xEE}); !bytes.Equal(k, wantK) {
			t.Fatalf("%x: field %d: AppendKey %x, Value.AppendKey %x", b, i, k, wantK)
		}
	}
}

// viewSeeds are the records and non-records of TestDecodeErrors and
// TestDecodeValueErrors, framed as rows where they are bare values.
func viewSeeds() [][]byte {
	good := Encode(Row{Int(1)})
	return [][]byte{
		{},
		{2, encInt},
		append(append([]byte(nil), good...), 0xAA),
		good,
		Encode(Row{}),
		Encode(Row{Int(-5), Null, Float(2.25), String("x\x00y"), Bool(true), Bool(false), String("")}),
		acctRecord(),
		{1},                    // one field, no bytes for it
		{1, 99},                // unknown tag
		{1, encFloat, 1, 2},    // truncated float
		{1, encString, 5, 'a'}, // truncated string
		{1, encInt, 0x80},      // varint cut short
		{1, encString, 0x80},   // length varint cut short
		{0x80},                 // header varint cut short
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, encNull}, // a header claiming 2^63 fields
		{1, encInt, 0x80, 0x00}, // a padded (non-canonical) varint is still a varint
	}
}

func TestViewMatchesDecode(t *testing.T) {
	var v View
	for _, b := range viewSeeds() {
		checkViewAgainstDecode(t, &v, b)
	}
	// The scratch carries over: a wide record, then a narrow one, then a
	// refusal, then the wide one again.
	wide := make(Row, 40)
	for i := range wide {
		wide[i] = Int(int64(i))
	}
	for _, b := range [][]byte{Encode(wide), Encode(Row{Null}), {1}, Encode(wide)} {
		checkViewAgainstDecode(t, &v, b)
	}
}

// FuzzRecordView: for arbitrary bytes the view and Decode accept and
// refuse exactly the same inputs, and agree on every field of what they
// accept. `go test -fuzz FuzzRecordView ./internal/record`.
func FuzzRecordView(f *testing.F) {
	for _, b := range viewSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v View
		checkViewAgainstDecode(t, &v, b)
	})
}

// TestViewProjectsByCopyingFields: the Disk Process builds a projected
// reply row from the fields' encoded bytes; for a record Encode wrote that
// is byte for byte the frame Encode would write for the projected values,
// reordering included.
func TestViewProjectsByCopyingFields(t *testing.T) {
	row := Row{Int(100), String("bob"), Null, Float(45000), Bool(true), Int(-1 << 40)}
	var v View
	if err := v.Reset(Encode(row)); err != nil {
		t.Fatal(err)
	}
	for _, proj := range [][]int{{1, 2}, {3, 0}, {5, 4, 3, 2, 1, 0}, {2}, {}} {
		want := make(Row, len(proj))
		got := []byte{byte(len(proj))} // the frame header, a one-byte uvarint here
		for i, f := range proj {
			want[i] = row[f]
			got = v.AppendField(got, f)
		}
		if !bytes.Equal(got, Encode(want)) {
			t.Errorf("projection %v: copied fields %x, Encode of the projected values %x", proj, got, Encode(want))
		}
	}
}

// TestViewBorrows pins the contract the Disk Process relies on, from both
// sides: Value's string aliases the record (no copy on the predicate
// path), and everything that copies — AppendField, AppendKey, Decode — is
// unmoved when the record's bytes change underneath.
func TestViewBorrows(t *testing.T) {
	b := Encode(Row{Int(7), String("borrowed")})
	var v View
	if err := v.Reset(b); err != nil {
		t.Fatal(err)
	}
	s := v.Value(1).S
	field, key := v.AppendField(nil, 1), v.AppendKey(nil, 1)
	row, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	copy(b[len(b)-8:], "OVERWRIT")
	if s != "OVERWRIT" {
		t.Errorf("Value(1).S = %q after the record changed: it was copied, not borrowed", s)
	}
	if row[1].S != "borrowed" || !bytes.Equal(field, AppendValue(nil, String("borrowed"))) || !bytes.Equal(key, String("borrowed").AppendKey(nil)) {
		t.Errorf("a copy moved with the record: row %q, field %x, key %x", row[1].S, field, key)
	}
}

func TestViewAllocatesNothingPerRecord(t *testing.T) {
	enc := acctRecord()
	var v View
	var dst []byte
	op := func() {
		if err := v.Reset(enc); err != nil {
			t.Fatal(err)
		}
		benchSink += v.Value(1).I + int64(len(v.Value(3).S))
		dst = v.AppendKey(v.AppendField(dst[:0], 3), 3)
	}
	op() // grows the offset table and dst
	if got := testing.AllocsPerRun(100, op); got != 0 {
		t.Errorf("%.1f allocations per record", got)
	}
}
