package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// borrowValueWhole is BorrowValue as it was when it validated and read in
// one body, kept as the reference the validator (valueLen) and the reader
// (readValue) it became are pinned against: the same values, the same
// lengths, the same refusals in the same words.
func borrowValueWhole(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("record: empty value encoding")
	}
	switch b[0] {
	case encNull:
		return Null, 1, nil
	case encInt:
		v, n := binary.Varint(b[1:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("record: bad varint")
		}
		return Int(v), 1 + n, nil
	case encFloat:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("record: truncated float")
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))), 9, nil
	case encString:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 || uint64(len(b)-1-n) < l {
			return Null, 0, fmt.Errorf("record: truncated string")
		}
		return String(string(b[1+n : 1+n+int(l)])), 1 + n + int(l), nil
	case encFalse:
		return Bool(false), 1, nil
	case encTrue:
		return Bool(true), 1, nil
	}
	return Null, 0, fmt.Errorf("record: unknown value tag %d", b[0])
}

// sameValue is == with NaN equal to itself, bit for bit.
func sameValue(a, b Value) bool {
	return a == b || (a.Kind == TypeFloat && b.Kind == TypeFloat && math.Float64bits(a.F) == math.Float64bits(b.F))
}

// checkValueAgainstReference holds valueLen and BorrowValue to
// borrowValueWhole on the bytes at the head of b.
func checkValueAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	want, wantN, wantErr := borrowValueWhole(b)
	n, lenErr := valueLen(b)
	got, gotN, gotErr := BorrowValue(b)
	if fmt.Sprint(lenErr) != fmt.Sprint(wantErr) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%x: valueLen says %v, BorrowValue %v, the reference %v", b, lenErr, gotErr, wantErr)
	}
	if n != wantN || gotN != wantN || !sameValue(got, want) {
		t.Fatalf("%x: valueLen %d, BorrowValue %+v in %d bytes, the reference %+v in %d", b, n, got, gotN, want, wantN)
	}
}

// checkViewAgainstDecode holds a View to Decode on one input: both accept
// or both refuse with the same error, and on acceptance every accessor —
// Value, the typed peeks, AppendField, AppendKey — agrees with the decoded
// Row. Every suffix of the input is also held, as a bare value, to the
// reference value decoder.
func checkViewAgainstDecode(t *testing.T, v *View, b []byte) {
	t.Helper()
	for i := range b {
		checkValueAgainstReference(t, b[i:])
	}
	checkValueAgainstReference(t, nil)
	row, derr := Decode(b)
	verr := v.Reset(b)
	if len(b) > math.MaxUint16 {
		// A View's offsets are 16-bit: a frame no page can hold is refused
		// by Reset and FieldStarts alike, in FieldStarts' words, whatever
		// Decode makes of it.
		want := fmt.Sprintf("record: %d bytes is too long to lie in a page", len(b))
		if _, serr := FieldStarts(b, nil); fmt.Sprint(verr) != want || fmt.Sprint(serr) != want || v.Len() != 0 {
			t.Fatalf("%d bytes: View.Reset says %v (%d fields), FieldStarts %v; want %q", len(b), verr, v.Len(), serr, want)
		}
		return
	}
	if (derr == nil) != (verr == nil) || (derr != nil && derr.Error() != verr.Error()) {
		t.Fatalf("%x: Decode says %v, View.Reset says %v", b, derr, verr)
	}
	// FieldStarts is the same walk in 16-bit offsets, and a View pointed at
	// what it finds is the View Reset made.
	starts, serr := FieldStarts(b, nil)
	if (derr == nil) != (serr == nil) || (derr != nil && derr.Error() != serr.Error()) {
		t.Fatalf("%x: Decode says %v, FieldStarts says %v", b, derr, serr)
	}
	if serr == nil {
		var p View
		p.Point(b, starts)
		if !bytes.Equal(p.b, v.b) || !slices.Equal(p.off, v.off) {
			t.Fatalf("%x: Point at FieldStarts' %v gives offsets %v, Reset %v", b, starts, p.off, v.off)
		}
	}
	// Decode is AppendDecode into no arena: into one that holds a value it
	// adds the same values behind it and returns them clipped, or refuses
	// in the same words and adds none.
	arena, arow, aerr := AppendDecode(Row{Int(7)}, b)
	if (derr == nil) != (aerr == nil) || (derr != nil && derr.Error() != aerr.Error()) {
		t.Fatalf("%x: Decode says %v, AppendDecode says %v", b, derr, aerr)
	}
	if len(arena) != 1+len(row) || !sameValue(arena[0], Int(7)) || len(arow) != len(row) || cap(arow) != len(arow) {
		t.Fatalf("%x: AppendDecode behind one value left %d and returned %d (cap %d), Decode gives %d", b, len(arena), len(arow), cap(arow), len(row))
	}
	for i, want := range row {
		if !sameValue(arow[i], want) || !sameValue(arena[1+i], want) {
			t.Fatalf("%x: field %d: AppendDecode %+v, Decode %+v", b, i, arow[i], want)
		}
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
		if !sameValue(got, want) {
			t.Fatalf("%x: field %d: view %+v, row %+v", b, i, got, want)
		}
		// The typed peek of the field's kind, rebuilt into a Value.
		peek := Null
		switch v.Kind(i) {
		case TypeInt:
			peek = Int(v.Int(i))
		case TypeFloat:
			peek = Float(v.Float(i))
		case TypeString:
			peek = String(v.Str(i))
		case TypeBool:
			peek = Bool(v.Bool(i))
		}
		if !sameValue(peek, want) {
			t.Fatalf("%x: field %d: kind %v peeks %+v, row %+v", b, i, v.Kind(i), peek, want)
		}
		field := v.AppendField(nil, i)
		back, rest, err := DecodeValue(field)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%x: field %d: AppendField %x does not decode alone: %v, %d bytes left", b, i, field, err, len(rest))
		}
		if !sameValue(back, want) {
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
		{1, encInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},       // the longest varint: the smallest integer
		{1, encInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // one bit more overflows
		{1, encInt, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, // eleven bytes do too
		Encode(Row{Int(63), Int(64), Int(-64), Int(-65), Int(math.MinInt64), Int(math.MaxInt64), Float(math.NaN()), Float(math.Inf(-1))}),
		// The longest frame a View reads, and one byte more: a record
		// Decode accepts and no page holds.
		Encode(Row{String(strings.Repeat("x", math.MaxUint16-5))}),
		Encode(Row{String(strings.Repeat("x", math.MaxUint16-4))}),
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

// FuzzRecordView: for arbitrary bytes of at most 65 535 the view and
// Decode accept and refuse exactly the same inputs, and agree on every
// field of what they accept through every accessor; a longer frame the
// view refuses in FieldStarts' words; and the one value validator accepts
// and refuses what the reference decoder does, in its words.
// `go test -fuzz FuzzRecordView ./internal/record`.
func FuzzRecordView(f *testing.F) {
	for _, b := range viewSeeds() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v View
		checkViewAgainstDecode(t, &v, b)
	})
}

// TestPointBorrowsAndResetOwns pins the aliasing Point's borrowing makes
// possible, and that it never bites. Point keeps the starts it is lent as
// they are — no copy — and a later Reset walks into the View's own
// scratch, never into them: the lent slice here is the front of a larger
// table, as a record's starts are a slice of its leaf's record table,
// which every scanner of the leaf shares, and no byte of that table moves.
func TestPointBorrowsAndResetOwns(t *testing.T) {
	a := Encode(Row{Int(1), String("lent"), Float(2)})
	b := Encode(Row{String("a longer record than the first"), Null, Int(-7), Bool(true), Int(99), String("z")})
	table, err := FieldStarts(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	lent := table[:len(table):len(table)]
	if table, err = FieldStarts(b, table); err != nil { // another record's starts behind it
		t.Fatal(err)
	}
	before := slices.Clone(table)

	var v View
	v.Point(a, lent)
	if unsafe.SliceData(v.off) != unsafe.SliceData(lent) || len(v.off) != len(lent) {
		t.Fatalf("Point copied the starts it was lent")
	}
	if err := v.Reset(b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(table, before) {
		t.Fatalf("Reset wrote into the starts Point was lent: %v, was %v", table, before)
	}
	if v.Len() != 6 || v.Str(0) != "a longer record than the first" || v.Int(2) != -7 {
		t.Fatalf("after Reset the view reads %d fields", v.Len())
	}
	v.Point(a, lent) // and back: the scratch Reset filled is not what Point reads
	if v.Len() != 3 || v.Str(1) != "lent" || v.Float(2) != 2 {
		t.Fatalf("pointed again, the view reads %d fields", v.Len())
	}
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
	for _, proj := range [][]int{{1, 2}, {3, 0}, {5, 4, 3, 2, 1, 0}, {2}, {4, 4}, {}} {
		want := make(Row, len(proj))
		for i, f := range proj {
			want[i] = row[f]
		}
		got, err := v.AppendRow([]byte{0xEE}, proj)
		if err != nil || !bytes.Equal(got[1:], Encode(want)) || got[0] != 0xEE {
			t.Errorf("projection %v: copied fields %x (%v), Encode of the projected values %x", proj, got, err, Encode(want))
		}
	}
	// No projection is the record as it lies; a field the record does not
	// have is refused, not reached for.
	if got, err := v.AppendRow(nil, nil); err != nil || !bytes.Equal(got, Encode(row)) {
		t.Errorf("nil projection: %x, %v", got, err)
	}
	for _, proj := range [][]int{{6}, {0, -1}} {
		if _, err := v.AppendRow(nil, proj); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("projection %v of a 6-field record: %v", proj, err)
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
