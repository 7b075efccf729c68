package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"nonstopsql/internal/keys"
)

// A View reads one encoded record where it lies. Reset validates the
// whole frame — everything Decode checks, with Decode's errors — in one
// pass that allocates nothing and notes where each field starts; after
// that a field is reached by ordinal: materialised as a Value, or copied
// as its encoded bytes or its key bytes without building a Value. Point is
// Reset for a record whose walk has already run: the Disk Process's scans
// are handed each record's field starts by the B-tree, which walked every
// record of the leaf once, when it built the leaf's record table.
//
// The View borrows the bytes it was Reset over, and a VARCHAR Value's S
// aliases them. In the Disk Process those bytes are a cell of a pinned,
// latched cache page (btree.Run), valid until the scan's turn with that
// leaf ends: whatever outlives it is copied (AppendField,
// AppendKey copy; a kept Value.S needs strings.Clone). A View that Point
// handed field starts borrows them too, for as long as it reads them.
//
// Offsets are 16-bit, the width of FieldStarts and of the B-tree's record
// table, so a View reads only records of at most 65 535 bytes — anything
// that lies in a page, and so everything the Disk Process stores or
// replies with; Reset refuses a longer frame in FieldStarts' words. Reset's
// offset table is the View's own scratch, reused from one Reset to the
// next: a View is owned by one goroutine and costs one allocation per
// owner, not per record. The zero View is ready for Reset.
type View struct {
	b   []byte
	off []uint16 // off[i] is where field i starts; off[Len()] == len(b): own, or the starts Point was lent
	own []uint16 // Reset's scratch, never a table Point was lent
}

// Reset points the view at the encoded record b. The whole frame is
// checked, not just the fields a caller will ask for: a record the Disk
// Process cannot read in full is refused before any part of it is
// counted, shipped or aggregated. It is FieldStarts, into the View's own
// scratch: Decode's walk, the same checks in the same order with the same
// errors, which FuzzRecordView holds the two to, on a frame that fits
// 16-bit offsets.
func (v *View) Reset(b []byte) error {
	off, err := FieldStarts(b, v.own[:0])
	v.own = off
	if err != nil {
		v.b, v.off = nil, off[:0]
		return err
	}
	v.b, v.off = b, off
	return nil
}

// Point points the view at the encoded record b, whose field starts —
// and, last, len(b) — are starts, as FieldStarts found them over exactly
// these bytes: the validating walk has been run, so Point does not run it
// again. The View borrows starts as they are, without a copy, and never
// writes or appends to them, so a caller may lend it a table it shares
// with others (the B-tree's record table, which lives beside the page's
// cell table in the cache slot); a later Reset walks into the View's own
// scratch, not into them.
func (v *View) Point(b []byte, starts []uint16) { v.b, v.off = b, starts }

// FieldStarts is Decode's walk — the same checks in the same order with
// the same errors — for a record that lies in a page: it appends to
// starts where each of b's fields starts and, last, len(b), as 16-bit
// offsets, which is what a record table kept beside a 4 KB page holds. A
// record too long for 16-bit offsets is refused. Each field is sized
// (valueLen) where Decode also reads it, and an offset kept where Decode
// keeps a value.
func FieldStarts(b []byte, starts []uint16) ([]uint16, error) {
	if len(b) > math.MaxUint16 {
		return starts, fmt.Errorf("record: %d bytes is too long to lie in a page", len(b))
	}
	n, pos := binary.Uvarint(b)
	if pos <= 0 {
		return starts, fmt.Errorf("record: bad row header")
	}
	// n is untrusted: every field takes at least one byte, so the walk —
	// and the table — is bounded by len(b) whatever the header claims.
	starts = slices.Grow(starts, int(min(n, uint64(len(b))))+1)
	for i := uint64(0); i < n; i++ {
		sz, err := valueLen(b[pos:])
		if err != nil {
			return starts, fmt.Errorf("record: field %d: %w", i, err)
		}
		starts = append(starts, uint16(pos))
		pos += sz
	}
	if pos != len(b) {
		return starts, fmt.Errorf("record: %d trailing bytes", len(b)-pos)
	}
	return append(starts, uint16(pos)), nil
}

// Len returns the record's field count.
func (v *View) Len() int { return max(len(v.off)-1, 0) }

// field returns field i's encoded bytes, borrowed. Reset has checked
// them: what reads a field below does not check again. It panics if i is
// out of range, like indexing a Row, and so does everything built on it.
func (v *View) field(i int) []byte { return v.b[v.off[i]:v.off[i+1]] }

// Value materialises field i. A VARCHAR's S aliases the record bytes;
// see the type's comment.
func (v *View) Value(i int) Value { return readValue(v.field(i)) }

// Kind returns field i's type, zero for NULL, without reading the value.
// It says which of the typed peeks below applies.
func (v *View) Kind(i int) Type { return kindOfTag[v.b[v.off[i]]] }

// kindOfTag maps a checked field's tag byte to its Type.
var kindOfTag = [...]Type{encNull: 0, encInt: TypeInt, encFloat: TypeFloat, encString: TypeString, encFalse: TypeBool, encTrue: TypeBool}

// Int reads field i, whose Kind is TypeInt.
func (v *View) Int(i int) int64 { return readInt(v.field(i)) }

// Float reads field i, whose Kind is TypeFloat.
func (v *View) Float(i int) float64 { return readFloat(v.field(i)) }

// Str reads field i, whose Kind is TypeString. The string is Value(i).S:
// it aliases the record bytes.
func (v *View) Str(i int) string { return readString(v.field(i)) }

// Bool reads field i, whose Kind is TypeBool.
func (v *View) Bool(i int) bool { return v.b[v.off[i]] == encTrue }

// NumericField reads field i of the record b, whose field starts — and,
// last, len(b) — are starts, as FieldStarts found them, as one entry of a
// column: its type (zero for NULL) and eight bytes of value, an INTEGER's
// int64 or a FLOAT's float64 bits. ok is false when the record has no
// field i or the field is a VARCHAR or a BOOLEAN: a column holds only
// what a comparison with a number or a COUNT or SUM reads without an
// error. The B-tree builds a leaf's columns with it (btree.Run.Column).
func NumericField(b []byte, starts []uint16, i int) (kind Type, bits uint64, ok bool) {
	if i < 0 || i >= len(starts)-1 {
		return 0, 0, false
	}
	f := b[starts[i]:starts[i+1]]
	switch f[0] {
	case encNull:
		return 0, 0, true
	case encInt:
		return TypeInt, uint64(readInt(f)), true
	case encFloat:
		return TypeFloat, binary.LittleEndian.Uint64(f[1:]), true
	}
	return 0, 0, false
}

// AppendField appends field i's wire encoding (what AppendValue would
// write for Value(i)) to dst.
func (v *View) AppendField(dst []byte, i int) []byte { return append(dst, v.field(i)...) }

// AppendRow appends the row of the record's fields proj, in proj's order
// — the frame Encode would build of those values, assembled from their
// encoded bytes without decoding one. A nil proj is the whole record. An
// ordinal the record does not have is an error, not a panic: proj comes
// from a schema and the record from a disk or a message.
func (v *View) AppendRow(dst []byte, proj []int) ([]byte, error) {
	if proj == nil {
		return append(dst, v.b...), nil
	}
	dst = binary.AppendUvarint(dst, uint64(len(proj)))
	for _, f := range proj {
		if f < 0 || f >= v.Len() {
			return dst, fmt.Errorf("record: projected field ordinal %d out of range (row has %d fields)", f, v.Len())
		}
		dst = v.AppendField(dst, f)
	}
	return dst, nil
}

// RowLen returns how many bytes AppendRow appends for proj: what a reply
// sizes its buffer by before it assembles a row. An ordinal the record
// does not have counts nothing; AppendRow refuses it.
func (v *View) RowLen(proj []int) int {
	if proj == nil {
		return len(v.b)
	}
	n := uvarintLen(uint64(len(proj)))
	for _, f := range proj {
		if uint(f) < uint(v.Len()) {
			n += int(v.off[f+1] - v.off[f])
		}
	}
	return n
}

// AppendKey appends field i's order-preserving key encoding (what
// Value(i).AppendKey would write) to dst, from the encoded field.
func (v *View) AppendKey(dst []byte, i int) []byte {
	f := v.field(i)
	switch f[0] {
	case encInt:
		return keys.AppendInt64(dst, readInt(f))
	case encFloat:
		return keys.AppendFloat64(dst, readFloat(f))
	case encString:
		return keys.AppendString(dst, readString(f))
	case encFalse, encTrue:
		return keys.AppendBool(dst, f[0] == encTrue)
	}
	return keys.AppendNull(dst)
}

// BorrowValue decodes the wire-encoded value at the head of b and
// returns how many bytes it took: valueLen, the one place the value
// encoding is validated, then readValue, the one place it is read. It is
// DecodeValue without the copy: a VARCHAR's S aliases b and is valid only
// while b is unchanged. Whoever keeps the value keeps strings.Clone(S).
func BorrowValue(b []byte) (Value, int, error) {
	n, err := valueLen(b)
	if err != nil {
		return Null, 0, err
	}
	return readValue(b[:n]), n, nil
}

// valueLen validates the wire-encoded value at the head of b — tag,
// varints, lengths against what is there — and returns how many bytes it
// takes. No value is built.
func valueLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("record: empty value encoding")
	}
	switch b[0] {
	case encNull, encFalse, encTrue:
		return 1, nil
	case encInt:
		// binary.Varint's refusals without its arithmetic: the last byte
		// within ten, and the tenth carrying at most the sixty-fourth bit.
		for i, c := range b[1:min(len(b), 1+binary.MaxVarintLen64)] {
			if c < 0x80 {
				if i == binary.MaxVarintLen64-1 && c > 1 {
					break
				}
				return 2 + i, nil
			}
		}
		return 0, fmt.Errorf("record: bad varint")
	case encFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("record: truncated float")
		}
		return 9, nil
	case encString:
		l, n := uvarint(b[1:])
		if n <= 0 || uint64(len(b)-1-n) < l {
			return 0, fmt.Errorf("record: truncated string")
		}
		return 1 + n + int(l), nil
	}
	return 0, fmt.Errorf("record: unknown value tag %d", b[0])
}

// readValue reads the value whose encoding is exactly b, which valueLen
// has accepted: nothing is checked here.
func readValue(b []byte) Value {
	switch b[0] {
	case encInt:
		return Int(readInt(b))
	case encFloat:
		return Float(readFloat(b))
	case encString:
		return String(readString(b))
	case encFalse, encTrue:
		return Bool(b[0] == encTrue)
	}
	return Null
}

// readInt, readFloat and readString read a checked field of that tag.

func readInt(b []byte) int64 {
	ux := uint64(b[1])
	switch {
	case ux < 0x80:
	case b[2] < 0x80: // two bytes: |x| below 8192
		ux = ux&0x7f | uint64(b[2])<<7
	default:
		x, _ := binary.Varint(b[1:])
		return x
	}
	return int64(ux>>1) ^ -int64(ux&1) // zig-zag, as binary.Varint
}

func readFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[1:]))
}

func readString(b []byte) string {
	_, n := uvarint(b[1:])
	s := b[1+n:]
	return unsafe.String(unsafe.SliceData(s), len(s))
}

// uvarint is binary.Uvarint with the one-byte case — a string shorter
// than 128 bytes — inline.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return binary.Uvarint(b)
}
