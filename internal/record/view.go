package record

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// A View reads one encoded record where it lies. Reset validates the
// whole frame — everything Decode checks, with Decode's errors — in one
// pass that allocates nothing and notes where each field starts; after
// that a field is reached by ordinal: materialised as a Value, or copied
// as its encoded bytes or its key bytes without building a Value.
//
// The View borrows the bytes it was Reset over, and a VARCHAR Value's S
// aliases them. In the Disk Process those bytes are a cell of a pinned,
// latched cache page (btree.ScanFunc), valid until the scan callback
// returns: whatever outlives the callback is copied (AppendField,
// AppendKey copy; a kept Value.S needs strings.Clone).
//
// The offset table is the View's own scratch, reused from one Reset to
// the next: a View is owned by one goroutine and costs one allocation per
// owner, not per record. The zero View is ready for Reset.
type View struct {
	b   []byte
	off []uint32 // off[i] is where field i starts; off[Len()] == len(b)
}

// Reset points the view at the encoded record b. The whole frame is
// checked, not just the fields a caller will ask for: a record the Disk
// Process cannot read in full is refused before any part of it is
// counted, shipped or aggregated. It is Decode's walk — the same checks
// in the same order with the same errors, which FuzzRecordView holds the
// two to — keeping an offset where Decode keeps a value.
func (v *View) Reset(b []byte) error {
	off, err := fieldOffsets(b, v.off[:0])
	if err != nil {
		v.b, v.off = nil, off[:0]
		return err
	}
	v.b, v.off = b, off
	return nil
}

// fieldOffsets walks the frame b, appending to off where each field
// starts and, last, len(b).
func fieldOffsets(b []byte, off []uint32) ([]uint32, error) {
	n, pos := binary.Uvarint(b)
	if pos <= 0 {
		return off, fmt.Errorf("record: bad row header")
	}
	// n is untrusted: every field takes at least one byte, so the walk —
	// and the table — is bounded by len(b) whatever the header claims.
	off = slices.Grow(off, int(min(n, uint64(len(b))))+1)
	for i := uint64(0); i < n; i++ {
		_, sz, err := BorrowValue(b[pos:])
		if err != nil {
			return off, fmt.Errorf("record: field %d: %w", i, err)
		}
		off = append(off, uint32(pos))
		pos += sz
	}
	if pos != len(b) {
		return off, fmt.Errorf("record: %d trailing bytes", len(b)-pos)
	}
	return append(off, uint32(pos)), nil
}

// Len returns the record's field count.
func (v *View) Len() int { return max(len(v.off)-1, 0) }

// field returns field i's encoded bytes, borrowed.
func (v *View) field(i int) []byte { return v.b[v.off[i]:v.off[i+1]] }

// Value materialises field i. A VARCHAR's S aliases the record bytes;
// see the type's comment. It panics if i is out of range, like indexing
// a Row.
func (v *View) Value(i int) Value {
	val, _, _ := BorrowValue(v.field(i)) // Reset has checked the field
	return val
}

// AppendField appends field i's wire encoding (what AppendValue would
// write for Value(i)) to dst.
func (v *View) AppendField(dst []byte, i int) []byte { return append(dst, v.field(i)...) }

// AppendKey appends field i's order-preserving key encoding (what
// Value(i).AppendKey would write) to dst.
func (v *View) AppendKey(dst []byte, i int) []byte { return v.Value(i).AppendKey(dst) }

// BorrowValue decodes the wire-encoded value at the head of b and
// returns how many bytes it took. It is DecodeValue without the copy, and
// the one place the value encoding is validated and read: a VARCHAR's S
// aliases b and is valid only while b is unchanged. Whoever keeps the
// value keeps strings.Clone(S).
func BorrowValue(b []byte) (Value, int, error) {
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
		s := b[1+n : 1+n+int(l)]
		return String(unsafe.String(unsafe.SliceData(s), len(s))), 1 + n + int(l), nil
	case encFalse:
		return Bool(false), 1, nil
	case encTrue:
		return Bool(true), 1, nil
	}
	return Null, 0, fmt.Errorf("record: unknown value tag %d", b[0])
}
