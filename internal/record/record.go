// Package record implements the record management data model shared by
// ENSCRIBE and NonStop SQL: schemas with numbered field descriptors,
// typed values, binary row encoding, projection by field number, and the
// field-image diffing that enables field-compressed TMF audit records.
package record

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"nonstopsql/internal/keys"
)

// Type identifies a field's SQL data type.
type Type uint8

const (
	TypeInt Type = iota + 1 // 64-bit signed integer
	TypeFloat
	TypeString
	TypeBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "VARCHAR"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// A Value is one typed field value. The zero Value is SQL NULL.
type Value struct {
	Kind Type // zero means NULL regardless of other fields
	I    int64
	F    float64
	S    string
	B    bool
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{Kind: TypeInt, I: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{Kind: TypeFloat, F: v} }

// String returns a VARCHAR value.
func String(v string) Value { return Value{Kind: TypeString, S: v} }

// Bool returns a BOOLEAN value.
func Bool(v bool) Value { return Value{Kind: TypeBool, B: v} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == 0 }

// Equal reports whether two values are identical (NULL equals NULL here;
// SQL three-valued comparison lives in package expr).
func (v Value) Equal(o Value) bool { return v == o }

// Format renders the value for display.
func (v Value) Format() string {
	switch v.Kind {
	case 0:
		return "NULL"
	case TypeInt:
		return fmt.Sprintf("%d", v.I)
	case TypeFloat:
		return fmt.Sprintf("%g", v.F)
	case TypeString:
		return v.S
	case TypeBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Compare orders two non-null values of the same kind: -1, 0, or +1.
// NULL sorts before everything; mixed int/float compare numerically and
// exactly (CompareIntFloat). A FLOAT NaN sorts below every other number
// and equal to itself, where the key encoding puts it; in a predicate a
// NaN compares as unknown instead (package expr).
func (v Value) Compare(o Value) int {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.IsNull() && o.IsNull():
			return 0
		case v.IsNull():
			return -1
		default:
			return 1
		}
	}
	switch {
	case v.Kind == TypeInt && o.Kind == TypeInt:
		return cmp.Compare(v.I, o.I)
	case v.Kind == TypeInt && o.Kind == TypeFloat:
		return CompareIntFloat(v.I, o.F)
	case v.Kind == TypeFloat && o.Kind == TypeInt:
		return -CompareIntFloat(o.I, v.F)
	case v.Kind == TypeFloat && o.Kind == TypeFloat:
		return cmp.Compare(v.F, o.F) // NaN below everything, as the key encoding
	}
	switch v.Kind {
	case TypeString:
		return strings.Compare(v.S, o.S)
	case TypeBool:
		switch {
		case !v.B && o.B:
			return -1
		case v.B && !o.B:
			return 1
		}
		return 0
	}
	return 0
}

// CompareIntFloat orders the INTEGER i against the FLOAT f exactly: i
// against f's integral part, then f's fraction. Converting i to float64
// instead would round past 2^53, where neighbouring integers would compare
// equal to the same FLOAT. A NaN f is below every integer, as in Compare.
// It is the one mixed-type comparison: Compare, the Disk Process's MIN and
// MAX (through Compare) and expr's compiled comparisons all use it.
func CompareIntFloat(i int64, f float64) int {
	const two63 = 1 << 63 // as a float64: one past the largest int64
	switch {
	case f != f:
		return 1
	case f >= two63:
		return -1
	case f < -two63:
		return 1
	}
	whole := math.Trunc(f) // in int64's range, so the conversion is exact
	if c := cmp.Compare(i, int64(whole)); c != 0 {
		return c
	}
	return cmp.Compare(whole, f) // a fraction decides: i == whole
}

// AsFloat converts a numeric value to float64.
func (v Value) AsFloat() float64 {
	if v.Kind == TypeInt {
		return float64(v.I)
	}
	return v.F
}

// AppendKey appends the value to an order-preserving key encoding.
func (v Value) AppendKey(b []byte) []byte {
	switch v.Kind {
	case 0:
		return keys.AppendNull(b)
	case TypeInt:
		return keys.AppendInt64(b, v.I)
	case TypeFloat:
		return keys.AppendFloat64(b, v.F)
	case TypeString:
		return keys.AppendString(b, v.S)
	case TypeBool:
		return keys.AppendBool(b, v.B)
	}
	panic("record: bad value kind")
}

// ValueFromKey converts a decoded key field back to a Value.
func ValueFromKey(x any) Value {
	switch t := x.(type) {
	case nil:
		return Null
	case int64:
		return Int(t)
	case float64:
		return Float(t)
	case string:
		return String(t)
	case bool:
		return Bool(t)
	}
	panic("record: bad decoded key field")
}

// A Field describes one column: the paper's "record descriptor field".
type Field struct {
	Name    string
	Type    Type
	NotNull bool
}

// A Schema describes a table or file's record layout. KeyFields gives the
// ordinal positions (in key order) of the primary-key columns; records
// are physically clustered by this key in key-sequenced files.
type Schema struct {
	Name      string
	Fields    []Field
	KeyFields []int
	byName    map[string]int
}

// NewSchema builds a schema, validating field names and key references.
func NewSchema(name string, fields []Field, keyFields []int) (*Schema, error) {
	s := &Schema{Name: name, Fields: fields, KeyFields: keyFields, byName: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("record: schema %q: field %d has empty name", name, i)
		}
		u := strings.ToUpper(f.Name)
		if _, dup := s.byName[u]; dup {
			return nil, fmt.Errorf("record: schema %q: duplicate field %q", name, f.Name)
		}
		if f.Type < TypeInt || f.Type > TypeBool {
			return nil, fmt.Errorf("record: schema %q: field %q has bad type", name, f.Name)
		}
		s.byName[u] = i
	}
	if len(keyFields) == 0 {
		return nil, fmt.Errorf("record: schema %q: no key fields", name)
	}
	seen := make(map[int]bool)
	for _, k := range keyFields {
		if k < 0 || k >= len(fields) {
			return nil, fmt.Errorf("record: schema %q: key field %d out of range", name, k)
		}
		if seen[k] {
			return nil, fmt.Errorf("record: schema %q: key field %d repeated", name, k)
		}
		seen[k] = true
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and fixtures.
func MustSchema(name string, fields []Field, keyFields []int) *Schema {
	s, err := NewSchema(name, fields, keyFields)
	if err != nil {
		panic(err)
	}
	return s
}

// FieldIndex returns the ordinal of the named field (case-insensitive),
// or -1 if absent.
func (s *Schema) FieldIndex(name string) int {
	if i, ok := s.byName[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// IsKeyField reports whether field ordinal i is part of the primary key.
func (s *Schema) IsKeyField(i int) bool {
	for _, k := range s.KeyFields {
		if k == i {
			return true
		}
	}
	return false
}

// A Row is one record's values, indexed by field ordinal.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Validate checks the row against the schema: arity, types, NOT NULL.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Fields) {
		return fmt.Errorf("record: %q: row has %d values, schema has %d fields", s.Name, len(r), len(s.Fields))
	}
	for i, v := range r {
		f := s.Fields[i]
		if v.IsNull() {
			if f.NotNull {
				return fmt.Errorf("record: %q: field %q is NOT NULL", s.Name, f.Name)
			}
			continue
		}
		if v.Kind != f.Type {
			// Permit exact int<->float coercion on store.
			if f.Type == TypeFloat && v.Kind == TypeInt {
				continue
			}
			return fmt.Errorf("record: %q: field %q: value kind %v, want %v", s.Name, f.Name, v.Kind, f.Type)
		}
	}
	for _, k := range s.KeyFields {
		if r[k].IsNull() {
			return fmt.Errorf("record: %q: key field %q is NULL", s.Name, s.Fields[k].Name)
		}
	}
	return nil
}

// Coerce normalizes a row in place to schema types (int literals stored
// into FLOAT columns become floats).
func (s *Schema) Coerce(r Row) {
	for i := range r {
		if i < len(s.Fields) && s.Fields[i].Type == TypeFloat && r[i].Kind == TypeInt {
			r[i] = Float(float64(r[i].I))
		}
	}
}

// Key returns the encoded primary key of the row.
func (s *Schema) Key(r Row) []byte { return s.AppendKey(nil, r) }

// AppendKey appends the encoded primary key of the row to b.
func (s *Schema) AppendKey(b []byte, r Row) []byte {
	for _, k := range s.KeyFields {
		b = r[k].AppendKey(b)
	}
	return b
}

// KeyOf encodes the given values as a key for this schema's key columns.
func (s *Schema) KeyOf(vals ...Value) []byte {
	var b []byte
	for _, v := range vals {
		b = v.AppendKey(b)
	}
	return b
}

// Value wire encoding tags.
const (
	encNull   = 0
	encInt    = 1
	encFloat  = 2
	encString = 3
	encFalse  = 4
	encTrue   = 5
)

// AppendValue appends the wire (non-key) encoding of a value.
func AppendValue(b []byte, v Value) []byte {
	switch v.Kind {
	case 0:
		return append(b, encNull)
	case TypeInt:
		b = append(b, encInt)
		return binary.AppendVarint(b, v.I)
	case TypeFloat:
		b = append(b, encFloat)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
		return append(b, buf[:]...)
	case TypeString:
		b = append(b, encString)
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		return append(b, v.S...)
	case TypeBool:
		if v.B {
			return append(b, encTrue)
		}
		return append(b, encFalse)
	}
	panic("record: bad value kind")
}

// DecodeValue decodes one wire-encoded value, returning the remainder.
// The value owns its string.
func DecodeValue(b []byte) (Value, []byte, error) {
	v, n, err := BorrowValue(b)
	if err != nil {
		return Null, nil, err
	}
	if v.Kind == TypeString {
		v.S = strings.Clone(v.S)
	}
	return v, b[n:], nil
}

// Encode serializes a full row, into one allocation of its size. The
// schema is implicit (field count from the schema at decode time); values
// are tagged so decode is self-framing.
func Encode(r Row) []byte { return AppendEncode(make([]byte, 0, EncodedLen(r)), r) }

// AppendEncode appends Encode(r) to b.
func AppendEncode(b []byte, r Row) []byte {
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, v := range r {
		b = AppendValue(b, v)
	}
	return b
}

// EncodedLen returns len(Encode(r)) without encoding: what a message
// codec needs to write a row's length prefix, and to size its buffer,
// before the row.
func EncodedLen(r Row) int {
	n := uvarintLen(uint64(len(r)))
	for _, v := range r {
		n += ValueLen(v)
	}
	return n
}

// ValueLen returns len(AppendValue(nil, v)) without encoding.
func ValueLen(v Value) int {
	switch v.Kind {
	case TypeInt:
		return 1 + uvarintLen(uint64(v.I)<<1^uint64(v.I>>63)) // zig-zag, as binary.AppendVarint
	case TypeFloat:
		return 1 + 8
	case TypeString:
		return 1 + uvarintLen(uint64(len(v.S))) + len(v.S)
	}
	return 1 // the tag says it all: NULL, TRUE, FALSE
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Decode deserializes a full row produced by Encode into a Row the
// caller owns. The Disk Process's scans do not come here: they read the
// record where it lies through a View, whose Reset is this same walk.
func Decode(b []byte) (Row, error) {
	_, row, err := AppendDecode(nil, b)
	return row, err
}

// AppendBorrowed is AppendDecode without the copies: a VARCHAR's value
// aliases b (BorrowValue), so the row is valid only while b's bytes are
// unchanged, and whoever keeps a value keeps a clone of its string.
func AppendBorrowed(arena Row, b []byte) (_, row Row, err error) {
	return appendDecode(arena, b, true)
}

// AppendDecode is Decode into an arena: the row's values go behind the
// ones arena already holds, so that many rows share one allocation, and
// the row comes back as the slice of the arena it occupies, clipped to
// its length — an append to it reallocates rather than write into its
// neighbour. A nil arena is made to fit the row. On error the arena comes
// back without the row.
func AppendDecode(arena Row, b []byte) (_, row Row, err error) {
	return appendDecode(arena, b, false)
}

func appendDecode(arena Row, b []byte, borrow bool) (_, row Row, err error) {
	n, pos := binary.Uvarint(b)
	if pos <= 0 {
		return arena, nil, fmt.Errorf("record: bad row header")
	}
	if arena == nil {
		// n is untrusted; every field takes at least one byte.
		arena = make(Row, 0, min(n, uint64(len(b))))
	}
	start := len(arena)
	for i := uint64(0); i < n; i++ {
		v, sz, err := BorrowValue(b[pos:])
		if err != nil {
			return arena[:start], nil, fmt.Errorf("record: field %d: %w", i, err)
		}
		if v.Kind == TypeString && !borrow {
			v.S = strings.Clone(v.S)
		}
		arena = append(arena, v)
		pos += sz
	}
	if pos != len(b) {
		return arena[:start], nil, fmt.Errorf("record: %d trailing bytes", len(b)-pos)
	}
	return arena, arena[start:len(arena):len(arena)], nil
}

// AppendDiffFields appends to dst the ordinals of fields whose values
// differ between old and new. ENSCRIBE must compute this by comparing
// full before/after images; SQL knows it from the SET list, but both
// converge on this set.
func AppendDiffFields(dst []int, old, new Row) []int {
	for i := range old {
		if i >= len(new) || !old[i].Equal(new[i]) {
			dst = append(dst, i)
		}
	}
	for i := len(old); i < len(new); i++ {
		dst = append(dst, i)
	}
	return dst
}

// FieldImage is one (field ordinal, value) pair inside a field-compressed
// audit image.
type FieldImage struct {
	Field int
	Value Value
}

// AppendFieldImages appends the values of the chosen fields to b: the
// paper's field-compressed before- or after-image.
func AppendFieldImages(b []byte, r Row, fields []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(fields)))
	for _, f := range fields {
		b = binary.AppendUvarint(b, uint64(f))
		b = AppendValue(b, r[f])
	}
	return b
}

// DecodeFieldImages parses a field-compressed image.
func DecodeFieldImages(b []byte) ([]FieldImage, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("record: bad field image header")
	}
	b = b[sz:]
	out := make([]FieldImage, 0, n)
	for i := uint64(0); i < n; i++ {
		f, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, fmt.Errorf("record: bad field ordinal")
		}
		b = b[sz:]
		v, rest, err := DecodeValue(b)
		if err != nil {
			return nil, err
		}
		out = append(out, FieldImage{Field: int(f), Value: v})
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("record: %d trailing bytes in field images", len(b))
	}
	return out, nil
}

// ApplyFieldImages overwrites row fields from a decoded image; used by
// undo/redo when replaying field-compressed audit records.
func ApplyFieldImages(r Row, imgs []FieldImage) error {
	for _, img := range imgs {
		if img.Field < 0 || img.Field >= len(r) {
			return fmt.Errorf("record: field image ordinal %d out of range", img.Field)
		}
		r[img.Field] = img.Value
	}
	return nil
}
