// Package keys implements order-preserving binary encoding of composite
// record keys, and key ranges as used by the set-oriented FS-DP interface.
//
// Every encoded key is a []byte whose lexicographic order (bytes.Compare)
// equals the logical order of the original field values. This lets the
// Disk Process's B-tree, the lock manager's generic (key-prefix) locks,
// and the File System's partition routing all operate on plain byte
// strings, exactly as the Tandem record managers did.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Field tag bytes. Each encoded field begins with a tag so that SQL NULL
// sorts below every non-null value and so decoders can recover field
// boundaries without a schema.
const (
	tagNull   = 0x01
	tagFalse  = 0x02
	tagTrue   = 0x03
	tagInt    = 0x04
	tagFloat  = 0x05
	tagString = 0x06
)

// AppendNull appends an SQL NULL, which sorts before any non-null value.
func AppendNull(b []byte) []byte { return append(b, tagNull) }

// AppendBool appends a boolean; false sorts before true.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, tagTrue)
	}
	return append(b, tagFalse)
}

// AppendInt64 appends a signed integer in an order-preserving encoding
// (sign bit flipped, big-endian).
func AppendInt64(b []byte, v int64) []byte {
	b = append(b, tagInt)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(v)^(1<<63))
	return append(b, buf[:]...)
}

// AppendFloat64 appends an IEEE-754 double in an order-preserving
// encoding. NaN is encoded below every other float, -Inf included, and
// decodes as a NaN. −0 is encoded as +0: the two compare equal, so they
// are one key — one row of a FLOAT primary key, one index entry's value,
// one GROUP BY group — and decode as +0.
func AppendFloat64(b []byte, v float64) []byte {
	b = append(b, tagFloat)
	u := math.Float64bits(v)
	switch {
	case math.IsNaN(v):
		u = 0 // below -Inf, whose encoding is ^bits(-Inf)
	case v == 0:
		u = 1 << 63 // +0, whichever zero v is
	case u&(1<<63) != 0:
		u = ^u // negative: flip all bits
	default:
		u ^= 1 << 63 // positive: flip sign bit
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], u)
	return append(b, buf[:]...)
}

// AppendString appends a string (or raw byte key segment) with 0x00
// escaped as 0x00 0xFF and terminated by 0x00 0x00, preserving order for
// arbitrary content including embedded zero bytes.
func AppendString(b []byte, s string) []byte {
	b = append(b, tagString)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			b = append(b, 0x00, 0xFF)
		} else {
			b = append(b, c)
		}
	}
	return append(b, 0x00, 0x00)
}

// DecodeNext decodes the first encoded field of k, returning the value
// (nil for NULL, bool, int64, float64, or string) and the remainder of k.
func DecodeNext(k []byte) (any, []byte, error) {
	if len(k) == 0 {
		return nil, nil, fmt.Errorf("keys: empty key")
	}
	tag, rest := k[0], k[1:]
	switch tag {
	case tagNull:
		return nil, rest, nil
	case tagFalse:
		return false, rest, nil
	case tagTrue:
		return true, rest, nil
	case tagInt:
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("keys: truncated int field")
		}
		u := binary.BigEndian.Uint64(rest[:8])
		return int64(u ^ (1 << 63)), rest[8:], nil
	case tagFloat:
		if len(rest) < 8 {
			return nil, nil, fmt.Errorf("keys: truncated float field")
		}
		u := binary.BigEndian.Uint64(rest[:8])
		if u&(1<<63) != 0 {
			u ^= 1 << 63
		} else {
			u = ^u
		}
		return math.Float64frombits(u), rest[8:], nil
	case tagString:
		var out []byte
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c != 0x00 {
				out = append(out, c)
				continue
			}
			if i+1 >= len(rest) {
				return nil, nil, fmt.Errorf("keys: truncated string field")
			}
			switch rest[i+1] {
			case 0x00:
				return string(out), rest[i+2:], nil
			case 0xFF:
				out = append(out, 0x00)
				i++
			default:
				return nil, nil, fmt.Errorf("keys: bad string escape 0x%02x", rest[i+1])
			}
		}
		return nil, nil, fmt.Errorf("keys: unterminated string field")
	default:
		return nil, nil, fmt.Errorf("keys: unknown field tag 0x%02x", tag)
	}
}

// Decode decodes all fields of an encoded key.
func Decode(k []byte) ([]any, error) {
	var out []any
	for len(k) > 0 {
		v, rest, err := DecodeNext(k)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		k = rest
	}
	return out, nil
}

// Compare compares two encoded keys. It is bytes.Compare; provided so
// callers express intent.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// Successor returns the smallest key strictly greater than k: k + 0x00.
// Used by the continuation re-drive protocol to turn an inclusive
// last-processed key into an exclusive new begin-key.
func Successor(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}

// PrefixSuccessor returns the smallest key greater than every key having
// prefix p, or nil if no such key exists (p is all 0xFF). Used for
// generic (key-prefix) lock ranges and partition bounds.
func PrefixSuccessor(p []byte) []byte { return AppendPrefixSuccessor(nil, p) }

// AppendPrefixSuccessor appends PrefixSuccessor(p) to dst and returns the
// extended slice, or nil if p has no successor: PrefixSuccessor into a
// caller's scratch.
func AppendPrefixSuccessor(dst, p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xFF {
			dst = append(dst, p[:i+1]...)
			dst[len(dst)-1]++
			return dst
		}
	}
	return nil
}

// A Range is a span of encoded keys, as carried by set-oriented FS-DP
// requests. A nil Low means "LOW-VALUE" (before every key); a nil High
// means "HIGH-VALUE" (after every key). The initial request from the File
// System uses an inclusive Low; re-drives use an exclusive Low holding
// the last-processed key.
type Range struct {
	Low      []byte
	High     []byte
	LowExcl  bool // Low is exclusive (re-drive continuation)
	HighIncl bool // High is inclusive (the paper's [low, high] ranges)
}

// All returns the range covering every key.
func All() Range { return Range{} }

// Point returns the range containing exactly k.
func Point(k []byte) Range {
	return Range{Low: k, High: k, HighIncl: true}
}

// Prefix returns the range of all keys beginning with prefix p.
func Prefix(p []byte) Range {
	return Range{Low: p, High: PrefixSuccessor(p)}
}

// Contains reports whether k lies inside the range.
func (r Range) Contains(k []byte) bool {
	if r.Low != nil {
		c := bytes.Compare(k, r.Low)
		if c < 0 || (c == 0 && r.LowExcl) {
			return false
		}
	}
	if r.High != nil {
		c := bytes.Compare(k, r.High)
		if c > 0 || (c == 0 && !r.HighIncl) {
			return false
		}
	}
	return true
}

// Empty reports whether the range can contain no key.
func (r Range) Empty() bool {
	if r.Low == nil || r.High == nil {
		return false
	}
	c := bytes.Compare(r.Low, r.High)
	if c > 0 {
		return true
	}
	if c == 0 {
		return r.LowExcl || !r.HighIncl
	}
	return false
}

// AfterHigh reports whether k sorts after the range's high bound.
func (r Range) AfterHigh(k []byte) bool {
	if r.High == nil {
		return false
	}
	c := bytes.Compare(k, r.High)
	return c > 0 || (c == 0 && !r.HighIncl)
}

// Continue returns the range re-positioned for a continuation re-drive:
// the same range with Low replaced by the exclusive last-processed key.
func (r Range) Continue(lastProcessed []byte) Range {
	return Range{Low: lastProcessed, High: r.High, LowExcl: true, HighIncl: r.HighIncl}
}

// Intersect returns the intersection of two ranges.
func (r Range) Intersect(o Range) Range {
	out := r
	if o.Low != nil {
		if out.Low == nil {
			out.Low, out.LowExcl = o.Low, o.LowExcl
		} else if c := bytes.Compare(o.Low, out.Low); c > 0 || (c == 0 && o.LowExcl) {
			out.Low, out.LowExcl = o.Low, o.LowExcl
		}
	}
	if o.High != nil {
		if out.High == nil {
			out.High, out.HighIncl = o.High, o.HighIncl
		} else if c := bytes.Compare(o.High, out.High); c < 0 || (c == 0 && !o.HighIncl) {
			out.High, out.HighIncl = o.High, o.HighIncl
		}
	}
	return out
}

// Overlaps reports whether two ranges share at least one key.
func (r Range) Overlaps(o Range) bool {
	return !r.Intersect(o).Empty()
}

// String renders the range for diagnostics.
func (r Range) String() string {
	lb, rb := "[", ")"
	if r.LowExcl {
		lb = "("
	}
	if r.HighIncl {
		rb = "]"
	}
	lo, hi := "LOW", "HIGH"
	if r.Low != nil {
		lo = fmt.Sprintf("%x", r.Low)
	}
	if r.High != nil {
		hi = fmt.Sprintf("%x", r.High)
	}
	return lb + lo + "," + hi + rb
}
