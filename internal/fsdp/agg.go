package fsdp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"nonstopsql/internal/record"
)

// This file defines the AGG^FIRST/NEXT payloads: the aggregate
// specification the File System ships once per conversation, and the
// per-group partial states the Disk Process ships back. Only
// decomposable aggregates travel here — functions whose per-partition
// partial states merge commutatively at the File System (COUNT, SUM,
// MIN, MAX; AVG decomposes into SUM+COUNT at the planner). DISTINCT and
// expression arguments are not decomposable and stay on the row path.

// AggFn identifies one decomposable aggregate function.
type AggFn uint8

const (
	AggCount AggFn = iota + 1 // COUNT(*) / COUNT(col)
	AggSum                    // SUM(col)
	AggMin                    // MIN(col)
	AggMax                    // MAX(col)
)

// String returns the function's SQL name.
func (f AggFn) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFn(%d)", uint8(f))
}

// AggCol is one aggregate output: a function over a field ordinal (or
// over whole records, for COUNT(*)).
type AggCol struct {
	Fn   AggFn
	Star bool // COUNT(*): count records, ignore Col
	Col  int  // field ordinal of the argument (Star=false)
}

// AggSpec is the partial-aggregation program the Disk Process runs per
// qualifying record: extract the GROUP BY key fields, then fold the
// record into each aggregate column's partial state for that group.
type AggSpec struct {
	GroupBy []int // field ordinals of the GROUP BY keys (may be empty)
	Cols    []AggCol
}

// EncodeAggSpec serializes an aggregate specification.
func EncodeAggSpec(s *AggSpec) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(s.GroupBy)))
	for _, g := range s.GroupBy {
		b = binary.AppendUvarint(b, uint64(g))
	}
	b = binary.AppendUvarint(b, uint64(len(s.Cols)))
	for _, c := range s.Cols {
		b = append(b, byte(c.Fn))
		if c.Star {
			b = append(b, 1)
			b = binary.AppendUvarint(b, 0)
		} else {
			b = append(b, 0)
			b = binary.AppendUvarint(b, uint64(c.Col))
		}
	}
	return b
}

// DecodeAggSpecInto parses an aggregate specification into s, whose lists
// it reuses: the Disk Process decodes a conversation's specification into
// its Subset Control Block's. It refuses what no encoder of a valid
// specification writes: a function it does not know, and a field ordinal
// that does not fit in an int32 — no record has that many fields, and an
// int that has wrapped negative names none either.
func DecodeAggSpecInto(s *AggSpec, b []byte) error {
	s.GroupBy, s.Cols = s.GroupBy[:0], s.Cols[:0]
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("fsdp: bad agg group-by count")
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		g, sz := binary.Uvarint(b)
		if sz <= 0 || g > math.MaxInt32 {
			return fmt.Errorf("fsdp: bad agg group-by ordinal")
		}
		s.GroupBy = append(s.GroupBy, int(g))
		b = b[sz:]
	}
	n, sz = binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("fsdp: bad agg column count")
	}
	b = b[sz:]
	for i := uint64(0); i < n; i++ {
		if len(b) < 2 {
			return fmt.Errorf("fsdp: truncated agg column")
		}
		c := AggCol{Fn: AggFn(b[0]), Star: b[1] == 1}
		if c.Fn < AggCount || c.Fn > AggMax {
			return fmt.Errorf("fsdp: unknown aggregate function %d", b[0])
		}
		b = b[2:]
		col, sz := binary.Uvarint(b)
		if sz <= 0 || col > math.MaxInt32 {
			return fmt.Errorf("fsdp: bad agg column ordinal")
		}
		c.Col = int(col)
		b = b[sz:]
		s.Cols = append(s.Cols, c)
	}
	if len(b) != 0 {
		return fmt.Errorf("fsdp: %d trailing agg spec bytes", len(b))
	}
	return nil
}

// AggPartial is one aggregate column's partial state for one group. The
// same shape serves every function: COUNT uses Count; SUM uses
// Count+SumI/SumF (Float reports whether any input was non-integer);
// MIN/MAX use Count (non-null inputs seen) + Val.
type AggPartial struct {
	Count int64
	SumI  int64
	SumF  float64
	Float bool
	Val   record.Value
}

// own returns v with its string copied: Feed and Merge are handed values
// that may borrow a cache page (record.View) or a reply buffer
// (decodeGroup), and a partial outlives both.
func own(v record.Value) record.Value {
	v.S = strings.Clone(v.S)
	return v
}

// The Disk Process folds a record into a partial through one of the four
// methods below. Each returns by how many bytes the partial's reply
// encoding (AppendGroup, GroupLen) grew: a varint's next byte, a longer
// MIN/MAX value — nearly always nothing — which is what the group is
// charged against the reply block without weighing it again per record.
// NULL arguments are skipped by the caller (SQL aggregates ignore NULLs).

// AddCount folds one input into a COUNT: a record for COUNT(*), a
// non-NULL argument for COUNT(col).
func (p *AggPartial) AddCount() int {
	p.Count++
	if p.Count&(p.Count-1) != 0 {
		return 0 // a varint lengthens only on reaching a power of two
	}
	return varintLen(p.Count) - varintLen(p.Count-1)
}

// AddInt folds one INTEGER argument into a SUM.
func (p *AggPartial) AddInt(i int64) int {
	was := varintLen(p.SumI)
	p.SumI += i
	p.SumF += float64(i)
	return varintLen(p.SumI) - was + p.AddCount()
}

// AddFloat folds one FLOAT argument into a SUM.
func (p *AggPartial) AddFloat(f float64) int {
	p.Float = true
	p.SumF += f
	return p.AddCount()
}

// Feed folds one argument value of any kind into any function's partial,
// copying the value if it is kept (MIN, MAX). A SUM of something that is
// no number counts it and adds nothing, but no caller asks for one: the
// SQL compiler refuses such a SUM, and the Disk Process refuses one that
// arrives off the network.
func (p *AggPartial) Feed(fn AggFn, v record.Value) int {
	switch {
	case fn == AggSum && v.Kind == record.TypeInt:
		return p.AddInt(v.I)
	case fn == AggSum:
		return p.AddFloat(v.AsFloat())
	}
	was := record.ValueLen(p.Val)
	switch fn {
	case AggMin:
		if p.Count == 0 || v.Compare(p.Val) < 0 {
			p.Val = own(v)
		}
	case AggMax:
		if p.Count == 0 || v.Compare(p.Val) > 0 {
			p.Val = own(v)
		}
	}
	return record.ValueLen(p.Val) - was + p.AddCount()
}

// Merge folds another partition's partial state into p, copying o.Val if
// kept. Merging is commutative and associative, which is what makes
// these functions decomposable in the first place.
func (p *AggPartial) Merge(fn AggFn, o AggPartial) {
	if o.Count > 0 {
		switch fn {
		case AggMin:
			if p.Count == 0 || o.Val.Compare(p.Val) < 0 {
				p.Val = own(o.Val)
			}
		case AggMax:
			if p.Count == 0 || o.Val.Compare(p.Val) > 0 {
				p.Val = own(o.Val)
			}
		}
	}
	p.Count += o.Count
	p.SumI += o.SumI
	p.SumF += o.SumF
	p.Float = p.Float || o.Float
}

// AppendGroup appends one group's reply entry to b: the GROUP BY key as
// a record frame (nkeys and keyFields, the key values' wire encodings
// back to back — the Disk Process copies them from the record where it
// lies) followed by one partial per AggSpec column.
func AppendGroup(b []byte, nkeys int, keyFields []byte, partials []AggPartial) []byte {
	b = binary.AppendUvarint(b, uint64(nkeys))
	b = append(b, keyFields...)
	for i := range partials {
		p := &partials[i]
		b = binary.AppendVarint(b, p.Count)
		b = binary.AppendVarint(b, p.SumI)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.SumF))
		if p.Float {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = record.AppendValue(b, p.Val)
	}
	return b
}

// GroupLen returns len(AppendGroup(nil, nkeys, keyFields, partials)) for
// keyFields of the given length, without encoding: what the Disk Process
// charges a group against the reply block while it is still folding
// records into it.
func GroupLen(nkeys, keyFieldsLen int, partials []AggPartial) int {
	n := uvarintLen(uint64(nkeys)) + keyFieldsLen
	for i := range partials {
		p := &partials[i]
		n += varintLen(p.Count) + varintLen(p.SumI) + 8 + 1 + record.ValueLen(p.Val)
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) } // zig-zag, as binary.AppendVarint

// decodeGroup parses one group entry produced by AppendGroup into the
// caller's scratch, and says where in b the key values lie: key values are
// appended to keyVals[:0] and ncols partials (the AggSpec's column count;
// the entry carries no count of its own) to partials[:0]. VARCHAR values
// borrow b (record.BorrowValue), so a requester folding thousands of
// entries allocates only for what it keeps.
func decodeGroup(b []byte, ncols int, keyVals record.Row, partials []AggPartial) (record.Row, []byte, []AggPartial, error) {
	keyVals, partials = keyVals[:0], partials[:0]
	nk, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, nil, nil, fmt.Errorf("fsdp: bad group key count")
	}
	b = b[sz:]
	fields := b
	for i := uint64(0); i < nk; i++ {
		v, n, err := record.BorrowValue(b)
		if err != nil {
			return nil, nil, nil, err
		}
		keyVals, b = append(keyVals, v), b[n:]
	}
	fields = fields[:len(fields)-len(b)]
	for i := 0; i < ncols; i++ {
		var p AggPartial
		var n int
		p.Count, n = binary.Varint(b)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("fsdp: bad partial count")
		}
		b = b[n:]
		p.SumI, n = binary.Varint(b)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("fsdp: bad partial sum")
		}
		b = b[n:]
		if len(b) < 9 {
			return nil, nil, nil, fmt.Errorf("fsdp: truncated partial")
		}
		p.SumF = math.Float64frombits(binary.LittleEndian.Uint64(b))
		p.Float = b[8] == 1
		var err error
		if p.Val, n, err = record.BorrowValue(b[9:]); err != nil {
			return nil, nil, nil, err
		}
		partials, b = append(partials, p), b[9+n:]
	}
	if len(b) != 0 {
		return nil, nil, nil, fmt.Errorf("fsdp: %d trailing group bytes", len(b))
	}
	return keyVals, fields, partials, nil
}
