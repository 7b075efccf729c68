package keys

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestAppendInt64Ordering(t *testing.T) {
	vals := []int64{math.MinInt64, -1 << 40, -65536, -2, -1, 0, 1, 2, 65535, 1 << 40, math.MaxInt64}
	for i := 1; i < len(vals); i++ {
		a := AppendInt64(nil, vals[i-1])
		b := AppendInt64(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("enc(%d) >= enc(%d)", vals[i-1], vals[i])
		}
	}
}

func TestAppendFloat64Ordering(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1.5, -math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64, 1.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a := AppendFloat64(nil, vals[i-1])
		b := AppendFloat64(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("enc(%g) >= enc(%g)", vals[i-1], vals[i])
		}
	}
}

func TestAppendStringOrdering(t *testing.T) {
	vals := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "aa", "ab", "b"}
	for i := 1; i < len(vals); i++ {
		a := AppendString(nil, vals[i-1])
		b := AppendString(nil, vals[i])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("enc(%q) >= enc(%q)", vals[i-1], vals[i])
		}
	}
}

func TestNullSortsLow(t *testing.T) {
	n := AppendNull(nil)
	for _, other := range [][]byte{
		AppendBool(nil, false),
		AppendInt64(nil, math.MinInt64),
		AppendFloat64(nil, math.Inf(-1)),
		AppendString(nil, ""),
	} {
		if bytes.Compare(n, other) >= 0 {
			t.Errorf("NULL does not sort below %x", other)
		}
	}
}

func TestIntOrderProperty(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := AppendInt64(nil, a), AppendInt64(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatOrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, eb := AppendFloat64(nil, a), AppendFloat64(nil, b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// −0 == +0, so the two are one key, and it decodes as +0.
	zero := AppendFloat64(nil, 0)
	if neg := AppendFloat64(nil, math.Copysign(0, -1)); !bytes.Equal(neg, zero) {
		t.Errorf("-0 encodes as %x, +0 as %x", neg, zero)
	}
	if v, _, err := DecodeNext(zero); err != nil || v.(float64) != 0 || math.Signbit(v.(float64)) {
		t.Errorf("zero's key decodes as %v, %v", v, err)
	}
	// NaN sorts below every other float, equal to any other NaN, and
	// decodes as a NaN: not as 0, which it would otherwise share a key —
	// and a GROUP BY group — with.
	nan := AppendFloat64(nil, math.NaN())
	for _, other := range []float64{math.Inf(-1), -math.MaxFloat64, 0, math.Copysign(0, -1), math.Inf(1)} {
		if bytes.Compare(nan, AppendFloat64(nil, other)) >= 0 {
			t.Errorf("NaN does not encode below %v", other)
		}
	}
	if !bytes.Equal(nan, AppendFloat64(nil, -math.NaN())) {
		t.Error("two NaNs encode differently")
	}
	if v, rest, err := DecodeNext(nan); err != nil || len(rest) != 0 || !math.IsNaN(v.(float64)) {
		t.Errorf("NaN's key decodes as %v, %v", v, err)
	}
}

func TestStringOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		ea, eb := AppendString(nil, a), AppendString(nil, b)
		want := bytes.Compare([]byte(a), []byte(b))
		got := bytes.Compare(ea, eb)
		return sign(got) == sign(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		k := AppendInt64(nil, i)
		k = AppendFloat64(k, fl)
		k = AppendString(k, s)
		k = AppendBool(k, b)
		k = AppendNull(k)
		vals, err := Decode(k)
		if err != nil || len(vals) != 5 {
			return false
		}
		return vals[0].(int64) == i && vals[1].(float64) == fl &&
			vals[2].(string) == s && vals[3].(bool) == b && vals[4] == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},
		{0x77},                  // unknown tag
		{tagInt, 1, 2},          // truncated int
		{tagFloat, 1},           // truncated float
		{tagString, 'a'},        // unterminated string
		{tagString, 0x00},       // truncated escape
		{tagString, 0x00, 0x42}, // bad escape
	}
	for _, c := range cases {
		if _, _, err := DecodeNext(c); err == nil {
			t.Errorf("DecodeNext(%x) succeeded, want error", c)
		}
	}
}

func TestCompositeOrdering(t *testing.T) {
	// (1, "b") < (2, "a"): first field dominates.
	a := AppendString(AppendInt64(nil, 1), "b")
	b := AppendString(AppendInt64(nil, 2), "a")
	if bytes.Compare(a, b) >= 0 {
		t.Error("composite key field order not respected")
	}
}

func TestSuccessor(t *testing.T) {
	k := AppendInt64(nil, 7)
	s := Successor(k)
	if bytes.Compare(k, s) >= 0 {
		t.Error("Successor not greater")
	}
	// Nothing fits strictly between k and Successor(k) among int keys.
	next := AppendInt64(nil, 8)
	if bytes.Compare(s, next) >= 0 {
		t.Error("Successor overshoots next int key")
	}
}

func TestPrefixSuccessor(t *testing.T) {
	if got := PrefixSuccessor([]byte{0x01, 0x02}); !bytes.Equal(got, []byte{0x01, 0x03}) {
		t.Errorf("got %x", got)
	}
	if got := PrefixSuccessor([]byte{0x01, 0xFF}); !bytes.Equal(got, []byte{0x02}) {
		t.Errorf("got %x", got)
	}
	if got := PrefixSuccessor([]byte{0xFF, 0xFF}); got != nil {
		t.Errorf("got %x, want nil", got)
	}
	// Into scratch: appended behind what dst holds, and p left as it was.
	p := []byte{0x01, 0xFF}
	if got := AppendPrefixSuccessor([]byte{0xEE}, p); !bytes.Equal(got, []byte{0xEE, 0x02}) || !bytes.Equal(p, []byte{0x01, 0xFF}) {
		t.Errorf("got %x, p %x", got, p)
	}
}

func TestRangeContains(t *testing.T) {
	lo := AppendInt64(nil, 10)
	hi := AppendInt64(nil, 20)
	r := Range{Low: lo, High: hi, HighIncl: true}
	for _, tc := range []struct {
		v    int64
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, true}, {21, false}} {
		if got := r.Contains(AppendInt64(nil, tc.v)); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.v, got, tc.want)
		}
	}
	r.LowExcl = true
	if r.Contains(lo) {
		t.Error("exclusive low contained")
	}
	r.HighIncl = false
	if r.Contains(hi) {
		t.Error("exclusive high contained")
	}
}

func TestRangeAll(t *testing.T) {
	r := All()
	for _, v := range []int64{math.MinInt64, 0, math.MaxInt64} {
		if !r.Contains(AppendInt64(nil, v)) {
			t.Errorf("All does not contain %d", v)
		}
	}
	if r.Empty() {
		t.Error("All is empty")
	}
}

func TestRangePoint(t *testing.T) {
	k := AppendInt64(nil, 5)
	r := Point(k)
	if !r.Contains(k) || r.Empty() {
		t.Error("Point range broken")
	}
	if r.Contains(AppendInt64(nil, 6)) || r.Contains(AppendInt64(nil, 4)) {
		t.Error("Point range too wide")
	}
}

func TestRangePrefix(t *testing.T) {
	p := AppendInt64(nil, 3)
	r := Prefix(p)
	in := AppendString(AppendInt64(nil, 3), "x")
	out := AppendString(AppendInt64(nil, 4), "a")
	if !r.Contains(in) {
		t.Error("prefix range misses member")
	}
	if r.Contains(out) {
		t.Error("prefix range includes non-member")
	}
}

func TestRangeEmpty(t *testing.T) {
	a, b := AppendInt64(nil, 1), AppendInt64(nil, 2)
	if (Range{Low: b, High: a, HighIncl: true}).Empty() != true {
		t.Error("inverted range not empty")
	}
	if (Range{Low: a, High: a, HighIncl: true}).Empty() {
		t.Error("single-point inclusive range empty")
	}
	if !(Range{Low: a, High: a, LowExcl: true, HighIncl: true}).Empty() {
		t.Error("excl-low point range not empty")
	}
	if !(Range{Low: a, High: a}).Empty() {
		t.Error("excl-high point range not empty")
	}
}

func TestRangeContinue(t *testing.T) {
	r := Range{High: AppendInt64(nil, 100), HighIncl: true}
	last := AppendInt64(nil, 42)
	c := r.Continue(last)
	if c.Contains(last) {
		t.Error("continued range re-contains last-processed key")
	}
	if !c.Contains(AppendInt64(nil, 43)) || !c.Contains(AppendInt64(nil, 100)) {
		t.Error("continued range lost members")
	}
}

func TestRangeIntersect(t *testing.T) {
	k := func(v int64) []byte { return AppendInt64(nil, v) }
	a := Range{Low: k(0), High: k(10), HighIncl: true}
	b := Range{Low: k(5), High: k(20), HighIncl: true}
	i := a.Intersect(b)
	if !i.Contains(k(5)) || !i.Contains(k(10)) || i.Contains(k(4)) || i.Contains(k(11)) {
		t.Errorf("bad intersection %v", i)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps false for overlapping ranges")
	}
	c := Range{Low: k(11), High: k(20), HighIncl: true}
	if a.Overlaps(c) {
		t.Error("Overlaps true for disjoint ranges")
	}
}

func TestRangeString(t *testing.T) {
	if s := All().String(); s != "[LOW,HIGH)" {
		t.Errorf("got %q", s)
	}
	r := Range{Low: []byte{0x01}, High: []byte{0x02}, LowExcl: true, HighIncl: true}
	if s := r.String(); s != "(01,02]" {
		t.Errorf("got %q", s)
	}
}
