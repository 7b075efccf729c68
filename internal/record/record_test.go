package record

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func empSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("EMP", []Field{
		{Name: "EMPNO", Type: TypeInt, NotNull: true},
		{Name: "NAME", Type: TypeString},
		{Name: "HIRE_DATE", Type: TypeString},
		{Name: "SALARY", Type: TypeFloat},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
		key    []int
	}{
		{"empty name", []Field{{Name: "", Type: TypeInt}}, []int{0}},
		{"dup field", []Field{{Name: "A", Type: TypeInt}, {Name: "a", Type: TypeInt}}, []int{0}},
		{"bad type", []Field{{Name: "A", Type: 0}}, []int{0}},
		{"no key", []Field{{Name: "A", Type: TypeInt}}, nil},
		{"key out of range", []Field{{Name: "A", Type: TypeInt}}, []int{3}},
		{"key repeated", []Field{{Name: "A", Type: TypeInt}, {Name: "B", Type: TypeInt}}, []int{0, 0}},
	}
	for _, c := range cases {
		if _, err := NewSchema("T", c.fields, c.key); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFieldIndex(t *testing.T) {
	s := empSchema(t)
	if s.FieldIndex("salary") != 3 || s.FieldIndex("EMPNO") != 0 {
		t.Error("FieldIndex case-insensitive lookup failed")
	}
	if s.FieldIndex("NOPE") != -1 {
		t.Error("missing field should return -1")
	}
	if !s.IsKeyField(0) || s.IsKeyField(1) {
		t.Error("IsKeyField wrong")
	}
}

func TestValidate(t *testing.T) {
	s := empSchema(t)
	good := Row{Int(1), String("alice"), String("1984-01-01"), Float(30000)}
	if err := s.Validate(good); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{Int(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.Validate(Row{Null, String("x"), Null, Null}); err == nil {
		t.Error("NULL key accepted")
	}
	if err := s.Validate(Row{String("x"), Null, Null, Null}); err == nil {
		t.Error("wrong-typed key accepted")
	}
	// Int into FLOAT column is allowed.
	if err := s.Validate(Row{Int(1), Null, Null, Int(30000)}); err != nil {
		t.Errorf("int into float rejected: %v", err)
	}
}

func TestCoerce(t *testing.T) {
	s := empSchema(t)
	r := Row{Int(1), Null, Null, Int(30000)}
	s.Coerce(r)
	if r[3].Kind != TypeFloat || r[3].F != 30000 {
		t.Errorf("Coerce failed: %+v", r[3])
	}
}

func TestKeyOrdering(t *testing.T) {
	s := empSchema(t)
	k1 := s.Key(Row{Int(1), String("a"), Null, Null})
	k2 := s.Key(Row{Int(2), String("a"), Null, Null})
	if string(k1) >= string(k2) {
		t.Error("key order broken")
	}
}

func randValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Float(r.NormFloat64() * 1e6)
	case 3:
		buf := make([]byte, r.Intn(40))
		r.Read(buf)
		return String(string(buf))
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		row := make(Row, int(n)%16)
		for i := range row {
			row[i] = randValue(rng)
		}
		enc := Encode(row)
		if EncodedLen(row) != len(enc) {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		if len(row) == 0 {
			return len(dec) == 0
		}
		return reflect.DeepEqual(row, dec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodedLenAtBoundaries: the sizes a codec prefixes a row with are
// the sizes Encode produces where a varint gains a byte.
func TestEncodedLenAtBoundaries(t *testing.T) {
	for _, i := range []int64{0, 63, 64, -64, -65, 8191, 8192, -8193, math.MaxInt64, math.MinInt64} {
		for _, l := range []int{0, 127, 128, 16384} {
			row := Row{Int(i), String(strings.Repeat("x", l)), Null, Bool(true), Float(1.5)}
			if got, want := EncodedLen(row), len(Encode(row)); got != want {
				t.Errorf("EncodedLen(int %d, string of %d) = %d, Encode produced %d", i, l, got, want)
			}
		}
	}
	if got, want := EncodedLen(make(Row, 200)), len(Encode(make(Row, 200))); got != want {
		t.Errorf("EncodedLen(200 nulls) = %d, want %d", got, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{}); err == nil {
		t.Error("empty decode accepted")
	}
	if _, err := Decode([]byte{2, encInt}); err == nil {
		t.Error("truncated row accepted")
	}
	good := Encode(Row{Int(1)})
	if _, err := Decode(append(good, 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeValueErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{99},
		{encFloat, 1, 2},
		{encString, 5, 'a'},
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(%x) accepted", b)
		}
	}
}

func TestDiffFields(t *testing.T) {
	old := Row{Int(1), String("a"), Float(10)}
	new := Row{Int(1), String("b"), Float(10)}
	if d := DiffFields(old, new); len(d) != 1 || d[0] != 1 {
		t.Errorf("got %v", d)
	}
	if d := DiffFields(old, old); d != nil {
		t.Errorf("identical rows diff: %v", d)
	}
	longer := append(new.Clone(), Bool(true))
	if d := DiffFields(old, longer); len(d) != 2 {
		t.Errorf("got %v", d)
	}
}

func TestFieldImagesRoundTrip(t *testing.T) {
	row := Row{Int(9), String("carol"), String("2001-02-03"), Float(55000.5)}
	img := EncodeFieldImages(row, []int{3, 1})
	decoded, err := DecodeFieldImages(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[0].Field != 3 || decoded[0].Value.F != 55000.5 ||
		decoded[1].Field != 1 || decoded[1].Value.S != "carol" {
		t.Errorf("got %+v", decoded)
	}
	target := Row{Int(9), Null, Null, Null}
	if err := ApplyFieldImages(target, decoded); err != nil {
		t.Fatal(err)
	}
	if target[3].F != 55000.5 || target[1].S != "carol" {
		t.Errorf("apply failed: %v", target)
	}
}

func TestFieldImagesCompression(t *testing.T) {
	// The paper's claim: a 1-field update audits far fewer bytes than the
	// full record image when records are wide.
	wide := make(Row, 20)
	for i := range wide {
		wide[i] = String("0123456789abcdef")
	}
	full := len(Encode(wide))
	compressed := len(EncodeFieldImages(wide, []int{7}))
	if compressed*5 > full {
		t.Errorf("field image %dB not ≪ full image %dB", compressed, full)
	}
}

func TestApplyFieldImagesOutOfRange(t *testing.T) {
	if err := ApplyFieldImages(Row{Int(1)}, []FieldImage{{Field: 5, Value: Int(2)}}); err == nil {
		t.Error("out-of-range apply accepted")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		// Exactly, past 2^53: 2^53+1 is no float, and above the float 2^53.
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Float(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 - 1), Float(1 << 53), -1},
		{Int(1 << 53), Float(1 << 53), 0},
		{Int(math.MaxInt64), Float(1 << 63), -1},
		{Int(math.MinInt64), Float(-(1 << 63)), 0},
		{Int(math.MinInt64), Float(math.Inf(-1)), 1},
		{Int(-1), Float(-0.5), -1},
		{Int(0), Float(-0.5), 1},
		{Int(0), Float(math.Copysign(0, -1)), 0},
		// NaN sorts below every number, as the key encoding puts it, and
		// equal to itself.
		{Int(math.MinInt64), Float(math.NaN()), 1},
		{Float(math.NaN()), Int(0), -1},
		{Float(math.NaN()), Float(math.Inf(-1)), -1},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{String("a"), String("b"), -1},
		{Bool(false), Bool(true), -1},
		{Null, Int(math.MinInt64), -1},
		{Null, Null, 0},
		{Int(0), Null, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.b, c.a, got, -c.want)
		}
	}
}

// TestCompareIntFloatIsExact holds the mixed comparison to exact
// arithmetic (math/big) over integers and floats around the places float64
// rounds: 2^53, 2^62, the ends of int64, and small fractions.
func TestCompareIntFloatIsExact(t *testing.T) {
	var ints []int64
	var floats []float64
	for _, base := range []int64{0, 1 << 53, 1 << 62, math.MaxInt64 - 2, math.MinInt64 + 2} {
		for d := int64(-2); d <= 2; d++ {
			ints = append(ints, base+d, -(base + d))
			f := float64(base + d)
			floats = append(floats, f, -f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)), f+0.5, f-0.5)
		}
	}
	floats = append(floats, math.Inf(1), math.Inf(-1), 1<<63, -(1 << 63), 1e300, -1e300)
	for _, i := range ints {
		for _, f := range floats {
			want := new(big.Float).SetInt64(i).Cmp(big.NewFloat(f))
			if got := CompareIntFloat(i, f); got != want {
				t.Errorf("CompareIntFloat(%d, %v) = %d, want %d", i, f, got, want)
			}
		}
	}
}

func TestValueFormat(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null, "42": Int(42), "1.5": Float(1.5), "hi": String("hi"), "TRUE": Bool(true), "FALSE": Bool(false),
	}
	for want, v := range cases {
		if got := v.Format(); got != want {
			t.Errorf("Format(%+v) = %q want %q", v, got, want)
		}
	}
}

func TestValueFromKeyRoundTrip(t *testing.T) {
	vals := []Value{Null, Int(-5), Float(2.25), String("x\x00y"), Bool(true)}
	var k []byte
	for _, v := range vals {
		k = v.AppendKey(k)
	}
	s := empSchema(t)
	_ = s
	// decode via keys package through ValueFromKey
	got := make([]Value, 0, len(vals))
	rest := k
	for len(rest) > 0 {
		var x any
		var err error
		x, rest, err = decodeNextKey(rest)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ValueFromKey(x))
	}
	if !reflect.DeepEqual(vals, got) {
		t.Errorf("got %v want %v", got, vals)
	}
}
