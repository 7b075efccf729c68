package record

import "testing"

// acctRecord is shaped like the wall-clock benchmark's acct rows.
func acctRecord() []byte {
	return Encode(Row{Int(4242), Int(42), Float(1042.5), String("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")})
}

var benchSink int64

func BenchmarkDecode(b *testing.B) {
	enc := acctRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += r[1].I
	}
}

func BenchmarkViewResetAndOneField(b *testing.B) {
	enc := acctRecord()
	var v View
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := v.Reset(enc); err != nil {
			b.Fatal(err)
		}
		benchSink += v.Value(1).I
	}
}
