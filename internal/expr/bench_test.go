package expr

import (
	"testing"

	"nonstopsql/internal/record"
)

var (
	benchRow  = record.Row{record.Int(4242), record.Int(42), record.Float(1042.5), record.String("0123456789abcdef0123456789abcdef")}
	benchPred = And(Bin(OpLT, F(1, "grp"), CInt(10)), Bin(OpGE, F(2, "bal"), CFloat(0)))
	benchSink int
)

func BenchmarkSatisfiedRow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := Satisfied(benchPred, benchRow)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			benchSink++
		}
	}
}

func BenchmarkProgramSatisfied(b *testing.B) {
	enc := record.Encode(benchRow)
	var v record.View
	prog := Compile(benchPred)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := v.Reset(enc); err != nil {
			b.Fatal(err)
		}
		ok, err := prog.Satisfied(&v)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			benchSink++
		}
	}
}
