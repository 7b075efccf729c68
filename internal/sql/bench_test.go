package sql_test

import (
	"testing"

	"nonstopsql/internal/record"
)

// BenchmarkPreparedJoin executes a prepared 60×80 primary-key join: with
// pushdown the inner probes travel batched (PROBE^BLOCK), without it one
// inner access is chosen and fetched per outer row. Either way the
// per-outer-row work is evaluating the bound outer side — a later change
// that puts binding or scope-building back into that loop shows up here.
func BenchmarkPreparedJoin(b *testing.B) {
	for _, push := range []bool{true, false} {
		name := "per-row"
		if push {
			name = "batched"
		}
		b.Run(name, func(b *testing.B) {
			d := newDB(b)
			loadJoinTables(b, d)
			d.s.SetPushdown(push)
			p, err := d.s.Prepare("SELECT o.id, i.label FROM outr o, innr i WHERE o.fk = i.k AND o.id < ?")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.s.ExecPrepared(p, record.Int(60)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExplain describes a cached point SELECT: a plan-cache peek and
// one describe of the compiled plan, no parse and no bind.
func BenchmarkExplain(b *testing.B) {
	d := newDB(b)
	setupEmp(b, d, 100)
	const q = "SELECT name, salary FROM emp WHERE empno = 42"
	if _, err := d.s.Prepare(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.s.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}
