package sql_test

import (
	"strings"
	"testing"

	"nonstopsql/internal/record"
)

// loadScanTable creates and fills SC, the benchmark's scan-agg table in
// small: n rows over three partitions, grp cycling through 100 values.
func loadScanTable(t testing.TB, d *db, n int) {
	t.Helper()
	d.exec(t, `CREATE TABLE sc (id INTEGER PRIMARY KEY, grp INTEGER, bal FLOAT, pad VARCHAR(100))
		PARTITION ON ("$DATA1", "$DATA2" FROM `+itoa(n/3)+`, "$DATA3" FROM `+itoa(2*n/3)+`)`)
	pad := strings.Repeat("p", 100)
	for lo := 0; lo < n; lo += 500 {
		rows := make([]string, 0, 500)
		for i := lo; i < min(lo+500, n); i++ {
			rows = append(rows, "("+itoa(i)+", "+itoa(i%100)+", "+itoa(i)+".5, '"+pad+"')")
		}
		d.exec(t, "INSERT INTO sc VALUES "+strings.Join(rows, ", "))
	}
}

// BenchmarkPassThroughScan is the benchmark's filtered scan at the
// serving entry point: 1 000 of 10 000 records qualify at the Disk
// Processes, and the requester forwards their rows without reading one.
// rows/op says the scan did what it was asked.
func BenchmarkPassThroughScan(b *testing.B) {
	d := newDB(b)
	loadScanTable(b, d, 12000)
	p, err := d.s.Prepare("SELECT id, bal FROM sc WHERE id >= ? AND id < ? AND grp < 10")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		res, err := d.s.ExecPreparedEncoded(p, record.Int(1000), record.Int(11000))
		if err != nil || len(res.Encoded) != 1000 {
			b.Fatalf("%d rows still encoded, %d decoded, %v", len(res.Encoded), len(res.Rows), err)
		}
		rows += len(res.Encoded)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

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

// BenchmarkRequesterGroupBy executes a prepared GROUP BY that the Disk
// Processes cannot decompose — its SUM adds an expression — over 1 000 of
// the scan table's records: the scan's rows come back, are decoded, and
// fold in the requester into 100 groups. rows/op says the fold saw them all.
func BenchmarkRequesterGroupBy(b *testing.B) {
	d := newDB(b)
	loadScanTable(b, d, 1200)
	p, err := d.s.Prepare("SELECT grp, COUNT(*), SUM(bal + 1), MAX(id) FROM sc WHERE id >= ? AND id < ? GROUP BY grp")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rows := int64(0)
	for i := 0; i < b.N; i++ {
		res, err := d.s.ExecPrepared(p, record.Int(100), record.Int(1100))
		if err != nil || len(res.Rows) != 100 {
			b.Fatalf("%d groups, %v", len(res.Rows), err)
		}
		for _, row := range res.Rows {
			rows += row[1].I
		}
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
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
