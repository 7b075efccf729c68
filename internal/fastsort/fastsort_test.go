package fastsort

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nonstopsql/internal/record"
)

func intRows(n int, seed int64) []record.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]record.Row, n)
	for i := range rows {
		rows[i] = record.Row{record.Int(int64(rng.Intn(n * 3))), record.Int(int64(i))}
	}
	return rows
}

func byFirst(a, b record.Row) bool { return a[0].I < b[0].I }

func isSorted(rows []record.Row) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].I > rows[i][0].I {
			return false
		}
	}
	return true
}

func TestSortSmall(t *testing.T) {
	out := Sort(intRows(100, 1), byFirst)
	if len(out) != 100 || !isSorted(out) {
		t.Fatal("small sort failed")
	}
}

func TestSortParallelRuns(t *testing.T) {
	out := Sort(intRows(50000, 2), byFirst)
	if len(out) != 50000 || !isSorted(out) {
		t.Fatal("parallel sort failed")
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		rows := intRows(n, seed)
		want := make([]int64, n)
		for i, r := range rows {
			want[i] = r[0].I
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		out := sortWith(rows, byFirst, 3, 64)
		if len(out) != n {
			return false
		}
		for i, r := range out {
			if r[0].I != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	if out := Sort(nil, byFirst); len(out) != 0 {
		t.Fatal("empty sort")
	}
	if out := Sort([]record.Row{{record.Int(5)}}, byFirst); len(out) != 1 {
		t.Fatal("single sort")
	}
}

func TestStringOrdering(t *testing.T) {
	rows := []record.Row{
		{record.String("pear")}, {record.String("apple")}, {record.String("mango")},
	}
	out := sortWith(rows, func(a, b record.Row) bool { return a[0].S < b[0].S }, workers, 1)
	if out[0][0].S != "apple" || out[2][0].S != "pear" {
		t.Fatalf("%v", out)
	}
}

func BenchmarkSortWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1worker", 2: "2workers", 4: "4workers"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rows := intRows(100000, int64(i))
				b.StartTimer()
				sortWith(rows, byFirst, workers, runSize)
			}
		})
	}
}
