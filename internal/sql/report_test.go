package sql_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// reportRig is loadScanTable's 12 000-row table, three partitions, under
// opts, with the two statements of a report prepared: the benchmark's
// scan-agg operation, a GROUP BY pushed down to the Disk Processes
// (AGG^FIRST/NEXT) and a filtered pass-through scan (GET^FIRST/NEXT^VSBB)
// that keeps one row in ten.
type reportRig struct {
	d           *db
	agg, detail *sql.Prepared
}

func newReportRig(t testing.TB, opts cluster.Options) *reportRig {
	d := newDBOpts(t, opts)
	loadScanTable(t, d, 12000)
	r := &reportRig{d: d}
	var err error
	if r.agg, err = d.s.Prepare("SELECT grp, COUNT(*), SUM(bal) FROM sc WHERE id >= ? AND id < ? GROUP BY grp"); err != nil {
		t.Fatal(err)
	}
	if r.detail, err = d.s.Prepare("SELECT id, bal FROM sc WHERE id >= ? AND id < ? AND grp < 10"); err != nil {
		t.Fatal(err)
	}
	return r
}

// run is one report over ids [lo, hi), as the serving entry point runs
// it: the aggregate's rows materialised, the detail's still encoded. The
// groups' counts and sums, and the detail's row count, are checked
// against the loaded values (id i is in group i%100 with bal i+0.5).
func (r *reportRig) run(t testing.TB, lo, hi int64) {
	res, err := r.d.s.ExecPreparedEncoded(r.agg, record.Int(lo), record.Int(hi))
	if err != nil || len(res.Rows) != 100 {
		t.Fatalf("GROUP BY over [%d, %d): %d groups, %v", lo, hi, len(res.Rows), err)
	}
	var count int64
	var sum float64
	for _, row := range res.Rows {
		count, sum = count+row[1].I, sum+row[2].F
	}
	if want := float64(hi*hi-lo*lo) / 2; count != hi-lo || sum != want {
		t.Fatalf("GROUP BY over [%d, %d): count %d, sum %v; want %d, %v", lo, hi, count, sum, hi-lo, want)
	}
	res, err = r.d.s.ExecPreparedEncoded(r.detail, record.Int(lo), record.Int(hi))
	if err != nil || int64(len(res.Encoded)) != (hi-lo)/10 || res.Rows != nil {
		t.Fatalf("detail over [%d, %d): %d rows still encoded, %d decoded, %v", lo, hi, len(res.Encoded), len(res.Rows), err)
	}
}

// reportCost is what one report costs: objects and bytes allocated
// (runtime.MemStats Mallocs and TotalAlloc deltas), FS-DP messages, and
// the re-drives among them.
type reportCost struct{ objects, bytes, msgs, redrives float64 }

// cost measures one report over [lo, hi), averaged over runs after two
// warm-up reports, at whatever processor count the test runs with: every
// layer keeps its buffers with an owner, not in a per-processor pool.
func (r *reportRig) cost(t testing.TB, lo, hi int64) reportCost {
	redrives := func() (n uint64) {
		for _, v := range []string{"$DATA1", "$DATA2", "$DATA3"} {
			n += r.d.c.DP(v).Stats().Redrives
		}
		return n
	}
	r.run(t, lo, hi)
	msgs, redrives0 := r.d.c.Net.Stats().Requests, redrives()
	r.run(t, lo, hi)
	c := reportCost{msgs: float64(r.d.c.Net.Stats().Requests - msgs), redrives: float64(redrives() - redrives0)}
	const runs = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		r.run(t, lo, hi)
	}
	runtime.ReadMemStats(&m1)
	// Whole objects per report, as testing.AllocsPerRun counts them: the
	// runtime's own rare allocation does not make a fraction of one.
	c.objects = float64((m1.Mallocs - m0.Mallocs) / runs)
	c.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	return c
}

// TestReportAllocationCeilings pins what one report allocates in process,
// every layer under the session included, over a 10 000-row span: 957
// objects and 592 KB while each message decoded into a fresh request and
// ran in a fresh Subset Control Block, the File System's conversations
// encoded and decoded into new buffers, and the merged groups were a map
// of groups emitted a row each. Measured now: 87 objects and 29 464
// bytes. What is left is the caller's Result of each statement — the
// aggregate's rows in one value slab, about half the bytes — and, per
// statement, the parameters substituted into the predicate, the key range
// peeled off it, the predicate and the aggregate specification encoded,
// each conversation's ^FIRST request and the Disk Process's compiled
// program, the scan's iterator and its accounting. None of it is per
// row, per group or per message, so a report over half the span (the same
// three partitions) costs the same, and so does one under a row budget
// that more than triples the re-drives. A regression here is a buffer on
// the subset conversation path that lost its owner.
func TestReportAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const objects, bytes = 87, 30 << 10
	r := newReportRig(t, cluster.Options{})
	full := r.cost(t, 1000, 11000)
	t.Logf("report over 10 000 rows: %.0f objects, %.0f bytes, %.0f messages, %.0f re-drives", full.objects, full.bytes, full.msgs, full.redrives)
	if full.objects > objects || full.bytes > bytes {
		t.Errorf("a report allocates %.0f objects and %.0f bytes, ceilings %d and %d", full.objects, full.bytes, objects, bytes)
	}
	flat := func(what string, c reportCost) {
		t.Logf("report %s: %.0f objects, %.0f bytes, %.0f messages, %.0f re-drives", what, c.objects, c.bytes, c.msgs, c.redrives)
		if c.objects != full.objects || math.Abs(c.bytes-full.bytes) > 512 {
			t.Errorf("a report %s allocates %.0f objects and %.0f bytes, over 10 000 rows %.0f and %.0f: the cost is not flat",
				what, c.objects, c.bytes, full.objects, full.bytes)
		}
	}
	flat("over 5 000 rows", r.cost(t, 3500, 8500))
	small := newReportRig(t, cluster.Options{MaxRowsPerMsg: 1200})
	redrives := small.cost(t, 1000, 11000)
	if redrives.redrives < 3*full.redrives {
		t.Fatalf("%.0f re-drives under the small row budget, %.0f under the default: want three times as many", redrives.redrives, full.redrives)
	}
	flat("under a 1 200-row budget", redrives)
}

// TestReportsWhileConversationsEndEarly: the buffers a report's
// conversations run in are reused from statement to statement and
// message to message — the session's conversation arenas and row list,
// the Disk Processes' service slots and Subset Control Blocks with their
// groups — so every way a conversation can end must leave them to the
// next owner whole. Four sessions run reports over overlapping spans of a
// 3 000-row table (200-row messages, two conversations at once per
// statement), while three more end conversations early on the same Disk
// Processes: a LIMIT read without pushdown, which closes the subsets it
// walks away from (CLOSE^SUBSET); a predicate that fails in a
// conversation's second message, after its SCB was kept; and a
// transaction that opens scans, reads one batch and aborts, which retires
// its SCBs under it. Every result is checked against the values loaded
// (id i in group i%100, bal i+0.5). Under the race detector every buffer
// taken back is poisoned, and a buffer with two owners at once is a race.
func TestReportsWhileConversationsEndEarly(t *testing.T) {
	d := newDBOpts(t, cluster.Options{MaxRowsPerMsg: 200, ScanParallel: 2})
	const n = 3000
	loadScanTable(t, d, n)
	def, err := d.cat.Table("sc")
	if err != nil {
		t.Fatal(err)
	}
	session := func() *sql.Session { return sql.NewSession(d.cat, d.c.NewFS(0, 0)) }
	prepare := func(s *sql.Session, text string) *sql.Prepared {
		p, err := s.Prepare(text)
		if err != nil {
			t.Error(err)
		}
		return p
	}
	const rounds = 12
	var wg sync.WaitGroup
	run := func(name string, body func(round int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				if err := body(round); err != nil {
					t.Errorf("%s, round %d: %v", name, round, err)
					return
				}
			}
		}()
	}
	for w := range 4 {
		s := session()
		agg := prepare(s, "SELECT grp, COUNT(*), SUM(bal) FROM sc WHERE id >= ? AND id < ? GROUP BY grp")
		detail := prepare(s, "SELECT id, bal FROM sc WHERE id >= ? AND id < ? AND grp < 10")
		run("report", func(round int) error {
			lo := int64(137*(w+round)) % (n - 1300)
			hi := lo + 1000 + int64(w*100)
			res, err := s.ExecPreparedEncoded(agg, record.Int(lo), record.Int(hi))
			if err != nil {
				return err
			}
			if len(res.Rows) != 100 {
				return fmt.Errorf("GROUP BY over [%d, %d): %d groups", lo, hi, len(res.Rows))
			}
			for _, row := range res.Rows {
				var count int64
				var sum float64
				for i := lo + (row[0].I-lo%100+100)%100; i < hi; i += 100 {
					count, sum = count+1, sum+float64(i)+0.5
				}
				if row[1].I != count || row[2].F != sum {
					return fmt.Errorf("GROUP BY over [%d, %d): group %v, want count %d sum %v", lo, hi, row, count, sum)
				}
			}
			res, err = s.ExecPreparedEncoded(detail, record.Int(lo), record.Int(hi))
			if err != nil {
				return err
			}
			want := lo - lo%100
			for _, enc := range res.Encoded {
				for want < lo || want%100 >= 10 {
					want++
				}
				row, err := record.Decode(enc)
				if err != nil || len(row) != 2 || row[0].I != want || row[1].F != float64(want)+0.5 {
					return fmt.Errorf("detail over [%d, %d): row %v (%v), want id %d", lo, hi, row, err, want)
				}
				want++
			}
			if len(res.Encoded) != int(hi-lo)/10 {
				return fmt.Errorf("detail over [%d, %d): %d rows", lo, hi, len(res.Encoded))
			}
			return nil
		})
	}
	limited := session()
	limited.SetPushdown(false) // the requester stops reading and closes the subsets
	limit := prepare(limited, "SELECT id FROM sc WHERE id >= ? AND grp = 7 LIMIT 3")
	run("LIMIT", func(round int) error {
		lo := int64(round * 211 % n)
		res, err := limited.ExecPrepared(limit, record.Int(lo))
		if err != nil {
			return err
		}
		first := lo + (107-lo%100)%100
		for i, row := range res.Rows {
			if want := first + int64(100*i); row[0].I != want {
				return fmt.Errorf("LIMIT from %d: row %d is id %d, want %d", lo, i, row[0].I, want)
			}
		}
		if want := min(3, int((n-first+99)/100)); len(res.Rows) != want {
			return fmt.Errorf("LIMIT from %d: %d rows, want %d", lo, len(res.Rows), want)
		}
		return nil
	})
	failing := session()
	fail := prepare(failing, "SELECT id FROM sc WHERE id >= ? AND id < ? AND 1 / (id - ?) > 0")
	run("failing predicate", func(round int) error {
		lo := int64(round%3) * 1000 // a partition's first 200 records pass; record lo+300 fails the second message
		if _, err := failing.ExecPrepared(fail, record.Int(lo), record.Int(lo+1000), record.Int(lo+300)); err == nil || !strings.Contains(err.Error(), "division by zero") {
			return fmt.Errorf("over [%d, %d): %v, want division by zero", lo, lo+1000, err)
		}
		return nil
	})
	aborted := d.c.NewFS(0, 0)
	aborted.SetScanParallel(0) // one conversation at a time: nothing is in flight when the transaction ends
	run("aborted transaction", func(round int) error {
		tx := aborted.Begin()
		rows := aborted.Select(tx, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Proj: []int{0}})
		if _, _, ok := rows.NextRaw(); !ok {
			return fmt.Errorf("no first row: %v", rows.Err())
		}
		err := aborted.Abort(tx) // the Disk Process retires the transaction's SCB
		rows.Close()             // and refuses nothing: CLOSE^SUBSET of an SCB it no longer has
		return err
	})
	wg.Wait()
	for _, v := range []string{"$DATA1", "$DATA2", "$DATA3"} {
		if open := d.c.DP(v).OpenState(); open.Txns != 0 || open.SCBs != 0 {
			t.Errorf("%s: %d transactions and %d Subset Control Blocks open", v, open.Txns, open.SCBs)
		}
	}
}
