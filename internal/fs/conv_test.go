package fs_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// convKind is one row of the driver table: a set-oriented operation run
// through the File System's single conversation driver.
type convKind struct {
	name string
	// scb: the kind continues through a Subset Control Block, so its
	// traffic is one ^FIRST per partition plus re-drives plus closes, and
	// a 2-row message budget must make it re-drive (PROBE^BLOCK is
	// stateless and re-sends blocks instead).
	scb bool
	// abandoned: the run walks away mid-conversation, so under the 2-row
	// budget it must send CLOSE^SUBSET — exactly one from a sequential
	// scan, one per scanner that had an SCB open from a parallel one.
	// Every other run, and every run under the default budget (each
	// partition answers in one message), has no SCB to close.
	abandoned bool
	indexed   bool
	// mutates: the result is the count plus the file's surviving rows,
	// rendered after the operation's traffic has been checked.
	mutates bool
	run     func(t *testing.T, r *rig, def *fs.FileDef) (result string, st fs.ScanStats)
}

func salaryBelow(v int64) expr.Expr {
	return expr.Bin(expr.OpLT, expr.F(3, "SALARY"), expr.CInt(v))
}

func scanKind(name string, spec fs.SelectSpec, take int) convKind {
	k := convKind{name: name, scb: true, abandoned: take > 0}
	k.run = func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
		rows := r.fs.Select(nil, def, spec)
		var out []string
		for take == 0 || len(out) < take {
			row, _, ok := rows.Next()
			if !ok {
				break
			}
			out = append(out, fmt.Sprint(row))
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if spec.Unordered {
			sort.Strings(out)
		}
		return strings.Join(out, ";"), rows.Stats()
	}
	return k
}

var convKinds = []convKind{
	scanKind("select-vsbb", fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Pred: salaryBelow(2000), Proj: []int{0, 3}}, 0),
	scanKind("select-rsbb", fs.SelectSpec{Mode: fs.ModeRSBB, Range: keys.Range{Low: ik(500), High: ik(2500)}}, 0),
	scanKind("select-unordered", fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Unordered: true}, 0),
	scanKind("select-abandoned", fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()}, 3),
	{name: "count", scb: true,
		run: func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
			n, st, err := r.fs.Count(nil, def, keys.All(), salaryBelow(1500))
			if err != nil {
				t.Fatal(err)
			}
			if n != 150 {
				t.Errorf("counted %d, want 150", n)
			}
			return fmt.Sprint(n), st
		}},
	{name: "update", scb: true, mutates: true,
		run: func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
			tx := r.fs.Begin()
			n, st, err := r.fs.UpdateSubset(tx, def, keys.All(), salaryBelow(2500), []expr.Assignment{
				{Field: 3, E: expr.Bin(expr.OpAdd, expr.F(3, "SALARY"), expr.CInt(7))},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.fs.Commit(tx); err != nil {
				t.Fatal(err)
			}
			if n != 250 {
				t.Errorf("updated %d, want 250", n)
			}
			return fmt.Sprint(n), st
		}},
	{name: "delete", scb: true, mutates: true,
		run: func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
			tx := r.fs.Begin()
			n, st, err := r.fs.DeleteSubset(tx, def, keys.Range{Low: ik(900)}, salaryBelow(2100))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.fs.Commit(tx); err != nil {
				t.Fatal(err)
			}
			if n != 120 {
				t.Errorf("deleted %d, want 120", n)
			}
			return fmt.Sprint(n), st
		}},
	{name: "agg", scb: true,
		run: func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
			spec := &fsdp.AggSpec{GroupBy: []int{2}, Cols: []fsdp.AggCol{
				{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 3}, {Fn: fsdp.AggMax, Col: 0},
			}}
			groups, st, err := agg(r, def, salaryBelow(2900), spec)
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for k, g := range groups {
				out = append(out, fmt.Sprintf("%q=%v%v", k, g.KeyVals, g.Partials))
			}
			sort.Strings(out)
			if len(out) != 3 {
				t.Errorf("%d groups, want 3", len(out))
			}
			return strings.Join(out, ";"), st
		}},
	{name: "probe",
		run: func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
			var prefixes [][]byte
			for i := 0; i < 100; i++ {
				prefixes = append(prefixes, ik(int64(30*i))) // every partition; every third probe hits
			}
			rows, st, err := r.fs.ProbePrefixes(nil, def, prefixes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 100 {
				t.Errorf("probed %d rows, want 100", len(rows))
			}
			return fmt.Sprint(rows), st
		}},
	{name: "index-probe", indexed: true,
		run: func(t *testing.T, r *rig, def *fs.FileDef) (string, fs.ScanStats) {
			var values []record.Value
			for i := 0; i < 40; i++ {
				values = append(values, record.String(fmt.Sprintf("emp-%05d", 2*i)))
			}
			rows, st, err := r.fs.ReadByIndexBatch(nil, def, def.Indexes[0], values)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 40 {
				t.Errorf("index-probed %d rows, want 40", len(rows))
			}
			return fmt.Sprint(rows), st
		}},
}

// TestConversationDriver runs every set-oriented kind through the one
// FS conversation driver at each fan-out and message budget, and holds
// them all to the same books: results identical across DOPs, every
// message accounted (and equal to the network's own count), one latency
// sample per message, one span with traffic per partition counted, and no
// Subset Control Block left behind.
func TestConversationDriver(t *testing.T) {
	for _, kind := range convKinds {
		for _, maxRows := range []int{2, 0} {
			var want string
			for _, dop := range []int{0, 1, 3} {
				name := fmt.Sprintf("%s/rows%d/dop%d", kind.name, maxRows, dop)
				r := newRig(t, cluster.Options{MaxRowsPerMsg: maxRows, ScanParallel: dop})
				def := partitionedDef()
				if kind.indexed {
					def = indexedDef()
				}
				mustCreate(t, r, def)
				if kind.indexed {
					load(t, r, def, 100)
				} else {
					loadSpread(t, r, def, 300)
				}

				r.c.Net.ResetStats()
				got, st := kind.run(t, r, def)
				// Subset mutations also exchange a commit per partition.
				if net := r.c.Net.Stats().Requests; !kind.mutates && st.Messages != net {
					t.Errorf("%s: stats count %d messages, network %d", name, st.Messages, net)
				}
				if kind.scb {
					closes := st.Messages - uint64(st.Partitions) - st.Redrives
					switch {
					case !kind.abandoned || maxRows == 0:
						if closes != 0 {
							t.Errorf("%s: %d messages = %d partitions + %d re-drives + %d closes, want none",
								name, st.Messages, st.Partitions, st.Redrives, closes)
						}
					case closes == 0 || dop == 0 && closes != 1:
						t.Errorf("%s: abandoned scan sent %d CLOSE^SUBSET (%d msgs, %d partitions, %d re-drives)",
							name, closes, st.Messages, st.Partitions, st.Redrives)
					}
					if maxRows > 0 && st.Redrives == 0 {
						t.Errorf("%s: no re-drives under a %d-row message budget", name, maxRows)
					}
				}
				if st.Lat.Count() != st.Messages {
					t.Errorf("%s: %d latency samples for %d messages", name, st.Lat.Count(), st.Messages)
				}
				busy := 0
				for _, sp := range st.Spans {
					if sp.Msgs > 0 {
						busy++
					}
				}
				if st.Partitions == 0 || busy != st.Partitions {
					t.Errorf("%s: %d spans with traffic for %d partitions with traffic", name, busy, st.Partitions)
				}
				if n := openSCBs(r); n != 0 {
					t.Errorf("%s: %d SCBs left open", name, n)
				}
				if kind.mutates {
					rows, err := r.fs.SelectAll(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
					if err != nil {
						t.Fatal(err)
					}
					got += fmt.Sprint(rows)
				}
				if dop == 0 {
					want = got
				} else if got != want {
					t.Errorf("%s: result differs from the sequential run\n got %.200s\nwant %.200s", name, got, want)
				}
			}
		}
	}
}

// TestFailedConversationRetiresSCB pins the driver's exit rule: a
// conversation that dies on a re-drive — here a disk read error at the
// Disk Process, well after the SCB was granted — closes its SCB before
// the error surfaces, so browse access (no transaction to sweep up
// after it) leaks nothing.
func TestFailedConversationRetiresSCB(t *testing.T) {
	errRead := errors.New("injected read failure")
	pred := salaryBelow(1 << 40)
	ops := []struct {
		name string
		dop  int
		run  func(r *rig, def *fs.FileDef) (fs.ScanStats, error)
	}{
		{"count", 0, func(r *rig, def *fs.FileDef) (fs.ScanStats, error) {
			_, st, err := r.fs.Count(nil, def, keys.All(), pred)
			return st, err
		}},
		{"agg", 0, func(r *rig, def *fs.FileDef) (fs.ScanStats, error) {
			spec := &fsdp.AggSpec{Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}}}
			_, st, err := agg(r, def, pred, spec)
			return st, err
		}},
		{"select", 3, func(r *rig, def *fs.FileDef) (fs.ScanStats, error) {
			rows := r.fs.Select(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Pred: pred})
			for {
				if _, _, ok := rows.Next(); !ok {
					break
				}
			}
			// What the consumer sees: Err once Next has said the rows ended.
			// Close waits for every scanner and reads the op's error again,
			// so reading Err only after it would hide a truncated result.
			err := rows.Err()
			rows.Close()
			return rows.Stats(), err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			defer fault.Reset()
			r := newRig(t, cluster.Options{MaxRowsPerMsg: 4, CacheSlots: 8, ScanParallel: op.dop})
			def := partitionedDef()
			mustCreate(t, r, def)
			loadPartitioned(t, r, def, 1500)

			// A clean run counts the physical reads the operation needs;
			// the armed run then fails one in the middle of them, long
			// after every conversation's ^FIRST.
			fault.Enable()
			if _, err := op.run(r, def); err != nil {
				t.Fatal(err)
			}
			reads := int(fault.Hits(fault.DiskRead))
			if reads < 12 {
				t.Fatalf("rig too warm: the operation needed only %d physical reads", reads)
			}
			fault.Reset()
			fault.Enable()
			fault.ArmErr(fault.DiskRead, reads/2, errRead)
			// The failed conversation's scanner dawdles before it records
			// the failure: a consumer that saw its span end before the
			// failure was recorded would read a truncated result.
			fault.Arm(fault.FSConvFailed, 0, func() { time.Sleep(50 * time.Millisecond) })
			st, err := op.run(r, def)
			if err == nil || !fault.Fired(fault.DiskRead) {
				t.Fatalf("armed read failure (fired=%v) surfaced as %v", fault.Fired(fault.DiskRead), err)
			}
			if closes := st.Messages - uint64(st.Partitions) - st.Redrives; st.Redrives == 0 || closes == 0 {
				t.Errorf("failure did not land mid-conversation: %d msgs, %d partitions, %d re-drives",
					st.Messages, st.Partitions, st.Redrives)
			}
			if n := openSCBs(r); n != 0 {
				t.Errorf("%d SCBs left open after the failed %s", n, op.name)
			}
		})
	}
}
