package experiments

import (
	"fmt"
	"strings"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/enscribe"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// E8Result captures blocked-insert message savings.
type E8Result struct {
	Strategy string
	Rows     int
	Messages uint64
	PerRow   float64
}

// E8 reproduces the proposed blocked sequential insert interface:
// accumulating inserts in a File System buffer and sending one
// INSERT^BLOCK per buffer reduces message traffic by the blocking
// factor, with the target key range locked by prior agreement.
func E8(n int, factors []int) ([]E8Result, *Table, error) {
	table := &Table{
		ID:    "E8",
		Title: "Sequential insert message traffic: per-record vs blocked interface (future enhancement)",
		Claim: "message traffic between the File System and the Disk Process could be reduced by the blocking factor",
		Cols:  []Col{label("strategy"), label("rows"), counted("messages"), counted("msgs/row")},
	}
	var results []E8Result
	row := func(name string) record.Row {
		return record.Row{record.Int(0), record.String(name), record.Float(1), record.String(strings.Repeat("f", 40))}
	}
	mk := func(i int) record.Row {
		out := row("bulk")
		out[0] = record.Int(int64(i))
		return out
	}
	run := func(name string, fn func(r *rig, def *fs.FileDef) error) error {
		r, err := newRig(cluster.Options{}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		def := empDef(100, true)
		if err := r.fs.Create(def); err != nil {
			return err
		}
		r.c.Net.ResetStats()
		if err := fn(r, def); err != nil {
			return err
		}
		msgs := r.c.Net.Stats().Requests
		res := E8Result{Strategy: name, Rows: n, Messages: msgs, PerRow: float64(msgs) / float64(n)}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{name, d(n), u(msgs), fmt.Sprintf("%.3f", res.PerRow)})
		return nil
	}
	if err := run("WRITE per record (current interface)", func(r *rig, def *fs.FileDef) error {
		tx := r.fs.Begin()
		for i := 0; i < n; i++ {
			if err := r.fs.Insert(tx, def, mk(i)); err != nil {
				return err
			}
		}
		return r.fs.Commit(tx)
	}); err != nil {
		return nil, nil, err
	}
	for _, factor := range factors {
		name := fmt.Sprintf("INSERT^BLOCK, factor %d", factor)
		factor := factor
		if err := run(name, func(r *rig, def *fs.FileDef) error {
			tx := r.fs.Begin()
			bi, err := r.fs.NewBlockedInserter(tx, def, keys.All(), factor)
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if err := bi.Add(mk(i)); err != nil {
					return err
				}
			}
			if err := bi.Flush(); err != nil {
				return err
			}
			return r.fs.Commit(tx)
		}); err != nil {
			return nil, nil, err
		}
	}
	return results, table, nil
}

// E9Result captures buffered where-current savings.
type E9Result struct {
	Strategy string
	Rows     int
	Messages uint64
	PerRow   float64
}

// E9 reproduces the proposed buffered update-where-current interface:
// cursor updates accumulate in a File System buffer and ship as one
// UPDATE^BLOCK per buffer instead of a message per record.
func E9(n int, factors []int) ([]E9Result, *Table, error) {
	table := &Table{
		ID:    "E9",
		Title: "Cursor update-where-current message traffic: per-record vs buffered (future enhancement)",
		Claim: "sending the buffer full of updates to the Disk Process in one message could realize substantial message traffic savings",
		Cols: []Col{
			label("strategy"), label("rows updated"), counted("messages"), counted("msgs/row"),
		},
	}
	var results []E9Result
	run := func(name string, factor int) error {
		r, err := newRig(cluster.Options{}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		def, err := loadEmp(r, n, 100, true)
		if err != nil {
			return err
		}
		r.c.Net.ResetStats()
		tx := r.fs.Begin()
		cur, err := r.fs.OpenCursor(tx, def, keys.All(), nil, factor)
		if err != nil {
			return err
		}
		for {
			row, ok := cur.Next()
			if !ok {
				break
			}
			upd := row.Clone()
			upd[2] = record.Float(row[2].F + 1)
			if err := cur.UpdateCurrent(upd); err != nil {
				return err
			}
		}
		if err := cur.Err(); err != nil {
			return err
		}
		if err := cur.Close(); err != nil {
			return err
		}
		msgs := r.c.Net.Stats().Requests
		if err := r.fs.Commit(tx); err != nil {
			return err
		}
		res := E9Result{Strategy: name, Rows: n, Messages: msgs, PerRow: float64(msgs) / float64(n)}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{name, d(n), u(msgs), fmt.Sprintf("%.3f", res.PerRow)})
		return nil
	}
	if err := run("message per record (current construct)", 0); err != nil {
		return nil, nil, err
	}
	for _, factor := range factors {
		if err := run(fmt.Sprintf("UPDATE^BLOCK, factor %d", factor), factor); err != nil {
			return nil, nil, err
		}
	}
	return results, table, nil
}

// F1Result captures local vs remote access cost.
type F1Result struct {
	Placement string
	Messages  uint64
	LocalMsgs uint64
	BusMsgs   uint64
	NetMsgs   uint64
}

// F1 reproduces Figure 1's topology: requesters reach local and remote
// Disk Processes through the same message interface; the counters
// classify each hop (same processor, inter-processor bus, inter-node
// network). Filtering at the source matters most for the remote rows.
func F1() ([]F1Result, *Table, error) {
	c, err := cluster.New(cluster.Options{Nodes: 2})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 0, "$LOCAL"); err != nil {
		return nil, nil, err
	}
	if _, err := c.AddVolume(0, 1, "$BUS"); err != nil {
		return nil, nil, err
	}
	if _, err := c.AddVolume(1, 0, "$REMOTE"); err != nil {
		return nil, nil, err
	}
	f := c.NewFS(0, 0)
	table := &Table{
		ID:    "F1",
		Title: "Figure 1: message classification by placement (two 4-CPU nodes)",
		Claim: "requestors communicate with local and remote servers via messages; the message system makes distribution transparent",
		Cols: []Col{
			label("volume placement"), counted("requests"), counted("same-CPU"), counted("bus"),
			counted("network"),
		},
	}
	var results []F1Result
	for _, vol := range []string{"$LOCAL", "$BUS", "$REMOTE"} {
		def := &fs.FileDef{
			Name: "T" + strings.TrimPrefix(vol, "$"),
			Schema: record.MustSchema("T"+strings.TrimPrefix(vol, "$"), []record.Field{
				{Name: "K", Type: record.TypeInt, NotNull: true},
				{Name: "V", Type: record.TypeString},
			}, []int{0}),
			Partitions: []fs.Partition{{Server: vol}},
			FieldAudit: true,
		}
		if err := f.Create(def); err != nil {
			return nil, nil, err
		}
		c.Net.ResetStats()
		tx := f.Begin()
		for i := 0; i < 10; i++ {
			if err := f.Insert(tx, def, record.Row{record.Int(int64(i)), record.String("v")}); err != nil {
				return nil, nil, err
			}
		}
		if err := f.Commit(tx); err != nil {
			return nil, nil, err
		}
		ns := c.Net.Stats()
		res := F1Result{Placement: vol, Messages: ns.Requests, LocalMsgs: ns.Local, BusMsgs: ns.Bus, NetMsgs: ns.Network}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{vol, u(ns.Requests), u(ns.Local), u(ns.Bus), u(ns.Network)})
	}
	return results, table, nil
}

// F2Result captures the indexed-update message flow.
type F2Result struct {
	Step     string
	Messages uint64
}

// F2 reproduces Figure 2: an update via alternate key costs one message
// to the index's Disk Process (find the primary key) and one to the base
// file's Disk Process (apply the update expression) — index and base on
// different volumes.
func F2() ([]F2Result, *Table, error) {
	r, err := newRig(cluster.Options{}, 2)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	def := empDef(100, true)
	def.Indexes = []*fs.IndexDef{{Name: "EMP.NAME", Column: 1, Partitions: []fs.Partition{{Server: "$DATA2"}}}}
	if err := r.fs.Create(def); err != nil {
		return nil, nil, err
	}
	tx := r.fs.Begin()
	if err := r.fs.Insert(tx, def, record.Row{
		record.Int(7), record.String("borr"), record.Float(100), record.String("x"),
	}); err != nil {
		return nil, nil, err
	}
	if err := r.fs.Commit(tx); err != nil {
		return nil, nil, err
	}

	table := &Table{
		ID:    "F2",
		Title: "Figure 2: update via alternate (secondary) key",
		Claim: "the File System first asks the index's disk server for the primary key, then sends the update expression to the server managing the primary-key partition",
		Cols:  []Col{label("step"), counted("messages")},
	}
	var results []F2Result
	tx2 := r.fs.Begin()
	r.c.Net.ResetStats()
	rows, err := r.fs.ReadByIndex(tx2, def, def.Indexes[0], record.String("borr"))
	if err != nil || len(rows) != 1 {
		return nil, nil, fmt.Errorf("index read: %v (%d rows)", err, len(rows))
	}
	afterIndex := r.c.Net.Stats().Requests
	results = append(results, F2Result{Step: "index probe + base read", Messages: afterIndex})
	table.Rows = append(table.Rows, []string{"1. index DP probe + base DP read", u(afterIndex)})

	row, err := record.Decode(rows[0])
	if err != nil {
		return nil, nil, err
	}
	key := def.Schema.Key(row)
	if err := r.fs.UpdateFields(tx2, def, key, []expr.Assignment{
		{Field: 2, E: expr.Bin(expr.OpSub, expr.F(2, "SALARY"), expr.CInt(10))},
	}); err != nil {
		return nil, nil, err
	}
	total := r.c.Net.Stats().Requests
	results = append(results, F2Result{Step: "update expression to base DP", Messages: total - afterIndex})
	table.Rows = append(table.Rows, []string{"2. update expression to base DP", u(total - afterIndex)})
	table.Rows = append(table.Rows, []string{"total (excl. commit)", u(total)})
	if err := r.fs.Commit(tx2); err != nil {
		return nil, nil, err
	}
	return results, table, nil
}

// E11Result captures the VSBB locking comparison.
type E11Result struct {
	Mode          string
	WriterBlocked bool
	WriterWhere   string
}

// E11 reproduces the VSBB locking improvement: ENSCRIBE's SBB required a
// file lock (writers excluded everywhere); VSBB locks only the virtual
// block's records as a group, so writers outside the block proceed.
func E11() ([]E11Result, *Table, error) {
	table := &Table{
		ID:    "E11",
		Title: "Sequential-read locking: ENSCRIBE SBB file lock vs VSBB virtual-block group lock",
		Claim: "the locking restriction under ENSCRIBE (file locking only) has been removed for SQL; records of the virtual block are locked as a group",
		Cols:  []Col{label("reader"), label("writer target"), counted("writer outcome")},
	}
	var results []E11Result

	// ENSCRIBE SBB: file lock blocks writers anywhere in the file.
	{
		r, err := newRig(cluster.Options{LockTimeout: 100 * time.Millisecond}, 1)
		if err != nil {
			return nil, nil, err
		}
		def, err := loadEmp(r, 1000, 100, false)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		file := enscribe.Open(r.fs, def)
		reader := r.fs.Begin()
		if err := file.EnableSBB(reader); err != nil {
			r.close()
			return nil, nil, err
		}
		writer := r.fs.Begin()
		err = r.fs.UpdateFields(writer, def, keys.AppendInt64(nil, 999), []expr.Assignment{
			{Field: 2, E: expr.CInt(1)},
		})
		blocked := err != nil
		_ = r.fs.Abort(writer)
		_ = r.fs.Commit(reader)
		r.close()
		results = append(results, E11Result{Mode: "ENSCRIBE SBB (file lock)", WriterBlocked: blocked, WriterWhere: "far from reader position"})
		table.Rows = append(table.Rows, []string{"ENSCRIBE RSBB under file lock", "record far beyond the scanned block", outcome(blocked)})
	}

	// VSBB: group lock covers only the current virtual block.
	{
		r, err := newRig(cluster.Options{LockTimeout: 100 * time.Millisecond}, 1)
		if err != nil {
			return nil, nil, err
		}
		def, err := loadEmp(r, 1000, 100, true)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		reader := r.fs.Begin()
		rows := r.fs.Select(reader, def, fs.SelectSpec{
			Mode: fs.ModeVSBB, Range: keys.All(), Proj: []int{0}, RowLimit: 50,
		})
		// Pull the first virtual block only: locks records ~0..49.
		if _, _, ok := rows.Next(); !ok {
			r.close()
			return nil, nil, fmt.Errorf("E11: empty scan")
		}
		writer := r.fs.Begin()
		// Inside the virtual block: blocked.
		errIn := r.fs.UpdateFields(writer, def, keys.AppendInt64(nil, 10), []expr.Assignment{
			{Field: 2, E: expr.CInt(1)},
		})
		_ = r.fs.Abort(writer)
		writer2 := r.fs.Begin()
		// Outside the virtual block: proceeds.
		errOut := r.fs.UpdateFields(writer2, def, keys.AppendInt64(nil, 999), []expr.Assignment{
			{Field: 2, E: expr.CInt(1)},
		})
		_ = r.fs.Commit(writer2)
		_ = r.fs.Commit(reader)
		r.close()
		results = append(results,
			E11Result{Mode: "VSBB (virtual-block lock)", WriterBlocked: errIn != nil, WriterWhere: "inside current virtual block"},
			E11Result{Mode: "VSBB (virtual-block lock)", WriterBlocked: errOut != nil, WriterWhere: "outside current virtual block"})
		table.Rows = append(table.Rows,
			[]string{"VSBB group lock", "record inside the current virtual block", outcome(errIn != nil)},
			[]string{"VSBB group lock", "record outside the virtual block", outcome(errOut != nil)})
	}
	return results, table, nil
}

func outcome(blocked bool) string {
	if blocked {
		return "BLOCKED"
	}
	return "proceeds"
}
