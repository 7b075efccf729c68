package experiments

import (
	"fmt"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/record"
)

// E12Result is one degree-of-parallelism row of the parallel scan
// experiment.
type E12Result struct {
	DOP      int
	Rows     int
	Checksum int64 // order-independent sum of returned EMPNOs
	Msgs     uint64
	Bytes    uint64
	Modeled  time.Duration // list-scheduled makespan under msg.CostModel
	Speedup  float64       // modeled(DOP=1) / modeled(DOP)
	Overlap  float64       // measured concurrency: span busy time / wall time
}

// E12 runs the parallel partitioned scan experiment: a Wisconsin-style
// 50%-selectivity VSBB scan over an EMP file split into four partitions,
// one per processor of a 4-CPU node, at DOP 1, 2, and 4. The paper's
// architecture puts each partition under its own Disk Process on its
// own CPU; this measures what driving those Disk Processes concurrently
// buys. Traffic must not change with DOP — identical rows, identical
// message counts — only the modeled elapsed time (and the measured
// wall-clock overlap) improves, because the per-partition re-drive
// conversations overlap instead of queueing behind one another.
func E12(n int) ([]E12Result, *Table, error) {
	c, err := cluster.New(cluster.Options{CPUsPerNode: 4})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()

	const parts = 4
	var defParts []fs.Partition
	for i := 0; i < parts; i++ {
		name := fmt.Sprintf("$DATA%d", i+1)
		if _, err := c.AddVolume(0, i, name); err != nil {
			return nil, nil, err
		}
		p := fs.Partition{Server: name}
		if i > 0 {
			p.LowKey = keys.AppendInt64(nil, int64(i*n/parts))
		}
		defParts = append(defParts, p)
	}
	f := c.NewFS(0, 0)

	def := &fs.FileDef{
		Name: "EMP",
		Schema: record.MustSchema("EMP", []record.Field{
			{Name: "EMPNO", Type: record.TypeInt, NotNull: true},
			{Name: "NAME", Type: record.TypeString},
			{Name: "SALARY", Type: record.TypeFloat},
			{Name: "FILLER", Type: record.TypeString},
		}, []int{0}),
		Partitions: defParts,
	}
	if err := f.Create(def); err != nil {
		return nil, nil, err
	}
	// Bulk-load each partition's slice directly at its Disk Process.
	filler := make([]byte, 140)
	for i := range filler {
		filler[i] = 'f'
	}
	for p := 0; p < parts; p++ {
		lo, hi := p*n/parts, (p+1)*n/parts
		rows := make([]record.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, record.Row{
				record.Int(int64(i)),
				record.String(fmt.Sprintf("emp-%06d", i)),
				record.Float(float64(i)),
				record.String(string(filler)),
			})
		}
		if err := c.DP(defParts[p].Server).BulkLoad("EMP", rows); err != nil {
			return nil, nil, err
		}
	}

	// 50% selectivity on a non-key field, so the predicate cannot fold
	// into the key range: every partition scans fully and filters at the
	// Disk Process, the Wisconsin "50% selection" shape.
	pred := expr.Bin(expr.OpLT, expr.F(2, "SALARY"), expr.CFloat(float64(n/2)))
	model := msg.DefaultCostModel()

	var results []E12Result
	for _, dop := range []int{1, 2, 4} {
		c.Net.ResetStats()
		rows := f.Select(nil, def, fs.SelectSpec{
			Mode: fs.ModeVSBB, Range: keys.All(),
			Pred: pred, Proj: []int{0, 1},
			// A paper-period reply block holds ~64 projected rows, so
			// each partition runs a real multi-message re-drive
			// conversation rather than answering in one block.
			RowLimit: 64,
			Parallel: dop, Unordered: dop > 1,
		})
		count := 0
		var checksum int64
		for {
			row, _, ok := rows.Next()
			if !ok {
				break
			}
			count++
			checksum += row[0].I
		}
		if err := rows.Err(); err != nil {
			return nil, nil, err
		}
		st := rows.Stats()
		res := E12Result{
			DOP: dop, Rows: count, Checksum: checksum,
			Msgs: st.Messages, Bytes: st.Bytes,
			Modeled: st.Modeled(model, dop),
			Overlap: st.Overlap(),
		}
		if net := c.Net.Stats(); net.Requests != st.Messages {
			return nil, nil, fmt.Errorf("E12: scan accounting disagrees with the network counters: %d vs %d", st.Messages, net.Requests)
		}
		results = append(results, res)
	}
	base := results[0]
	for i := range results {
		r := &results[i]
		r.Speedup = float64(base.Modeled) / float64(r.Modeled)
		if r.Rows != base.Rows || r.Checksum != base.Checksum {
			return nil, nil, fmt.Errorf("E12: DOP %d returned different rows (%d vs %d)", r.DOP, r.Rows, base.Rows)
		}
		if r.Msgs != base.Msgs || r.Bytes != base.Bytes {
			return nil, nil, fmt.Errorf("E12: DOP %d changed traffic (%d msgs vs %d)", r.DOP, r.Msgs, base.Msgs)
		}
	}

	table := &Table{
		ID:    "E12",
		Title: "parallel partitioned scan (4 partitions on 4 CPUs, 50% selection via VSBB)",
		Claim: "each partition has its own Disk Process on its own processor; driving them in parallel divides scan elapsed time without adding messages",
		Cols: []Col{
			label("DOP"), counted("rows"), counted("msgs"), counted("KB"), modeled("modeled ms"),
			modeled("speedup"), observed("overlap"),
		},
	}
	for _, r := range results {
		table.Rows = append(table.Rows, []string{
			d(r.DOP), d(r.Rows), u(r.Msgs), u(r.Bytes / 1024),
			fmt.Sprintf("%.1f", float64(r.Modeled)/float64(time.Millisecond)),
			f1(r.Speedup) + "x", f1(r.Overlap) + "x",
		})
	}
	table.Notes = append(table.Notes,
		"identical rows, bytes, and message counts at every DOP: parallelism must not inflate traffic",
		"modeled ms list-schedules each partition conversation's message cost onto DOP scanners (msg.CostModel)",
		"overlap is measured wall-clock concurrency of this run's conversations (sum of per-span wait / scan wall time)",
	)
	return results, table, nil
}
