package experiments

import (
	"fmt"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/sql"
	"nonstopsql/internal/wisconsin"
)

// E1Result carries the raw numbers for benchmarks.
type E1Result struct {
	RecordBytes    int
	Rows           int
	RecordMsgs     uint64
	RSBBMsgs       uint64
	BlockingFactor float64 // records per 4 KB block
	Factor         float64 // message reduction
}

// E1 reproduces "RSBB gives a factor of three over the record-at-a-time
// interface": full-file sequential reads under the old interface vs
// real sequential block buffering, swept over record sizes. The factor
// tracks the file's blocking factor; ~1.3 KB records give the paper's 3.
func E1(n int) ([]E1Result, *Table, error) {
	sizes := []int{100, 400, 1300}
	var results []E1Result
	table := &Table{
		ID:    "E1",
		Title: "Sequential read message traffic: record-at-a-time vs RSBB",
		Claim: "RSBB gives a factor of three over the record-at-a-time interface (at the 4 KB block's blocking factor)",
		Cols: []Col{
			label("record bytes"), label("rows"), counted("record-at-a-time msgs"),
			counted("RSBB msgs"), counted("blocking factor"), counted("msg reduction"),
		},
	}
	for _, size := range sizes {
		r, err := newRig(cluster.Options{}, 1)
		if err != nil {
			return nil, nil, err
		}
		def, err := loadEmp(r, n, size, true)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		count := func(mode fs.ScanMode) (uint64, error) {
			r.c.Net.ResetStats()
			rows := r.fs.Select(nil, def, fs.SelectSpec{Mode: mode, Range: keys.All()})
			for {
				if _, _, ok := rows.Next(); !ok {
					break
				}
			}
			return r.c.Net.Stats().Requests, rows.Err()
		}
		recMsgs, err := count(fs.ModeRecord)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		rsbbMsgs, err := count(fs.ModeRSBB)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		r.close()
		res := E1Result{
			RecordBytes:    size,
			Rows:           n,
			RecordMsgs:     recMsgs,
			RSBBMsgs:       rsbbMsgs,
			BlockingFactor: float64(n) / float64(rsbbMsgs),
			Factor:         float64(recMsgs) / float64(rsbbMsgs),
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			d(size), d(n), u(recMsgs), u(rsbbMsgs), f1(res.BlockingFactor), f1(res.Factor) + "x",
		})
	}
	return results, table, nil
}

// E2Result carries per-query numbers.
type E2Result struct {
	Query       string
	Selectivity float64
	RSBBMsgs    uint64
	VSBBMsgs    uint64
	RSBBBytes   uint64
	VSBBBytes   uint64
	Factor      float64
}

// E2 reproduces "VSBB gives NonStop SQL an additional factor of three
// over RSBB on many of the Wisconsin benchmark queries": for each query,
// the RSBB path ships every record to the requester which filters and
// projects locally; the VSBB path lets the Disk Process filter and
// project at the source.
func E2(n int) ([]E2Result, *Table, error) {
	r, err := newRig(cluster.Options{}, 1)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	cat := sql.NewCatalog([]string{"$DATA1"})
	sess := sql.NewSession(cat, r.fs)
	if err := wisconsin.Load(sess, "WISC", n, ""); err != nil {
		return nil, nil, err
	}
	def, err := cat.Table("WISC")
	if err != nil {
		return nil, nil, err
	}

	var results []E2Result
	table := &Table{
		ID:    "E2",
		Title: "Wisconsin queries: RSBB (client-side filter) vs VSBB (DP-side selection+projection)",
		Claim: "VSBB gives an additional factor of three over RSBB on many of the Wisconsin benchmark queries",
		Cols: []Col{
			label("query"), label("selectivity"), counted("RSBB msgs"), counted("VSBB msgs"),
			counted("RSBB KB"), counted("VSBB KB"), counted("msg reduction"),
		},
	}
	for _, q := range wisconsin.Queries("WISC", n) {
		// RSBB baseline: whole records cross the interface; the
		// requester evaluates the predicate and projection itself.
		r.c.Net.ResetStats()
		rows := r.fs.Select(nil, def, fs.SelectSpec{Mode: fs.ModeRSBB, Range: keys.All()})
		for {
			if _, _, ok := rows.Next(); !ok {
				break
			}
		}
		if err := rows.Err(); err != nil {
			return nil, nil, err
		}
		rsbbStats := r.c.Net.Stats()

		// VSBB: the SQL layer's actual plan.
		r.c.Net.ResetStats()
		if _, err := sess.Exec(q.SQL); err != nil {
			return nil, nil, fmt.Errorf("query %s: %w", q.Name, err)
		}
		vsbbStats := r.c.Net.Stats()

		res := E2Result{
			Query:       q.Name,
			Selectivity: q.Selectivity,
			RSBBMsgs:    rsbbStats.Requests,
			VSBBMsgs:    vsbbStats.Requests,
			RSBBBytes:   rsbbStats.Bytes(),
			VSBBBytes:   vsbbStats.Bytes(),
		}
		if res.VSBBMsgs > 0 {
			res.Factor = float64(res.RSBBMsgs) / float64(res.VSBBMsgs)
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			q.Name, fmt.Sprintf("%.0f%%", q.Selectivity*100),
			u(res.RSBBMsgs), u(res.VSBBMsgs),
			u(res.RSBBBytes / 1024), u(res.VSBBBytes / 1024),
			f1(res.Factor) + "x",
		})
	}
	table.Notes = append(table.Notes,
		"key-range queries (sel*-clustered) also shrink the scanned span at the Disk Process",
		"expr queries (agg-*) return one row; nearly all traffic is eliminated at the source")
	return results, table, nil
}

// E10Result captures continuation re-drive behaviour.
type E10Result struct {
	RowLimit   int
	Messages   uint64
	TotalRows  int
	ReqBytesGF int // GET^FIRST request size (carries predicate)
	ReqBytesGN int // GET^NEXT request size (SCB reference only)
}

// E10 exercises the continuation re-drive protocol: a set request never
// processes more than its per-message budget, re-drives resume exactly
// after the last processed key, and GET^NEXT re-drives do not re-send
// the predicate/projection (they were saved in the Subset Control Block
// at GET^FIRST time).
func E10(n int) ([]E10Result, *Table, error) {
	r, err := newRig(cluster.Options{}, 1)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	def, err := loadEmp(r, n, 100, true)
	if err != nil {
		return nil, nil, err
	}
	// A realistic compound predicate: the bytes GET^FIRST spends shipping
	// it are exactly what the Subset Control Block saves on every
	// re-drive.
	pred := expr.And(
		expr.Bin(expr.OpGE, expr.F(2, "SALARY"), expr.CFloat(0)),
		expr.And(
			expr.Bin(expr.OpLike, expr.F(1, "NAME"), expr.CString("emp-%")),
			expr.Bin(expr.OpLT, expr.F(2, "SALARY"), expr.CFloat(1e12))))
	var results []E10Result
	table := &Table{
		ID:    "E10",
		Title: "Continuation re-drive protocol: bounded work per message",
		Claim: "limits on time spent per request message trigger re-drives; predicate/projection travel once (Subset Control Block)",
		Cols: []Col{
			label("rows/msg limit"), counted("messages"), counted("rows"),
			counted("GET^FIRST bytes"), counted("GET^NEXT bytes"),
		},
	}
	for _, limit := range []int{10, 100, 1000} {
		r.c.Net.ResetStats()
		rows := r.fs.Select(nil, def, fs.SelectSpec{
			Mode: fs.ModeVSBB, Range: keys.All(), Pred: pred, Proj: []int{0},
			RowLimit: uint32(limit),
		})
		total := 0
		for {
			if _, _, ok := rows.Next(); !ok {
				break
			}
			total++
		}
		if err := rows.Err(); err != nil {
			return nil, nil, err
		}
		msgs := r.c.Net.Stats().Requests
		gf, gn := redriveRequestSizes(def, pred, limit)
		res := E10Result{
			RowLimit: limit, Messages: msgs, TotalRows: total,
			ReqBytesGF: gf, ReqBytesGN: gn,
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			d(limit), u(msgs), d(total), d(gf), d(gn),
		})
	}
	table.Notes = append(table.Notes,
		"GET^NEXT is smaller than GET^FIRST because the predicate and projection are not re-sent")
	return results, table, nil
}
