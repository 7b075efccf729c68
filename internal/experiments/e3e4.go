package experiments

import (
	"fmt"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/enscribe"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// E3Result compares update strategies.
type E3Result struct {
	Strategy string
	Records  int
	Messages uint64
	PerRec   float64
}

// E3 reproduces the update-expression pushdown claim: delegating
// SET BALANCE = BALANCE * 1.07 to the Disk Process eliminates the
// message that would otherwise return the record to the requester
// before a second update message. Three strategies over the same
// records:
//
//	read+rewrite     — the ENSCRIBE pattern: 2 messages per record
//	point pushdown   — one UPDATE^SUBSET point message per record
//	subset pushdown  — one UPDATE^SUBSET^FIRST/NEXT conversation total
func E3(n int) ([]E3Result, *Table, error) {
	table := &Table{
		ID:    "E3",
		Title: "Update message traffic: requester read-modify-write vs DP-side update expression",
		Claim: "subcontracting the expression evaluation and update to the disk process avoids returning the record to the File System invoker",
		Cols: []Col{
			label("strategy"), label("records"), counted("messages"), counted("msgs/record"),
		},
	}
	var results []E3Result
	run := func(name string, fn func(r *rig, defName string) error) error {
		r, err := newRig(cluster.Options{}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		def, err := loadEmp(r, n, 200, true)
		if err != nil {
			return err
		}
		_ = def
		r.c.Net.ResetStats()
		if err := fn(r, "EMP"); err != nil {
			return err
		}
		msgs := r.c.Net.Stats().Requests
		res := E3Result{Strategy: name, Records: n, Messages: msgs, PerRec: float64(msgs) / float64(n)}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{name, d(n), u(msgs), fmt.Sprintf("%.2f", res.PerRec)})
		return nil
	}

	raise := []expr.Assignment{
		{Field: 2, E: expr.Bin(expr.OpMul, expr.F(2, "SALARY"), expr.CFloat(1.07))},
	}

	if err := run("read+rewrite (ENSCRIBE pattern)", func(r *rig, name string) error {
		def := empDef(200, true)
		file := enscribe.Open(r.fs, def)
		tx := r.fs.Begin()
		for i := 0; i < n; i++ {
			key := keys.AppendInt64(nil, int64(i))
			if err := file.ReadUpdateRewrite(tx, key, func(row record.Row) record.Row {
				row[2] = record.Float(row[2].F * 1.07)
				return row
			}); err != nil {
				return err
			}
		}
		return r.fs.Commit(tx)
	}); err != nil {
		return nil, nil, err
	}

	if err := run("point update pushdown", func(r *rig, name string) error {
		def := empDef(200, true)
		tx := r.fs.Begin()
		for i := 0; i < n; i++ {
			key := keys.AppendInt64(nil, int64(i))
			if err := r.fs.UpdateFields(tx, def, key, raise); err != nil {
				return err
			}
		}
		return r.fs.Commit(tx)
	}); err != nil {
		return nil, nil, err
	}

	if err := run("UPDATE^SUBSET pushdown", func(r *rig, name string) error {
		def := empDef(200, true)
		tx := r.fs.Begin()
		if _, _, err := r.fs.UpdateSubset(tx, def, keys.All(), nil, raise); err != nil {
			return err
		}
		return r.fs.Commit(tx)
	}); err != nil {
		return nil, nil, err
	}
	table.Notes = append(table.Notes, "per-record factor: 2.0 → 1.0 → ≈0 as function moves to the server")
	return results, table, nil
}

// E4Result compares audit formats.
type E4Result struct {
	Format      string
	Updates     int
	AuditBytes  uint64
	BytesPerUpd float64
	AuditSends  uint64
	LogFlushes  uint64
}

// E4 reproduces the field-compressed audit claim: the same one-field
// update of wide records audits far fewer bytes under SQL's field
// images than under ENSCRIBE's full-record images, with the downstream
// effects the paper lists — fewer buffer-full audit sends and fewer log
// writes.
func E4(n int) ([]E4Result, *Table, error) {
	table := &Table{
		ID:    "E4",
		Title: "Audit record size: field-compressed (SQL) vs full-record images (ENSCRIBE)",
		Claim: "field-compressed audit records are generally reduced in size; the audit buffer fills up less frequently",
		Cols: []Col{
			label("audit format"), label("updates"), counted("audit KB"),
			counted("bytes/update"), counted("audit sends"), counted("log flushes"),
		},
	}
	var results []E4Result
	run := func(name string, fieldAudit bool) error {
		r, err := newRig(cluster.Options{AuditBufBytes: 8 * 1024}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		def, err := loadEmp(r, n, 400, fieldAudit)
		if err != nil {
			return err
		}
		r.c.Nodes[0].Trail.ResetStats()
		tx := r.fs.Begin()
		if _, _, err := r.fs.UpdateSubset(tx, def, keys.All(), nil, []expr.Assignment{
			{Field: 2, E: expr.Bin(expr.OpAdd, expr.F(2, "SALARY"), expr.CInt(1))},
		}); err != nil {
			return err
		}
		if err := r.fs.Commit(tx); err != nil {
			return err
		}
		ts := r.c.Nodes[0].Trail.Stats()
		sends := r.c.DP("$DATA1")
		_ = sends
		res := E4Result{
			Format:      name,
			Updates:     n,
			AuditBytes:  ts.BytesAppended,
			BytesPerUpd: float64(ts.BytesAppended) / float64(n),
			AuditSends:  ts.BufferFullFlushes,
			LogFlushes:  ts.Flushes,
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			name, d(n), u(ts.BytesAppended / 1024),
			f1(res.BytesPerUpd), u(res.AuditSends), u(res.LogFlushes),
		})
		return nil
	}
	if err := run("full-record (ENSCRIBE)", false); err != nil {
		return nil, nil, err
	}
	if err := run("field-compressed (SQL)", true); err != nil {
		return nil, nil, err
	}
	if len(results) == 2 && results[1].AuditBytes > 0 {
		ratio := float64(results[0].AuditBytes) / float64(results[1].AuditBytes)
		table.Notes = append(table.Notes, fmt.Sprintf("compression ratio: %.1fx (record ≈400 B, updated field 8 B)", ratio))
	}
	return results, table, nil
}
