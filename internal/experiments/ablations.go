package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
)

// AblationPushdownSelectivity sweeps predicate selectivity and compares
// DP-side filtering (VSBB) against requester-side filtering (RSBB) on
// message bytes: the design choice DESIGN.md calls out. The gain shrinks
// as selectivity approaches 100% — when everything qualifies, pushdown
// saves projection bytes only.
func AblationPushdownSelectivity(n int) (*Table, error) {
	r, err := newRig(cluster.Options{}, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()
	def, err := loadEmp(r, n, 200, true)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "ABL-PUSHDOWN",
		Title: "Ablation: message bytes vs predicate selectivity (DP-side vs requester-side filtering)",
		Claim: "filtering at the source wins most when the predicate is very selective",
		Cols: []Col{
			label("selectivity"), counted("RSBB KB"), counted("VSBB KB"),
			counted("byte reduction"),
		},
	}
	for _, pct := range []int{1, 10, 25, 50, 100} {
		cutoff := int64(n * pct / 100)
		pred := expr.Bin(expr.OpLT, expr.F(0, "EMPNO"), expr.CInt(cutoff))
		// Requester-side: all records cross; client filters.
		r.c.Net.ResetStats()
		if err := drain(r, def, fsSpecRSBB()); err != nil {
			return nil, err
		}
		rsbbBytes := r.c.Net.Stats().Bytes()
		// DP-side: note we deliberately do NOT let the planner turn the
		// key predicate into a range — we want pure filtering cost, so
		// the predicate goes down as a non-key residual on SALARY.
		predSal := expr.Bin(expr.OpLT, expr.F(2, "SALARY"), expr.CFloat(float64(cutoff)))
		_ = pred
		r.c.Net.ResetStats()
		if err := drain(r, def, fsSpecVSBB(predSal)); err != nil {
			return nil, err
		}
		vsbbBytes := r.c.Net.Stats().Bytes()
		red := float64(rsbbBytes) / float64(vsbbBytes)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d%%", pct), u(rsbbBytes / 1024), u(vsbbBytes / 1024), f1(red) + "x",
		})
	}
	return table, nil
}

// AblationSCB quantifies the Subset Control Block design choice: a
// long scan is driven once with SCB semantics (predicate travels only
// in GET^FIRST) and compared against the hypothetical protocol that
// re-sends the predicate and projection on every re-drive.
func AblationSCB(n int) (*Table, error) {
	r, err := newRig(cluster.Options{}, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()
	def, err := loadEmp(r, n, 100, true)
	if err != nil {
		return nil, err
	}
	pred := expr.And(
		expr.Bin(expr.OpGE, expr.F(2, "SALARY"), expr.CFloat(0)),
		expr.And(
			expr.Bin(expr.OpLike, expr.F(1, "NAME"), expr.CString("emp-%")),
			expr.Bin(expr.OpLT, expr.F(2, "SALARY"), expr.CFloat(1e12))))

	table := &Table{
		ID:    "ABL-SCB",
		Title: "Ablation: Subset Control Block vs re-sending predicate on every re-drive",
		Claim: "the predicate and projection were saved in the Subset Control Block created at GET^FIRST time",
		Cols: []Col{
			label("rows/msg limit"), counted("re-drives"), counted("request KB with SCB"),
			counted("request KB re-sending"), counted("saving"),
		},
	}
	for _, limit := range []int{10, 50, 200} {
		r.c.Net.ResetStats()
		rows := r.fs.Select(nil, def, fs.SelectSpec{
			Mode: fs.ModeVSBB, Range: keys.All(), Pred: pred, Proj: []int{0, 1},
			RowLimit: uint32(limit),
		})
		for {
			if _, _, ok := rows.Next(); !ok {
				break
			}
		}
		if err := rows.Err(); err != nil {
			return nil, err
		}
		ns := r.c.Net.Stats()
		redrives := ns.Requests - 1
		gf, gn := redriveRequestSizes(def, pred, limit)
		withSCB := ns.RequestBytes
		// Hypothetical: every GET^NEXT grows by the predicate/projection
		// payload GET^FIRST carries.
		resend := withSCB + redrives*uint64(gf-gn)
		saving := float64(resend-withSCB) / float64(resend) * 100
		table.Rows = append(table.Rows, []string{
			d(limit), u(redrives),
			fmt.Sprintf("%.1f", float64(withSCB)/1024),
			fmt.Sprintf("%.1f", float64(resend)/1024),
			fmt.Sprintf("%.0f%%", saving),
		})
	}
	return table, nil
}

// AblationReplicatedPair quantifies what the paper's availability
// architecture costs. The process pair [Bartlett] is a replicated
// partition group: the primary ships every audit record to a backup
// Disk Process on the other node, one batch per commit, in exchange for
// a takeover that promotes the backup instead of replaying the log. The
// run ends with that takeover, and the bank must balance on the promoted
// backup.
func AblationReplicatedPair(txns int) (*Table, error) {
	table := &Table{
		ID:    "ABL-PAIRS",
		Title: "Ablation: process-pair checkpointing cost (availability vs message traffic)",
		Claim: "software redundancy provides fault-tolerant device-controlling process-pairs [Bartlett]",
		Cols: []Col{
			label("configuration"), counted("msgs/txn"), counted("ship batches/txn"),
			label("takeover"),
		},
	}
	scale := debitcredit.Scale{Branches: 5, TellersPerBr: 10, AccountsPerBr: 100}
	run := func(opts cluster.Options) error {
		r, err := newRig(opts, 1)
		if err != nil {
			return err
		}
		defer r.close()
		bank := debitcredit.Defs([]string{"$DATA1"}, true)
		if err := bank.Create(r.fs, scale); err != nil {
			return err
		}
		shipped, _ := r.c.ReplicationStats("$DATA1") // zero without a group
		r.c.Net.ResetStats()
		rng := rand.New(rand.NewSource(5))
		var want float64
		for i := 0; i < txns; i++ {
			t := debitcredit.Generate(rng, scale)
			if err := bank.RunSQL(r.fs, t); err != nil {
				return err
			}
			want += t.Delta
		}
		perTxn := fmt.Sprintf("%.1f", float64(r.c.Net.Stats().Requests)/float64(txns))
		if !opts.Replication {
			table.Rows = append(table.Rows, []string{"single process (no pair)", perTxn, "0", "log recovery required"})
			return nil
		}
		after, _ := r.c.ReplicationStats("$DATA1") // a replicated partition: no error
		batches := fmt.Sprintf("%.1f", float64(after.ShippedBatches-shipped.ShippedBatches)/float64(txns))
		if err := r.c.CrashDP("$DATA1"); err != nil {
			return err
		}
		if err := r.c.TakeoverReplica("$DATA1"); err != nil {
			return fmt.Errorf("ABL-PAIRS: takeover: %w", err)
		}
		if acc, _, br, err := bank.Audit(r.fs); err != nil || math.Abs(acc-want) > 1e-6 || math.Abs(br-want) > 1e-6 {
			return fmt.Errorf("ABL-PAIRS: promoted backup: accounts %v, branches %v, want %v: %v", acc, br, want, err)
		}
		table.Rows = append(table.Rows, []string{"process pair (replicated group)", perTxn, batches, "backup promoted (no log replay)"})
		return nil
	}
	for _, opts := range []cluster.Options{{}, {Nodes: 2, Replication: true}} {
		if err := run(opts); err != nil {
			return nil, err
		}
	}
	return table, nil
}
