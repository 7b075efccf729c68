package sql

import (
	"fmt"
	"sort"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// This file routes decomposable aggregate queries through the
// AGG^FIRST/NEXT conversation: the Disk Processes evaluate partial
// aggregates against each partition's subset and the File System merges
// the per-group partial states — the generalization of the COUNT(*)
// pushdown to COUNT/SUM/MIN/MAX/AVG with GROUP BY. Non-decomposable
// shapes (DISTINCT, expression arguments, star items) fall back to the
// row path, which remains the semantic ground truth.

// aggPushPlan is a compiled pushdown aggregation: the bound plans the
// row path would use, plus the wire specification and the mapping from
// output item to partial-state column.
type aggPushPlan struct {
	gbs    []expr.Expr
	plans  []itemPlan
	having expr.Expr
	spec   *fsdp.AggSpec
	colOf  []int // plans[i] -> index into spec.Cols (-1 for group-by items)
}

// planAggPushdown compiles sel for DP-side partial aggregation. ok is
// false when any part of the query is not decomposable; binding errors
// also report !ok so the row path raises them.
func planAggPushdown(sel Select, sc *scope) (*aggPushPlan, bool) {
	gbs, plans, having, err := buildAggPlans(sel, sc)
	if err != nil {
		return nil, false
	}
	p := &aggPushPlan{gbs: gbs, plans: plans, having: having, spec: &fsdp.AggSpec{}}
	for _, g := range gbs {
		// Only bare column references extract at the Disk Process.
		fr, ok := g.(expr.FieldRef)
		if !ok {
			return nil, false
		}
		p.spec.GroupBy = append(p.spec.GroupBy, fr.Index)
	}
	p.colOf = make([]int, len(plans))
	for i, pl := range plans {
		p.colOf[i] = -1
		if pl.agg == nil {
			continue
		}
		a := pl.agg
		if a.distinct {
			return nil, false // DISTINCT partials do not merge
		}
		var fn fsdp.AggFn
		switch a.fn {
		case "COUNT":
			fn = fsdp.AggCount
		case "SUM", "AVG":
			// AVG decomposes into SUM + COUNT; the SUM partial already
			// carries its non-null count.
			fn = fsdp.AggSum
		case "MIN":
			fn = fsdp.AggMin
		case "MAX":
			fn = fsdp.AggMax
		default:
			return nil, false
		}
		col := fsdp.AggCol{Fn: fn}
		if a.star {
			col.Star = true
		} else {
			fr, ok := a.arg.(expr.FieldRef)
			if !ok {
				return nil, false // expression arguments stay requester-side
			}
			col.Col = fr.Index
		}
		p.colOf[i] = len(p.spec.Cols)
		p.spec.Cols = append(p.spec.Cols, col)
	}
	return p, true
}

// runAggPushdown evaluates a compiled pushdown aggregation via
// AGG^FIRST/NEXT. pred and having are the concrete (parameter-
// substituted) expressions for this execution.
func (s *Session) runAggPushdown(tx *tmf.Tx, sel Select, def *fs.FileDef, pred expr.Expr, p *aggPushPlan, having expr.Expr, az *analyzeState) (*Result, error) {
	rng, residual := expr.ExtractKeyRange(pred, def.Schema)
	groups, st, err := s.fs.Agg(tx, def, rng, residual, p.spec)
	if err != nil {
		return nil, err
	}
	az.scanNode(fmt.Sprintf("partial aggregation %s (AGG^FIRST/NEXT)", def.Name), st)

	// Aggregates over the empty set with no GROUP BY still emit one row.
	if len(groups) == 0 && len(p.spec.GroupBy) == 0 {
		groups[""] = &fs.AggGroup{Partials: make([]fsdp.AggPartial, len(p.spec.Cols))}
	}
	keysOrdered := make([]string, 0, len(groups))
	for k := range groups {
		keysOrdered = append(keysOrdered, k)
	}
	sort.Strings(keysOrdered)

	outRows := make([]record.Row, 0, len(groups))
	for _, k := range keysOrdered {
		g := groups[k]
		out := make(record.Row, len(p.plans))
		for i, pl := range p.plans {
			if pl.agg != nil {
				out[i] = finalizeAgg(pl.agg.fn, g.Partials[p.colOf[i]])
			} else {
				out[i] = g.KeyVals[pl.groupBy]
			}
		}
		outRows = append(outRows, out)
	}
	return emitAggResult(sel, p.plans, having, outRows)
}

// finalizeAgg converts one merged partial state into the aggregate's SQL
// value, matching aggState.value exactly (the differential tests hold
// the two paths byte-identical).
func finalizeAgg(fn string, p fsdp.AggPartial) record.Value {
	switch fn {
	case "COUNT":
		return record.Int(p.Count)
	case "SUM":
		if p.Count == 0 {
			return record.Null
		}
		if p.Float {
			return record.Float(p.SumF)
		}
		return record.Int(p.SumI)
	case "AVG":
		if p.Count == 0 {
			return record.Null
		}
		return record.Float(p.SumF / float64(p.Count))
	case "MIN", "MAX":
		if p.Count == 0 {
			return record.Null
		}
		return p.Val
	}
	return record.Null
}

// orderByIsKeyPrefix reports whether the ORDER BY list is an ascending
// prefix of the table's primary key — the shape whose scan already
// delivers rows in output order, making LIMIT a Top-N row budget.
func orderByIsKeyPrefix(items []OrderItem, schema *record.Schema, sc *scope) bool {
	if len(items) == 0 || len(items) > len(schema.KeyFields) {
		return false
	}
	for i, item := range items {
		if item.Desc {
			return false
		}
		bound, err := bind(item.Expr, sc)
		if err != nil {
			return false
		}
		fr, ok := bound.(expr.FieldRef)
		if !ok || fr.Index != schema.KeyFields[i] {
			return false
		}
	}
	return true
}

// scanDeliversKeyOrder reports whether tableAccess will serve pred via
// the key-ordered scan path (primary-key range or full scan) rather
// than a secondary-index probe, whose rows arrive in index order.
func scanDeliversKeyOrder(def *fs.FileDef, pred expr.Expr) bool {
	rng, residual := expr.ExtractKeyRange(pred, def.Schema)
	if rng.Low != nil || rng.High != nil {
		return true
	}
	_, _, probe := indexProbe(def, residual)
	return !probe
}
