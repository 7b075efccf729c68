package sql

import (
	"sort"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
)

// This file routes decomposable aggregate queries through the
// AGG^FIRST/NEXT conversation: the Disk Processes evaluate partial
// aggregates against each partition's subset and the File System merges
// the per-group partial states — the generalization of the COUNT(*)
// pushdown to COUNT/SUM/MIN/MAX/AVG with GROUP BY. Non-decomposable
// shapes (DISTINCT, expression arguments, star items) fall back to the
// row path, which remains the semantic ground truth.

// planAggPushdown derives the wire specification for DP-side partial
// aggregation from the bound aggregate plans, and the mapping from
// output item to partial-state column (-1 for group-by items). spec is
// nil when any part of the query is not decomposable.
func planAggPushdown(gbs []expr.Expr, plans []itemPlan) (spec *fsdp.AggSpec, colOf []int) {
	spec = &fsdp.AggSpec{}
	for _, g := range gbs {
		// Only bare column references extract at the Disk Process.
		fr, ok := g.(expr.FieldRef)
		if !ok {
			return nil, nil
		}
		spec.GroupBy = append(spec.GroupBy, fr.Index)
	}
	colOf = make([]int, len(plans))
	for i, pl := range plans {
		colOf[i] = -1
		if pl.agg == nil {
			continue
		}
		a := pl.agg
		if a.distinct {
			return nil, nil // DISTINCT partials do not merge
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
			return nil, nil
		}
		col := fsdp.AggCol{Fn: fn}
		if a.star {
			col.Star = true
		} else {
			fr, ok := a.arg.(expr.FieldRef)
			if !ok {
				return nil, nil // expression arguments stay requester-side
			}
			col.Col = fr.Index
		}
		colOf[i] = len(spec.Cols)
		spec.Cols = append(spec.Cols, col)
	}
	return spec, colOf
}

// emitGroups finalizes the merged per-group partial states AGG^FIRST/NEXT
// brought back into aggregate output rows.
func (o *output) emitGroups(groups map[string]*fs.AggGroup, spec *fsdp.AggSpec, colOf []int) (*Result, error) {
	// Aggregates over the empty set with no GROUP BY still emit one row.
	if len(groups) == 0 && len(spec.GroupBy) == 0 {
		groups[""] = &fs.AggGroup{Partials: make([]fsdp.AggPartial, len(spec.Cols))}
	}
	keysOrdered := make([]string, 0, len(groups))
	for k := range groups {
		keysOrdered = append(keysOrdered, k)
	}
	sort.Strings(keysOrdered)

	outRows := make([]record.Row, 0, len(groups))
	for _, k := range keysOrdered {
		g := groups[k]
		out := make(record.Row, len(o.plans))
		for i, pl := range o.plans {
			if pl.agg != nil {
				out[i] = finalizeAgg(pl.agg.fn, g.Partials[colOf[i]])
			} else {
				out[i] = g.KeyVals[pl.groupBy]
			}
		}
		outRows = append(outRows, out)
	}
	return o.emitAgg(outRows)
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
