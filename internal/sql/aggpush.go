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
// shapes (DISTINCT, expression arguments, expression GROUP BY keys) fold
// in the requester, through the same partial states.

// planAggPushdown derives the wire specification for DP-side partial
// aggregation from the bound aggregate plans: one column per aggregate
// item, in plan order (emitGroups reads the partials in that order). spec
// is nil when any part of the query is not decomposable.
func planAggPushdown(gbs []expr.Expr, plans []itemPlan) (spec *fsdp.AggSpec) {
	spec = &fsdp.AggSpec{}
	for _, g := range gbs {
		// Only bare column references extract at the Disk Process.
		fr, ok := g.(expr.FieldRef)
		if !ok {
			return nil
		}
		spec.GroupBy = append(spec.GroupBy, fr.Index)
	}
	for _, pl := range plans {
		a := pl.agg
		switch {
		case a == nil:
			continue
		case a.distinct:
			return nil // DISTINCT partials do not merge
		case a.star:
			spec.Cols = append(spec.Cols, fsdp.AggCol{Fn: a.fn, Star: true})
			continue
		}
		fr, ok := a.arg.(expr.FieldRef)
		if !ok {
			return nil // expression arguments stay requester-side
		}
		spec.Cols = append(spec.Cols, fsdp.AggCol{Fn: a.fn, Col: fr.Index})
	}
	return spec
}

// emitGroups finalizes per-group partial states — merged from the Disk
// Processes' (AGG^FIRST/NEXT) or folded by the requester (aggregateRows) —
// into aggregate output rows, in group-key byte order: the one canonical
// order, so the two paths are byte-identical on any input.
func (o *output) emitGroups(groups map[string]*fs.AggGroup) (*Result, error) {
	// Aggregates over the empty set with no GROUP BY still emit one row.
	if len(groups) == 0 && len(o.gbs) == 0 {
		groups[""] = &fs.AggGroup{Partials: make([]fsdp.AggPartial, o.aggCount())}
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
		c := 0
		for i, pl := range o.plans {
			if pl.agg == nil {
				// A group's value is what its key says: −0 and +0 are one
				// key (keys.AppendFloat64), which reads as +0 whichever
				// zero the group met first.
				v := g.KeyVals[pl.groupBy]
				if v.Kind == record.TypeFloat && v.F == 0 {
					v.F = 0
				}
				out[i] = v
				continue
			}
			out[i] = pl.agg.finalize(g.Partials[c])
			c++
		}
		outRows = append(outRows, out)
	}
	return o.emitAgg(outRows)
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
