package sql

import (
	"strings"

	"nonstopsql/internal/expr"
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
// order, so the two paths are byte-identical on any input. The table is
// the statement's and the result the caller's, so the rows are cut from
// one value slab of the result's, and a VARCHAR key value is copied out of
// the table.
func (o *output) emitGroups(t *fsdp.GroupTable) (*Result, error) {
	t.Sort()
	n, width := t.Len(), len(o.plans)
	empty := n == 0 && len(o.gbs) == 0
	if empty {
		n = 1 // aggregates over the empty set with no GROUP BY still emit one row
	}
	slab := make(record.Row, n*width)
	rows := make([]record.Row, n)
	var keyBuf [4]record.Value
	for g := range rows {
		out := slab[g*width : (g+1)*width : (g+1)*width]
		keyVals := keyBuf[:0]
		var partials []fsdp.AggPartial
		if empty {
			partials = make([]fsdp.AggPartial, o.aggCount())
		} else {
			partials = t.Partials(g)
			for b := t.Fields(g); len(b) > 0; {
				v, m, err := record.BorrowValue(b)
				if err != nil {
					return nil, err
				}
				v.S = strings.Clone(v.S)
				keyVals, b = append(keyVals, v), b[m:]
			}
		}
		c := 0
		for i, pl := range o.plans {
			if pl.agg == nil {
				// A group's value is what its key says: −0 and +0 are one
				// key (keys.AppendFloat64), which reads as +0 whichever
				// zero the group met first.
				v := keyVals[pl.groupBy]
				if v.Kind == record.TypeFloat && v.F == 0 {
					v.F = 0
				}
				out[i] = v
				continue
			}
			out[i] = pl.agg.finalize(partials[c])
			c++
		}
		rows[g] = out
	}
	return o.emitAgg(rows)
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
