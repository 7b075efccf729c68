package sql

import (
	"fmt"
	"strings"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// joinPlan is a compiled two-table SELECT. A general SQL predicate is
// multi-variable, but — exactly as the paper describes — the executor's
// File System invocations stay single-table: the WHERE clause splits
// into outer-only, inner-only, and join conjuncts; outer-only conjuncts
// push to the outer table's Disk Processes; a join conjunct comparing an
// outer-side operand with an inner-side one becomes part of the inner
// predicate with a value slot where the outer side stood, so each outer
// row turns the inner access into another single-variable query (often a
// primary-key range or an index probe) by supplying values, the way
// EXECUTE does for markers. All of that is decided here, once.
type joinPlan struct {
	outer, inner tableQuery
	outerVals    []expr.Expr // over the outer row: outerVals[i] fills inner slot nParams+i
	nParams      int         // statement markers; the inner slots follow them
	post         expr.Expr   // join conjuncts of any other shape, over the combined row
	conjNames    []string
	out          *output
	browse       bool

	// probe, when non-nil, batches the inner accesses: the single join
	// conjunct is an equality on the inner table's leading key column
	// (idx nil) or an indexed column, so the outer values travel as probe
	// keys in PROBE^BLOCK messages — one conversation per block per
	// partition — instead of one conversation per outer row.
	probe     *probeRoute
	innerOnly expr.Expr // probe: the inner-only conjuncts, without the slot
}

type probeRoute struct {
	col int
	idx *fs.IndexDef
}

func (s *Session) compileJoin(sel Select, nParams int) (*joinPlan, error) {
	outerRef, innerRef := sel.From[0], sel.From[1]
	outerDef, err := s.cat.Table(outerRef.Table)
	if err != nil {
		return nil, err
	}
	innerDef, err := s.cat.Table(innerRef.Table)
	if err != nil {
		return nil, err
	}
	outerAlias := outerRef.Alias
	if outerAlias == "" {
		outerAlias = outerDef.Name
	}
	innerAlias := innerRef.Alias
	if innerAlias == "" {
		innerAlias = innerDef.Name
	}
	used := func(e aExpr) (bool, bool, error) {
		return tablesUsed(e, outerAlias, outerDef.Schema, innerAlias, innerDef.Schema)
	}

	// Combined scope for the select list and post-filters; local scopes
	// for what is pushed to each table.
	combined := &scope{}
	combined.add(outerAlias, outerDef.Schema, 0)
	combined.add(innerAlias, innerDef.Schema, len(outerDef.Schema.Fields))
	outerScope := &scope{}
	outerScope.add(outerAlias, outerDef.Schema, 0)
	innerScope := &scope{}
	innerScope.add(innerAlias, innerDef.Schema, 0)

	p := &joinPlan{nParams: nParams, browse: sel.Browse}
	var outerOnly, innerOnly, joinConjs []aExpr
	for _, conj := range astConjuncts(sel.Where) {
		usesOuter, usesInner, err := used(conj)
		if err != nil {
			return nil, err
		}
		switch {
		case usesOuter && usesInner:
			joinConjs = append(joinConjs, conj)
			p.conjNames = append(p.conjNames, displayName(conj))
		case usesInner:
			innerOnly = append(innerOnly, conj)
		default:
			outerOnly = append(outerOnly, conj)
		}
	}
	outerPred, err := bindConjuncts(outerOnly, outerScope)
	if err != nil {
		return nil, err
	}
	if p.innerOnly, err = bindConjuncts(innerOnly, innerScope); err != nil {
		return nil, err
	}
	innerPred := p.innerOnly
	for _, jc := range joinConjs {
		// A comparison with one operand per table splits; anything else
		// post-filters the combined row.
		var outerSide, innerSide aExpr
		innerOnLeft := false
		b, ok := jc.(aBin)
		if ok && isComparison(b.Op) && b.Op != expr.OpLike {
			lo, li, _ := used(b.L)
			ro, ri, _ := used(b.R)
			switch {
			case !li && ri && !ro:
				outerSide, innerSide = b.L, b.R
			case li && !lo && !ri:
				outerSide, innerSide, innerOnLeft = b.R, b.L, true
			}
		}
		if outerSide == nil {
			bound, err := bind(jc, combined)
			if err != nil {
				return nil, err
			}
			p.post = expr.And(p.post, bound)
			continue
		}
		ov, err := bind(outerSide, outerScope)
		if err != nil {
			return nil, err
		}
		iv, err := bind(innerSide, innerScope)
		if err != nil {
			return nil, err
		}
		var slot expr.Expr = expr.Param{Index: nParams + len(p.outerVals)}
		p.outerVals = append(p.outerVals, ov)
		inst := expr.Binary{Op: b.Op, L: slot, R: iv}
		if innerOnLeft {
			inst = expr.Binary{Op: b.Op, L: iv, R: slot}
		}
		innerPred = expr.And(innerPred, inst)
		if f, bare := iv.(expr.FieldRef); bare && b.Op == expr.OpEQ && s.pushdown && len(joinConjs) == 1 {
			if len(innerDef.Schema.KeyFields) > 0 && f.Index == innerDef.Schema.KeyFields[0] {
				p.probe = &probeRoute{col: f.Index}
			} else {
				for _, ix := range innerDef.Indexes {
					if ix.Column == f.Index {
						p.probe = &probeRoute{col: f.Index, idx: ix}
						break
					}
				}
			}
		}
	}
	p.outer = s.tableQuery(outerDef, opRows, outerPred)
	p.inner = s.tableQuery(innerDef, opRows, innerPred)
	p.out, err = compileOutput(sel, combined)
	return p, err
}

func (p *joinPlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	tx := s.tx
	if p.browse {
		tx = nil
	}
	out, err := p.out.bound(params)
	if err != nil {
		return nil, err
	}
	oa, err := p.outer.access(&s.arena, params)
	if err != nil {
		return nil, err
	}
	outerRows, err := oa.fetchRows(s, tx, az)
	if err != nil {
		return nil, err
	}
	outerVals := make([]expr.Expr, len(p.outerVals))
	for i, e := range p.outerVals {
		if outerVals[i], err = expr.Substitute(e, params); err != nil {
			return nil, err
		}
	}
	var rows []record.Row
	if p.probe != nil {
		rows, err = p.probeBatched(s, tx, outerRows, outerVals[0], params, az)
	} else {
		rows, err = p.probePerRow(s, tx, outerRows, outerVals, params, az)
	}
	if err != nil {
		return nil, err
	}
	return out.emitRows(rows, az)
}

// probePerRow is the row path: one inner access, chosen and fetched, per
// outer row. Under EXPLAIN ANALYZE the whole loop accounts as one delta
// node.
func (p *joinPlan) probePerRow(s *Session, tx *tmf.Tx, outerRows []record.Row, outerVals []expr.Expr, params []record.Value, az *analyzeState) ([]record.Row, error) {
	post, err := expr.Substitute(p.post, params)
	if err != nil {
		return nil, err
	}
	from := az.mark(s)
	vals := make([]record.Value, p.nParams+len(outerVals))
	copy(vals, params)
	var combined []record.Row
	for _, orow := range outerRows {
		for i, e := range outerVals {
			if vals[p.nParams+i], err = expr.Eval(e, orow); err != nil {
				return nil, err
			}
		}
		ia, err := p.inner.access(&s.arena, vals)
		if err != nil {
			return nil, err
		}
		innerRows, err := ia.fetchRows(s, tx, nil)
		if err != nil {
			return nil, err
		}
		for _, irow := range innerRows {
			crow := make(record.Row, 0, len(orow)+len(irow))
			crow = append(append(crow, orow...), irow...)
			keep, err := expr.Satisfied(post, crow)
			if err != nil {
				return nil, err
			}
			if keep {
				combined = append(combined, crow)
			}
		}
	}
	az.deltaNode(fmt.Sprintf("inner probes %s (one conversation per outer row)", p.inner.def.Name), from, len(combined))
	return combined, nil
}

// probeBatched runs the join's inner accesses as blocked probe
// conversations (PROBE^BLOCK). Probe values are deduplicated, so repeated
// outer values cost one probe, and the combined rows come out in
// outer-row order exactly as the row path produces them.
func (p *joinPlan) probeBatched(s *Session, tx *tmf.Tx, outerRows []record.Row, outerVal expr.Expr, params []record.Value, az *analyzeState) ([]record.Row, error) {
	innerDef, idx, col := p.inner.def, p.probe.idx, p.probe.col
	innerOnly, err := expr.Substitute(p.innerOnly, params)
	if err != nil {
		return nil, err
	}
	var order []string // probe keys, first-appearance order
	probes := make(map[string]record.Value)
	rowKey := make([]string, len(outerRows)) // "" = NULL probe, never joins
	for oi, orow := range outerRows {
		v, err := expr.Eval(outerVal, orow)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue // NULL = NULL is never true
		}
		k := string(v.AppendKey(nil))
		if _, ok := probes[k]; !ok {
			probes[k] = v
			order = append(order, k)
		}
		rowKey[oi] = k
	}
	if len(order) == 0 {
		// No outer row, or every probe value NULL: empty join, no messages.
		return nil, nil
	}

	var recs [][]byte
	var st fs.ScanStats
	label := "batched join probes " + innerDef.Name
	if idx == nil {
		prefixes := make([][]byte, len(order))
		for i, k := range order {
			prefixes[i] = []byte(k)
		}
		// The inner-only predicate rides along and evaluates at the
		// Disk Process.
		recs, st, err = s.fs.ProbePrefixes(tx, innerDef, prefixes, innerOnly)
	} else {
		vals := make([]record.Value, len(order))
		for i, k := range order {
			vals[i] = probes[k]
		}
		recs, st, err = s.fs.ReadByIndexBatch(tx, innerDef, idx, vals)
		label += " via " + idx.Name
	}
	if err != nil {
		return nil, err
	}
	az.scanNode(label+" (PROBE^BLOCK)", st)
	inner := access{def: innerDef} // whole records
	innerRows, err := inner.decode(recs)
	if err != nil {
		return nil, err
	}

	byKey := make(map[string][]record.Row)
	for _, irow := range innerRows {
		if idx != nil {
			// Index-probe rows come back unfiltered; apply the inner-only
			// conjuncts requester-side, as a single index probe does.
			ok, err := expr.Satisfied(innerOnly, irow)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		k := string(irow[col].AppendKey(nil))
		byKey[k] = append(byKey[k], irow)
	}
	var combined []record.Row
	for oi, orow := range outerRows {
		for _, irow := range byKey[rowKey[oi]] {
			crow := make(record.Row, 0, len(orow)+len(irow))
			combined = append(combined, append(append(crow, orow...), irow...))
		}
	}
	return combined, nil
}

func (p *joinPlan) describe(sb *strings.Builder, params []record.Value) error {
	oa, err := p.outer.access(nil, params)
	if err != nil {
		return err
	}
	ia, err := p.inner.access(nil, params)
	if err != nil {
		return err
	}
	sb.WriteString("SELECT (two-variable query, decomposed into single-variable queries)\n")
	sb.WriteString("  outer:\n")
	oa.describe(sb, "    ")
	sb.WriteString("  inner (once per outer row, join conjuncts instantiated as constants):\n")
	ia.describe(sb, "    ")
	if p.probe != nil {
		path := "leading primary-key column"
		if p.probe.idx != nil {
			path = "index " + p.probe.idx.Name
		}
		fmt.Fprintf(sb, "  inner probes batched: PROBE^BLOCK via %s, up to %d probe keys per message, deduplicated per outer value\n",
			path, fs.ProbeBatchSize)
	}
	if len(p.conjNames) > 0 {
		fmt.Fprintf(sb, "  join conjuncts: %s\n", strings.Join(p.conjNames, " AND "))
	}
	return nil
}

// astConjuncts splits an unresolved predicate into top-level AND factors.
func astConjuncts(e aExpr) []aExpr {
	if e == nil {
		return nil
	}
	if b, ok := e.(aBin); ok && b.Op == expr.OpAnd {
		return append(astConjuncts(b.L), astConjuncts(b.R)...)
	}
	return []aExpr{e}
}

// bindConjuncts binds and conjoins a conjunct list.
func bindConjuncts(conjs []aExpr, sc *scope) (expr.Expr, error) {
	var out expr.Expr
	for _, c := range conjs {
		bound, err := bind(c, sc)
		if err != nil {
			return nil, err
		}
		out = expr.And(out, bound)
	}
	return out, nil
}

// tablesUsed reports which of the two tables a conjunct references.
func tablesUsed(e aExpr, outerAlias string, outer *record.Schema, innerAlias string, inner *record.Schema) (usesOuter, usesInner bool, err error) {
	ou, iu := strings.ToUpper(outerAlias), strings.ToUpper(innerAlias)
	for _, c := range columnsOf(e) {
		inOuter := (c.Table == "" || c.Table == ou || c.Table == outer.Name) && outer.FieldIndex(c.Name) >= 0
		inInner := (c.Table == "" || c.Table == iu || c.Table == inner.Name) && inner.FieldIndex(c.Name) >= 0
		switch {
		case inOuter && inInner:
			return false, false, fmt.Errorf("sql: ambiguous column %q", c.Name)
		case inOuter:
			usesOuter = true
		case inInner:
			usesInner = true
		default:
			return false, false, fmt.Errorf("sql: no column %q", c.Name)
		}
	}
	return usesOuter, usesInner, nil
}
