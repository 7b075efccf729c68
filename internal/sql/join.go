package sql

import (
	"fmt"
	"strings"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// joinSelect runs a two-table SELECT. A general SQL predicate is
// multi-variable, but — exactly as the paper describes — the executor's
// File System invocations stay single-table: the WHERE clause splits
// into outer-only, inner-only, and join conjuncts; outer-only conjuncts
// push to the outer table's Disk Processes; for each outer row the join
// conjuncts are instantiated into constants, turning the inner access
// into another single-variable query (often a primary-key range or an
// index probe).
func (s *Session) joinSelect(tx *tmf.Tx, sel Select, az *analyzeState) (*Result, error) {
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

	// Combined scope for the select list and post-filters.
	combined := &scope{}
	combined.add(outerAlias, outerDef.Schema, 0)
	combined.add(innerAlias, innerDef.Schema, len(outerDef.Schema.Fields))

	// Local scopes for pushdown binding.
	outerScope := &scope{}
	outerScope.add(outerAlias, outerDef.Schema, 0)
	innerScope := &scope{}
	innerScope.add(innerAlias, innerDef.Schema, 0)

	// Classify WHERE conjuncts at the AST level.
	var outerOnly, innerOnly, joinConjs []aExpr
	for _, conj := range astConjuncts(sel.Where) {
		usesOuter, usesInner, err := tablesUsed(conj, outerAlias, outerDef.Schema, innerAlias, innerDef.Schema)
		if err != nil {
			return nil, err
		}
		switch {
		case usesOuter && usesInner:
			joinConjs = append(joinConjs, conj)
		case usesInner:
			innerOnly = append(innerOnly, conj)
		default:
			outerOnly = append(outerOnly, conj)
		}
	}

	// Outer access: single-variable query.
	outerPred, err := bindConjuncts(outerOnly, outerScope)
	if err != nil {
		return nil, err
	}
	outerRows, err := s.tableAccess(tx, outerDef, outerPred, nil, -1, false, az)
	if err != nil {
		return nil, err
	}

	// Pre-bind inner-only conjuncts.
	innerPredBase, err := bindConjuncts(innerOnly, innerScope)
	if err != nil {
		return nil, err
	}

	aggregate := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && hasAggregate(item.Expr) {
			aggregate = true
		}
	}

	outerWidth := len(outerDef.Schema.Fields)

	// Batched probe path: an equality join conjunct on the inner table's
	// leading key column or an indexed column ships the probe keys in
	// PROBE^BLOCK messages — one conversation per block per partition —
	// instead of one conversation per outer row.
	combinedRows, handled, err := s.batchedJoinProbes(tx, outerRows, outerDef, innerDef,
		outerAlias, innerScope, joinConjs, innerPredBase, outerWidth, az)
	if err != nil {
		return nil, err
	}
	if handled {
		if aggregate {
			return s.aggregateResult(sel, combined, combinedRows)
		}
		return s.projectJoinResult(sel, combined, outerDef.Schema, innerDef.Schema, combinedRows)
	}

	// Row path: one inner conversation per outer row. Under EXPLAIN
	// ANALYZE the whole loop accounts as one delta node.
	var d0 msg.Stats
	var l0 obs.Snapshot
	var t0 time.Time
	if az != nil {
		d0, l0 = s.fs.Network().Stats(), s.fs.Network().LatencyAll()
		t0 = time.Now()
	}
	for _, orow := range outerRows {
		// Instantiate join conjuncts against this outer row.
		innerPred := innerPredBase
		var post []expr.Expr
		for _, jc := range joinConjs {
			inst, ok, err := instantiateJoinConj(jc, orow, outerAlias, outerDef.Schema, innerScope)
			if err != nil {
				return nil, err
			}
			if ok {
				innerPred = expr.And(innerPred, inst)
			} else {
				// General shape: post-filter on the combined row.
				bound, err := bind(jc, combined)
				if err != nil {
					return nil, err
				}
				post = append(post, bound)
			}
		}
		innerRows, err := s.tableAccess(tx, innerDef, innerPred, nil, -1, false, nil)
		if err != nil {
			return nil, err
		}
		for _, irow := range innerRows {
			crow := make(record.Row, 0, outerWidth+len(irow))
			crow = append(crow, orow...)
			crow = append(crow, irow...)
			keep := true
			for _, p := range post {
				ok, err := expr.Satisfied(p, crow)
				if err != nil {
					return nil, err
				}
				if !ok {
					keep = false
					break
				}
			}
			if keep {
				combinedRows = append(combinedRows, crow)
			}
		}
	}
	if az != nil {
		az.deltaNode(fmt.Sprintf("inner probes %s (one conversation per outer row)", innerDef.Name),
			d0, s.fs.Network().Stats(), l0, s.fs.Network().LatencyAll(),
			len(combinedRows), time.Since(t0))
	}

	if aggregate {
		return s.aggregateResult(sel, combined, combinedRows)
	}
	// SELECT * over a join expands both tables' columns.
	return s.projectJoinResult(sel, combined, outerDef.Schema, innerDef.Schema, combinedRows)
}

// batchedJoinProbes runs the join's inner accesses as blocked probe
// conversations (PROBE^BLOCK) when the single join conjunct is an
// equality whose inner side is the inner table's leading primary-key
// column or an indexed column. handled=false falls back to the
// one-conversation-per-outer-row path. Probe values are deduplicated,
// so repeated outer values cost one probe, and the combined rows come
// out in outer-row order exactly as the row path produces them.
func (s *Session) batchedJoinProbes(tx *tmf.Tx, outerRows []record.Row, outerDef, innerDef *fs.FileDef,
	outerAlias string, innerScope *scope, joinConjs []aExpr, innerPredBase expr.Expr,
	outerWidth int, az *analyzeState) ([]record.Row, bool, error) {
	if !s.pushdown || len(joinConjs) != 1 || len(outerRows) == 0 {
		return nil, false, nil
	}
	type probe struct {
		val record.Value
	}
	probeCol := -1
	var order []string // probe keys, first-appearance order
	probes := make(map[string]*probe)
	rowKey := make([]string, len(outerRows)) // "" = NULL probe, never joins
	for oi, orow := range outerRows {
		inst, ok, err := instantiateJoinConj(joinConjs[0], orow, outerAlias, outerDef.Schema, innerScope)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		col, v, isEq := eqProbe(inst)
		if !isEq {
			return nil, false, nil
		}
		if probeCol < 0 {
			probeCol = col
		} else if col != probeCol {
			return nil, false, nil
		}
		if v.IsNull() {
			continue // NULL = NULL is never true
		}
		k := string(v.AppendKey(nil))
		if _, ok := probes[k]; !ok {
			probes[k] = &probe{val: v}
			order = append(order, k)
		}
		rowKey[oi] = k
	}
	if probeCol < 0 {
		// Every probe value was NULL: empty join, no messages needed.
		return nil, true, nil
	}
	keyed := len(innerDef.Schema.KeyFields) > 0 && probeCol == innerDef.Schema.KeyFields[0]
	var idx *fs.IndexDef
	if !keyed {
		for _, ix := range innerDef.Indexes {
			if ix.Column == probeCol {
				idx = ix
				break
			}
		}
		if idx == nil {
			return nil, false, nil
		}
	}

	var (
		innerRows []record.Row
		st        fs.ScanStats
		err       error
		label     string
	)
	if keyed {
		prefixes := make([][]byte, len(order))
		for i, k := range order {
			prefixes[i] = []byte(k)
		}
		// The inner-only predicate rides along and evaluates at the
		// Disk Process.
		innerRows, st, err = s.fs.ProbePrefixes(tx, innerDef, prefixes, innerPredBase)
		label = fmt.Sprintf("batched join probes %s (PROBE^BLOCK)", innerDef.Name)
	} else {
		vals := make([]record.Value, len(order))
		for i, k := range order {
			vals[i] = probes[k].val
		}
		innerRows, st, err = s.fs.ReadByIndexBatch(tx, innerDef, idx, vals)
		label = fmt.Sprintf("batched join probes %s via %s (PROBE^BLOCK)", innerDef.Name, idx.Name)
	}
	if err != nil {
		return nil, true, err
	}
	if !keyed && innerPredBase != nil {
		// Index-probe rows come back unfiltered; apply the inner-only
		// conjuncts requester-side, as ReadByIndex plans do.
		kept := innerRows[:0]
		for _, irow := range innerRows {
			ok, err := expr.Satisfied(innerPredBase, irow)
			if err != nil {
				return nil, true, err
			}
			if ok {
				kept = append(kept, irow)
			}
		}
		innerRows = kept
	}
	az.scanNode(label, st)

	byKey := make(map[string][]record.Row)
	for _, irow := range innerRows {
		k := string(irow[probeCol].AppendKey(nil))
		byKey[k] = append(byKey[k], irow)
	}
	var combined []record.Row
	for oi, orow := range outerRows {
		k := rowKey[oi]
		if k == "" {
			continue
		}
		for _, irow := range byKey[k] {
			crow := make(record.Row, 0, outerWidth+len(irow))
			crow = append(crow, orow...)
			crow = append(crow, irow...)
			combined = append(combined, crow)
		}
	}
	return combined, true, nil
}

// eqProbe splits an instantiated equality conjunct into its inner
// column ordinal and constant probe value. ok=false for any other
// shape (non-equality, computed inner side).
func eqProbe(e expr.Expr) (col int, v record.Value, ok bool) {
	b, isBin := e.(expr.Binary)
	if !isBin || b.Op != expr.OpEQ {
		return 0, record.Null, false
	}
	if f, isF := b.L.(expr.FieldRef); isF {
		if c, isC := b.R.(expr.Const); isC {
			return f.Index, c.V, true
		}
		return 0, record.Null, false
	}
	if f, isF := b.R.(expr.FieldRef); isF {
		if c, isC := b.L.(expr.Const); isC {
			return f.Index, c.V, true
		}
	}
	return 0, record.Null, false
}

// probeBatchEligible reports whether a single equality join conjunct of
// this instantiated shape routes through PROBE^BLOCK against innerDef,
// and on what access path (the inner table's leading key column, or a
// secondary index).
func probeBatchEligible(inst expr.Expr, innerDef *fs.FileDef) (viaIndex *fs.IndexDef, ok bool) {
	col, _, isEq := eqProbe(inst)
	if !isEq {
		return nil, false
	}
	if len(innerDef.Schema.KeyFields) > 0 && col == innerDef.Schema.KeyFields[0] {
		return nil, true
	}
	for _, ix := range innerDef.Indexes {
		if ix.Column == col {
			return ix, true
		}
	}
	return nil, false
}

// projectJoinResult is projectResult with * expansion over two schemas.
func (s *Session) projectJoinResult(sel Select, sc *scope, outer, inner *record.Schema, rows []record.Row) (*Result, error) {
	expanded := Select{
		From: sel.From, Where: sel.Where,
		OrderBy: sel.OrderBy, Limit: sel.Limit, Browse: sel.Browse,
	}
	for _, item := range sel.Items {
		if !item.Star {
			expanded.Items = append(expanded.Items, item)
			continue
		}
		for _, f := range outer.Fields {
			expanded.Items = append(expanded.Items, SelectItem{Expr: aCol{Table: outer.Name, Name: f.Name}, Alias: f.Name})
		}
		for _, f := range inner.Fields {
			expanded.Items = append(expanded.Items, SelectItem{Expr: aCol{Table: inner.Name, Name: f.Name}, Alias: f.Name})
		}
	}
	return s.projectResult(expanded, sc, nil, rows)
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

// instantiateJoinConj converts a comparison between one outer-side and
// one inner-side operand into an inner-local predicate by evaluating the
// outer side against the current outer row. Returns ok=false for shapes
// it cannot split (the caller post-filters those).
func instantiateJoinConj(e aExpr, outerRow record.Row, outerAlias string, outer *record.Schema, innerScope *scope) (expr.Expr, bool, error) {
	b, ok := e.(aBin)
	if !ok {
		return nil, false, nil
	}
	switch b.Op {
	case expr.OpEQ, expr.OpNE, expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE:
	default:
		return nil, false, nil
	}
	sideOf := func(sub aExpr) (string, error) {
		uo, ui := false, false
		ou := strings.ToUpper(outerAlias)
		for _, c := range columnsOf(sub) {
			inO := (c.Table == "" || c.Table == ou || c.Table == outer.Name) && outer.FieldIndex(c.Name) >= 0
			if inO {
				uo = true
			} else {
				ui = true
			}
		}
		switch {
		case uo && ui:
			return "both", nil
		case uo:
			return "outer", nil
		case ui:
			return "inner", nil
		}
		return "const", nil
	}
	ls, err := sideOf(b.L)
	if err != nil {
		return nil, false, err
	}
	rs, err := sideOf(b.R)
	if err != nil {
		return nil, false, err
	}
	outerScope := &scope{}
	outerScope.add(outerAlias, outer, 0)

	evalOuter := func(sub aExpr) (record.Value, error) {
		bound, err := bind(sub, outerScope)
		if err != nil {
			return record.Null, err
		}
		return expr.Eval(bound, outerRow)
	}
	switch {
	case (ls == "outer" || ls == "const") && rs == "inner":
		v, err := evalOuter(b.L)
		if err != nil {
			return nil, false, err
		}
		inner, err := bind(b.R, innerScope)
		if err != nil {
			return nil, false, err
		}
		return expr.Binary{Op: b.Op, L: expr.C(v), R: inner}, true, nil
	case ls == "inner" && (rs == "outer" || rs == "const"):
		v, err := evalOuter(b.R)
		if err != nil {
			return nil, false, err
		}
		inner, err := bind(b.L, innerScope)
		if err != nil {
			return nil, false, err
		}
		return expr.Binary{Op: b.Op, L: inner, R: expr.C(v)}, true, nil
	}
	return nil, false, nil
}
