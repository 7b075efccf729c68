package sql

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fastsort"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// execSelect plans and runs a SELECT. The plan produced here drives the
// executor's File System invocations — always in terms of a single
// table per request, with optional access via a secondary index; a join
// decomposes into single-variable queries against each table.
func (s *Session) execSelect(sel Select) (*Result, error) {
	tx := s.tx
	if sel.Browse {
		tx = nil // browse access: no locks, read through
	}
	if len(sel.From) == 1 {
		return s.singleTableSelect(tx, sel, nil)
	}
	return s.joinSelect(tx, sel, nil)
}

// neededColumns accumulates the field ordinals (within schema) that the
// client side must see for the given unresolved expressions.
func neededColumns(schema *record.Schema, alias string, exprs []aExpr) map[int]bool {
	out := make(map[int]bool)
	up := strings.ToUpper(alias)
	for _, e := range exprs {
		for _, c := range columnsOf(e) {
			if c.Table != "" && c.Table != up && c.Table != schema.Name {
				continue
			}
			if i := schema.FieldIndex(c.Name); i >= 0 {
				out[i] = true
			}
		}
	}
	return out
}

// tableAccess returns full-width rows of def satisfying pred (already
// bound against the table's local scope). It performs the planner's
// access-path selection:
//
//  1. peel the primary-key range off the predicate (bounded subset),
//  2. else probe a secondary index on an equality conjunct,
//  3. scan — VSBB with DP-side selection/projection when there is a
//     residual predicate or a narrowing projection, RSBB otherwise.
//
// needed lists the client-required columns (nil = all). stopAfter > 0
// ends the scan early once that many rows are in hand (LIMIT without
// ORDER BY). unordered lets a parallel scan (an FS configured with
// SetScanParallel) deliver partitions' batches as they arrive instead
// of merging back into key order — set only when the consumer is
// order-insensitive (e.g. feeds a single-group aggregate).
func (s *Session) tableAccess(tx *tmf.Tx, def *fs.FileDef, pred expr.Expr, needed map[int]bool, stopAfter int, unordered bool, az *analyzeState) ([]record.Row, error) {
	if stopAfter == 0 {
		// LIMIT 0: the empty result is known before any conversation
		// opens — exchanging even one message would be waste.
		return nil, nil
	}
	schema := def.Schema
	rng, residual := expr.ExtractKeyRange(pred, schema)

	// Index probe: equality conjunct on an indexed column, when the key
	// range does not already bound the scan.
	if rng.Low == nil && rng.High == nil {
		if idx, val, ok := indexProbe(def, residual); ok {
			var d0 msg.Stats
			var l0 obs.Snapshot
			var t0 time.Time
			if az != nil {
				d0, l0 = s.fs.Network().Stats(), s.fs.Network().LatencyAll()
				t0 = time.Now()
			}
			rows, err := s.fs.ReadByIndex(tx, def, idx, val)
			if err != nil {
				return nil, err
			}
			var out []record.Row
			for _, row := range rows {
				keep, err := expr.Satisfied(residual, row)
				if err != nil {
					return nil, err
				}
				if keep {
					out = append(out, row)
					if stopAfter > 0 && len(out) >= stopAfter {
						break
					}
				}
			}
			if az != nil {
				az.deltaNode(fmt.Sprintf("index probe %s.%s", def.Name, idx.Name),
					d0, s.fs.Network().Stats(), l0, s.fs.Network().LatencyAll(),
					len(out), time.Since(t0))
			}
			return out, nil
		}
	}

	// Scan path. Build the projection list for VSBB: the client-needed
	// columns; the DP evaluates the residual on the full record.
	var proj []int
	if needed != nil && len(needed) < len(schema.Fields) {
		for i := range schema.Fields {
			if needed[i] {
				proj = append(proj, i)
			}
		}
	}
	spec := fs.SelectSpec{Range: rng, Unordered: unordered}
	if stopAfter > 0 && s.pushdown {
		// Top-N / LIMIT pushdown: each partition's Disk Process retires
		// its subset after this many qualifying rows, instead of the
		// requester discarding a fully-driven scan's surplus.
		spec.ScanLimit = uint32(stopAfter)
	}
	if residual != nil || proj != nil {
		spec.Mode = fs.ModeVSBB
		spec.Pred = residual
		spec.Proj = proj
	} else {
		spec.Mode = fs.ModeRSBB
	}
	rows := s.fs.Select(tx, def, spec)
	// Close releases the parallel engine's scanner goroutines (and any
	// open DP-side subset control blocks) when stopAfter ends the scan
	// early; after a full drain it is a no-op.
	defer rows.Close()
	var out []record.Row
	for {
		row, _, ok := rows.Next()
		if !ok {
			break
		}
		if proj != nil {
			// Re-inflate the projected row to full width so bound
			// expressions keep their original ordinals.
			full := make(record.Row, len(schema.Fields))
			for i, f := range proj {
				full[f] = row[i]
			}
			row = full
		}
		out = append(out, row)
		if stopAfter > 0 && len(out) >= stopAfter {
			break
		}
	}
	err := rows.Err()
	if az != nil && err == nil {
		rows.Close() // settle the parallel engine before reading stats
		mode := "RSBB"
		if spec.Mode == fs.ModeVSBB {
			mode = "VSBB"
		}
		az.scanNode(fmt.Sprintf("scan %s (%s)", def.Name, mode), rows.Stats())
	}
	return out, err
}

// indexProbe finds an equality conjunct on an indexed column.
func indexProbe(def *fs.FileDef, pred expr.Expr) (*fs.IndexDef, record.Value, bool) {
	for _, conj := range expr.Conjuncts(pred) {
		b, ok := conj.(expr.Binary)
		if !ok || b.Op != expr.OpEQ {
			continue
		}
		var fr expr.FieldRef
		var cv expr.Const
		if f, ok := b.L.(expr.FieldRef); ok {
			if c, ok := b.R.(expr.Const); ok {
				fr, cv = f, c
			} else {
				continue
			}
		} else if f, ok := b.R.(expr.FieldRef); ok {
			if c, ok := b.L.(expr.Const); ok {
				fr, cv = f, c
			} else {
				continue
			}
		} else {
			continue
		}
		for _, idx := range def.Indexes {
			if idx.Column == fr.Index && !cv.V.IsNull() {
				return idx, cv.V, true
			}
		}
	}
	return nil, record.Null, false
}

// singleTableSelect runs a one-table SELECT including aggregates, GROUP
// BY, ORDER BY, and LIMIT. az, when non-nil, collects per-node actuals
// for EXPLAIN ANALYZE. The ad-hoc path and prepared execution share one
// compile + run pipeline, so the two are byte-identical by construction.
func (s *Session) singleTableSelect(tx *tmf.Tx, sel Select, az *analyzeState) (*Result, error) {
	p, err := s.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	return p.runWith(s, tx, nil, az)
}

// selectPlan is a compiled single-table SELECT. Every shape decision —
// aggregate classification, needed columns, pushdown decomposition,
// output columns, ORDER BY keys — is made once at compile time;
// value-dependent choices (key-range extraction, index-probe selection,
// Top-N eligibility of the concrete predicate) wait for the parameter
// values at run time.
type selectPlan struct {
	sel    Select
	def    *fs.FileDef
	sc     *scope
	pred   expr.Expr // bound WHERE template (may hold parameter slots)
	needed map[int]bool

	aggregate bool
	countStar bool
	countName string

	// Aggregate shapes (aggregate, not countStar).
	gbs    []expr.Expr
	plans  []itemPlan
	having expr.Expr // template (may hold parameter slots)
	push   *aggPushPlan

	// Projection shapes (non-aggregate).
	orderKs []orderKey
	cols    []outCol

	orderIsKeyPrefix bool
}

// compileSelect binds and plans a single-table SELECT.
func (s *Session) compileSelect(sel Select) (*selectPlan, error) {
	ref := sel.From[0]
	def, err := s.cat.Table(ref.Table)
	if err != nil {
		return nil, err
	}
	alias := ref.Alias
	if alias == "" {
		alias = def.Name
	}
	sc := &scope{}
	sc.add(alias, def.Schema, 0)

	pred, err := bind(sel.Where, sc)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{sel: sel, def: def, sc: sc, pred: pred}

	p.aggregate = len(sel.GroupBy) > 0 || sel.Having != nil
	for _, item := range sel.Items {
		if !item.Star && hasAggregate(item.Expr) {
			p.aggregate = true
		}
	}

	// Determine client-needed columns.
	var exprs []aExpr
	star := false
	for _, item := range sel.Items {
		if item.Star {
			star = true
		} else {
			exprs = append(exprs, item.Expr)
		}
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	exprs = append(exprs, sel.GroupBy...)
	if sel.Having != nil {
		exprs = append(exprs, sel.Having)
	}
	if !star {
		p.needed = neededColumns(def.Schema, alias, exprs)
	}

	// COUNT(*) pushdown: a bare single-table COUNT(*) needs no rows at
	// all — the Disk Processes count qualifying records and each
	// re-drive returns a constant-size reply (COUNT^FIRST/NEXT).
	if isCountStarQuery(sel) {
		p.countStar = true
		p.countName = sel.Items[0].Alias
		if p.countName == "" {
			p.countName = displayName(sel.Items[0].Expr)
		}
		return p, nil
	}

	if p.aggregate {
		// Partial-aggregate pushdown: decomposable GROUP BY / aggregate
		// queries evaluate at the Disk Processes (AGG^FIRST/NEXT) and
		// only per-group partial states cross the interface.
		if push, ok := planAggPushdown(sel, sc); ok {
			p.push = push
			p.gbs, p.plans, p.having = push.gbs, push.plans, push.having
		} else {
			p.gbs, p.plans, p.having, err = buildAggPlans(sel, sc)
			if err != nil {
				return nil, err
			}
		}
		return p, nil
	}

	p.orderKs, err = buildOrderKeys(sel.OrderBy, sc)
	if err != nil {
		return nil, err
	}
	p.cols, err = buildOutCols(sel, sc, def.Schema)
	if err != nil {
		return nil, err
	}
	p.orderIsKeyPrefix = len(sel.OrderBy) > 0 && orderByIsKeyPrefix(sel.OrderBy, def.Schema, sc)
	return p, nil
}

// paramsBeyondWhere reports whether any parameter slot sits outside the
// WHERE/HAVING templates. Those shapes (a parameter in the select list,
// GROUP BY, ORDER BY, or an aggregate argument) cannot defer to
// execution in this plan form and fall back to AST substitution.
func (p *selectPlan) paramsBeyondWhere() bool {
	for _, g := range p.gbs {
		if expr.HasParams(g) {
			return true
		}
	}
	for _, pl := range p.plans {
		if pl.agg != nil && pl.agg.arg != nil && expr.HasParams(pl.agg.arg) {
			return true
		}
	}
	for _, c := range p.cols {
		if expr.HasParams(c.e) {
			return true
		}
	}
	for _, k := range p.orderKs {
		if expr.HasParams(k.e) {
			return true
		}
	}
	return false
}

// run executes the plan for a prepared statement (stmtPlan interface).
func (p *selectPlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	tx := s.tx
	if p.sel.Browse {
		tx = nil // browse access: no locks, read through
	}
	return p.runWith(s, tx, params, az)
}

// runWith executes the compiled plan under tx with the given parameter
// vector. The predicate template is substituted first, so all
// value-dependent access-path decisions see the concrete values.
func (p *selectPlan) runWith(s *Session, tx *tmf.Tx, params []record.Value, az *analyzeState) (*Result, error) {
	pred, err := expr.Substitute(p.pred, params)
	if err != nil {
		return nil, err
	}
	if p.countStar {
		return s.runCountStar(tx, p.sel, p.def, pred, p.countName, az)
	}
	var having expr.Expr
	if p.aggregate {
		having, err = expr.Substitute(p.having, params)
		if err != nil {
			return nil, err
		}
		if p.push != nil && s.pushdown {
			return s.runAggPushdown(tx, p.sel, p.def, pred, p.push, having, az)
		}
	}

	stopAfter := -1
	if p.sel.Limit >= 0 && len(p.sel.OrderBy) == 0 && !p.aggregate {
		stopAfter = p.sel.Limit
	}
	// Top-N pushdown: ORDER BY on an ascending primary-key prefix reads
	// the scan in output order, so the first LIMIT merged rows are the
	// answer — push the row budget into each partition's subset.
	if p.sel.Limit >= 0 && !p.aggregate && len(p.sel.OrderBy) > 0 && s.pushdown &&
		p.orderIsKeyPrefix && scanDeliversKeyOrder(p.def, pred) {
		stopAfter = p.sel.Limit
	}
	// A single-group aggregate folds every row commutatively, so a
	// parallel scan may deliver partitions' batches in arrival order.
	unordered := p.aggregate && len(p.sel.GroupBy) == 0
	rows, err := s.tableAccess(tx, p.def, pred, p.needed, stopAfter, unordered, az)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	if p.aggregate {
		res, err := aggregateRows(p.sel, p.gbs, p.plans, having, rows)
		if err == nil {
			az.localNode("aggregate", len(rows), time.Since(t0))
		}
		return res, err
	}
	res, err := projectRows(p.sel, p.cols, p.orderKs, rows)
	if err == nil && az != nil && len(p.sel.OrderBy) > 0 {
		az.localNode("sort+project", len(rows), time.Since(t0))
	}
	return res, err
}

// runCountStar answers SELECT COUNT(*) FROM t [WHERE ...] — a single
// COUNT(*) item, no GROUP BY/HAVING/ORDER BY — with fs.Count so only
// counts cross the FS-DP interface.
func (s *Session) runCountStar(tx *tmf.Tx, sel Select, def *fs.FileDef, pred expr.Expr, name string, az *analyzeState) (*Result, error) {
	rng, residual := expr.ExtractKeyRange(pred, def.Schema)
	n, st, err := s.fs.Count(tx, def, rng, residual)
	if err != nil {
		return nil, err
	}
	az.scanNode(fmt.Sprintf("count %s (COUNT^FIRST/NEXT)", def.Name), st)
	res := &Result{Columns: []string{name}, Rows: []record.Row{{record.Int(int64(n))}}}
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// isCountStarQuery reports whether sel is a bare single-table COUNT(*)
// answerable by the DP-side count protocol.
func isCountStarQuery(sel Select) bool {
	if len(sel.Items) != 1 || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 {
		return false
	}
	call, isCall := sel.Items[0].Expr.(aCall)
	return isCall && call.Fn == "COUNT" && call.Star && !call.Distinct
}

// outCol is one bound output column of a projection.
type outCol struct {
	e    expr.Expr
	name string
}

// buildOutCols binds the select list into output columns, expanding *
// over schema.
func buildOutCols(sel Select, sc *scope, schema *record.Schema) ([]outCol, error) {
	var cols []outCol
	for _, item := range sel.Items {
		if item.Star {
			if schema == nil {
				return nil, fmt.Errorf("sql: SELECT * not supported here")
			}
			for i, f := range schema.Fields {
				cols = append(cols, outCol{e: expr.FieldRef{Index: i, Name: f.Name}, name: f.Name})
			}
			continue
		}
		bound, err := bind(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = displayName(item.Expr)
		}
		cols = append(cols, outCol{e: bound, name: name})
	}
	return cols, nil
}

// projectResult applies ORDER BY / LIMIT / the select list to full-width
// rows (the join path's projection; single-table plans pre-bind).
func (s *Session) projectResult(sel Select, sc *scope, schema *record.Schema, rows []record.Row) (*Result, error) {
	orderKs, err := buildOrderKeys(sel.OrderBy, sc)
	if err != nil {
		return nil, err
	}
	cols, err := buildOutCols(sel, sc, schema)
	if err != nil {
		return nil, err
	}
	return projectRows(sel, cols, orderKs, rows)
}

// projectRows applies pre-bound ORDER BY / LIMIT / output columns to
// full-width rows.
func projectRows(sel Select, cols []outCol, orderKs []orderKey, rows []record.Row) (*Result, error) {
	if len(sel.OrderBy) > 0 {
		if err := orderRowsKeyed(orderKs, rows); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(rows) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	res := &Result{}
	for _, c := range cols {
		res.Columns = append(res.Columns, c.name)
	}
	for _, row := range rows {
		out := make(record.Row, len(cols))
		for i, c := range cols {
			v, err := expr.Eval(c.e, row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// fastSortThreshold is the result size beyond which ORDER BY invokes
// the parallel sorter, FastSort [Tsukerman] — the "user option which
// directs the SQL compiler to cause the invocation at execution time of
// the parallel sorter" made automatic.
const fastSortThreshold = 4096

// orderKey is one bound ORDER BY key.
type orderKey struct {
	e    expr.Expr
	desc bool
}

// buildOrderKeys binds the ORDER BY list.
func buildOrderKeys(items []OrderItem, sc *scope) ([]orderKey, error) {
	if len(items) == 0 {
		return nil, nil
	}
	ks := make([]orderKey, len(items))
	for i, item := range items {
		bound, err := bind(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		ks[i] = orderKey{e: bound, desc: item.Desc}
	}
	return ks, nil
}

// orderRowsKeyed sorts full-width rows by pre-bound ORDER BY keys. Small
// results sort in place; large ones go through FastSort's parallel
// run-sort/merge.
func orderRowsKeyed(ks []orderKey, rows []record.Row) error {
	// The comparator runs on FastSort's parallel sorter processes, so the
	// error capture must be synchronized.
	var errMu sync.Mutex
	var sortErr error
	setErr := func(err error) {
		errMu.Lock()
		if sortErr == nil {
			sortErr = err
		}
		errMu.Unlock()
	}
	less := func(a, b record.Row) bool {
		for _, k := range ks {
			va, err := expr.Eval(k.e, a)
			if err != nil {
				setErr(err)
				return false
			}
			vb, err := expr.Eval(k.e, b)
			if err != nil {
				setErr(err)
				return false
			}
			c := va.Compare(vb)
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	if len(rows) >= fastSortThreshold {
		sorted, err := fastsort.Sort(rows, less, fastsort.Config{})
		if err != nil {
			return err
		}
		copy(rows, sorted)
		return sortErr
	}
	sort.SliceStable(rows, func(a, b int) bool { return less(rows[a], rows[b]) })
	return sortErr
}

// buildAggPlans binds the GROUP BY list, classifies the select items
// into aggregate calls and group-by outputs, and rewrites HAVING over
// the (possibly extended) output row. Shared by the requester-side fold
// and the pushdown planner, so both paths agree on shape and errors.
func buildAggPlans(sel Select, sc *scope) (gbs []expr.Expr, plans []itemPlan, having expr.Expr, err error) {
	for _, g := range sel.GroupBy {
		bound, err := bind(g, sc)
		if err != nil {
			return nil, nil, nil, err
		}
		gbs = append(gbs, bound)
	}
	for _, item := range sel.Items {
		if item.Star {
			return nil, nil, nil, fmt.Errorf("sql: SELECT * with aggregates is not supported")
		}
		name := item.Alias
		if name == "" {
			name = displayName(item.Expr)
		}
		if call, ok := item.Expr.(aCall); ok {
			spec, err := newAggSpec(call, sc)
			if err != nil {
				return nil, nil, nil, err
			}
			plans = append(plans, itemPlan{name: name, agg: spec, groupBy: -1})
			continue
		}
		// Must match a group-by expression.
		matched := -1
		for gi, g := range sel.GroupBy {
			if displayName(g) == displayName(item.Expr) {
				matched = gi
				break
			}
		}
		if matched < 0 {
			return nil, nil, nil, fmt.Errorf("sql: %s must appear in GROUP BY or an aggregate", displayName(item.Expr))
		}
		plans = append(plans, itemPlan{name: name, groupBy: matched})
	}
	// HAVING rewrites into an expression over the output row: aggregate
	// calls and GROUP BY expressions it references become hidden output
	// columns when not already selected.
	if sel.Having != nil {
		having, err = rewriteHaving(sel.Having, sel, sc, &plans)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return gbs, plans, having, nil
}

// emitAggResult turns full-width aggregate output rows (group key order,
// hidden columns included) into the statement's result: HAVING filter,
// hidden-column projection, ORDER BY, LIMIT.
func emitAggResult(sel Select, plans []itemPlan, having expr.Expr, outRows []record.Row) (*Result, error) {
	res := &Result{}
	for _, p := range plans {
		if !p.hidden {
			res.Columns = append(res.Columns, p.name)
		}
	}
	for _, out := range outRows {
		if having != nil {
			keep, err := expr.Satisfied(having, out)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		// Project away the hidden HAVING-only columns.
		visible := make(record.Row, 0, len(res.Columns))
		for i, p := range plans {
			if !p.hidden {
				visible = append(visible, out[i])
			}
		}
		res.Rows = append(res.Rows, visible)
	}
	// ORDER BY over the result columns (match by display name / alias).
	if len(sel.OrderBy) > 0 {
		if err := orderResult(res, sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// aggregateResult folds rows through the aggregate select list (the
// join path; single-table plans pre-build their aggregate shapes).
func (s *Session) aggregateResult(sel Select, sc *scope, rows []record.Row) (*Result, error) {
	gbs, plans, having, err := buildAggPlans(sel, sc)
	if err != nil {
		return nil, err
	}
	return aggregateRows(sel, gbs, plans, having, rows)
}

// aggregateRows folds rows through pre-bound aggregate plans. Groups
// emit in group-key byte order — the same canonical order the pushdown
// path produces, so the two plans are byte-identical on any input.
func aggregateRows(sel Select, gbs []expr.Expr, plans []itemPlan, having expr.Expr, rows []record.Row) (*Result, error) {
	type group struct {
		keyVals record.Row
		states  []*aggState
	}
	groups := make(map[string]*group)
	for _, row := range rows {
		keyVals := make(record.Row, len(gbs))
		var kb []byte
		for i, g := range gbs {
			v, err := expr.Eval(g, row)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			kb = v.AppendKey(kb)
		}
		gr, ok := groups[string(kb)]
		if !ok {
			gr = &group{keyVals: keyVals}
			for _, p := range plans {
				if p.agg != nil {
					gr.states = append(gr.states, p.agg.newState())
				} else {
					gr.states = append(gr.states, nil)
				}
			}
			groups[string(kb)] = gr
		}
		si := 0
		for _, p := range plans {
			if p.agg != nil {
				if err := gr.states[si].feed(row); err != nil {
					return nil, err
				}
			}
			si++
		}
	}
	// No rows and no GROUP BY: aggregates over the empty set.
	if len(groups) == 0 && len(gbs) == 0 {
		gr := &group{}
		for _, p := range plans {
			if p.agg != nil {
				gr.states = append(gr.states, p.agg.newState())
			} else {
				gr.states = append(gr.states, nil)
			}
		}
		groups[""] = gr
	}

	keysOrdered := make([]string, 0, len(groups))
	for k := range groups {
		keysOrdered = append(keysOrdered, k)
	}
	sort.Strings(keysOrdered)

	outRows := make([]record.Row, 0, len(groups))
	for _, k := range keysOrdered {
		g := groups[k]
		out := make(record.Row, len(plans))
		for i, p := range plans {
			if p.agg != nil {
				out[i] = g.states[i].value()
			} else {
				out[i] = g.keyVals[p.groupBy]
			}
		}
		outRows = append(outRows, out)
	}
	return emitAggResult(sel, plans, having, outRows)
}

// orderResult sorts an aggregate result by output column references.
func orderResult(res *Result, items []OrderItem) error {
	type sk struct {
		col  int
		desc bool
	}
	var sks []sk
	for _, item := range items {
		name := displayName(item.Expr)
		col := -1
		for i, c := range res.Columns {
			if strings.EqualFold(c, name) {
				col = i
				break
			}
		}
		if col < 0 {
			return fmt.Errorf("sql: ORDER BY %s must name an output column of the aggregate", name)
		}
		sks = append(sks, sk{col: col, desc: item.Desc})
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for _, k := range sks {
			c := res.Rows[a][k.col].Compare(res.Rows[b][k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// itemPlan is one output column of an aggregate query: an aggregate
// call or a group-by value, possibly hidden (HAVING-only).
type itemPlan struct {
	name    string
	agg     *aggSpec
	groupBy int // index into the GROUP BY list, -1 if aggregate
	hidden  bool
}

// rewriteHaving converts the HAVING clause into an expression over the
// aggregate output row, appending hidden output columns for aggregate
// calls and GROUP BY expressions the select list does not already carry.
func rewriteHaving(e aExpr, sel Select, sc *scope, plans *[]itemPlan) (expr.Expr, error) {
	name := displayName(e)
	// A verbatim GROUP BY expression (of any node shape) reads from the
	// group's key values.
	if _, isCall := e.(aCall); !isCall {
		for gi, g := range sel.GroupBy {
			if displayName(g) != name {
				continue
			}
			for i, p := range *plans {
				if p.agg == nil && p.groupBy == gi {
					return expr.FieldRef{Index: i, Name: name}, nil
				}
			}
			*plans = append(*plans, itemPlan{name: name, groupBy: gi, hidden: true})
			return expr.FieldRef{Index: len(*plans) - 1, Name: name}, nil
		}
	}
	switch n := e.(type) {
	case aConst:
		return expr.C(n.V), nil
	case aParam:
		return expr.Param{Index: n.Index}, nil
	case aCall:
		for i, p := range *plans {
			if p.agg != nil && p.name == name {
				return expr.FieldRef{Index: i, Name: name}, nil
			}
		}
		spec, err := newAggSpec(n, sc)
		if err != nil {
			return nil, err
		}
		*plans = append(*plans, itemPlan{name: name, agg: spec, groupBy: -1, hidden: true})
		return expr.FieldRef{Index: len(*plans) - 1, Name: name}, nil
	case aBin:
		l, err := rewriteHaving(n.L, sel, sc, plans)
		if err != nil {
			return nil, err
		}
		r, err := rewriteHaving(n.R, sel, sc, plans)
		if err != nil {
			return nil, err
		}
		return expr.Binary{Op: n.Op, L: l, R: r}, nil
	case aUnary:
		sub, err := rewriteHaving(n.E, sel, sc, plans)
		if err != nil {
			return nil, err
		}
		return expr.Unary{Op: n.Op, E: sub}, nil
	}
	return nil, fmt.Errorf("sql: HAVING %s must be an aggregate or a GROUP BY expression", name)
}

// aggSpec / aggState implement COUNT/SUM/AVG/MIN/MAX.
type aggSpec struct {
	fn       string
	star     bool
	distinct bool
	arg      expr.Expr
}

func newAggSpec(call aCall, sc *scope) (*aggSpec, error) {
	spec := &aggSpec{fn: call.Fn, star: call.Star, distinct: call.Distinct}
	if !call.Star {
		bound, err := bind(call.Arg, sc)
		if err != nil {
			return nil, err
		}
		spec.arg = bound
	} else if call.Fn != "COUNT" {
		return nil, fmt.Errorf("sql: %s(*) is not valid", call.Fn)
	}
	return spec, nil
}

type aggState struct {
	spec  *aggSpec
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   record.Value
	max   record.Value
	seen  map[string]bool
	any   bool
}

func (s *aggSpec) newState() *aggState {
	st := &aggState{spec: s, isInt: true}
	if s.distinct {
		st.seen = make(map[string]bool)
	}
	return st
}

func (s *aggState) feed(row record.Row) error {
	if s.spec.star {
		s.count++
		return nil
	}
	v, err := expr.Eval(s.spec.arg, row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates ignore NULLs
	}
	if s.seen != nil {
		k := string(v.AppendKey(nil))
		if s.seen[k] {
			return nil
		}
		s.seen[k] = true
	}
	s.count++
	switch s.spec.fn {
	case "SUM", "AVG":
		if v.Kind == record.TypeInt {
			s.sumI += v.I
		} else {
			s.isInt = false
		}
		s.sum += v.AsFloat()
	case "MIN":
		if !s.any || v.Compare(s.min) < 0 {
			s.min = v
		}
	case "MAX":
		if !s.any || v.Compare(s.max) > 0 {
			s.max = v
		}
	}
	s.any = true
	return nil
}

func (s *aggState) value() record.Value {
	switch s.spec.fn {
	case "COUNT":
		return record.Int(s.count)
	case "SUM":
		if s.count == 0 {
			return record.Null
		}
		if s.isInt {
			return record.Int(s.sumI)
		}
		return record.Float(s.sum)
	case "AVG":
		if s.count == 0 {
			return record.Null
		}
		return record.Float(s.sum / float64(s.count))
	case "MIN":
		if !s.any {
			return record.Null
		}
		return s.min
	case "MAX":
		if !s.any {
			return record.Null
		}
		return s.max
	}
	return record.Null
}
