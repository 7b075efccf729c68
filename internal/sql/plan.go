package sql

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fastsort"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
)

// compileSelect binds and plans a SELECT. The plan drives the executor's
// File System invocations — always in terms of a single table per
// request, with optional access via a secondary index; a join decomposes
// into single-variable queries against each table (join.go).
func (s *Session) compileSelect(sel Select, nParams int) (stmtPlan, error) {
	if len(sel.From) == 2 {
		return s.compileJoin(sel, nParams)
	}
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
	out, err := compileOutput(sel, sc)
	if err != nil {
		return nil, err
	}
	p := &selectPlan{q: s.tableQuery(def, opRows, pred), out: out, browse: sel.Browse}
	switch {
	case isCountStarQuery(sel):
		// A bare single-table COUNT(*) needs no rows at all — the Disk
		// Processes count qualifying records and each re-drive returns a
		// constant-size reply (COUNT^FIRST/NEXT).
		p.q.op = opCount
		return p, nil
	case out.aggregate:
		// Decomposable GROUP BY / aggregate queries evaluate at the Disk
		// Processes (AGG^FIRST/NEXT) and only per-group partial states
		// cross the interface.
		if s.pushdown {
			if p.q.agg = planAggPushdown(out.gbs, out.plans); p.q.agg != nil {
				p.q.op = opAgg
				return p, nil
			}
		}
		// A single-group aggregate folds every row commutatively, so a
		// parallel scan may deliver partitions' batches in arrival order.
		p.q.unordered = len(sel.GroupBy) == 0
	case sel.Limit >= 0 && len(sel.OrderBy) == 0:
		p.q.limit = sel.Limit
	case sel.Limit >= 0 && s.pushdown && orderByIsKeyPrefix(sel.OrderBy, def.Schema, sc):
		// Top-N: ORDER BY on an ascending primary-key prefix reads the scan
		// in output order, so the first LIMIT merged rows are the answer.
		p.q.limit, p.q.limitNeedsKeyOrder = sel.Limit, true
	}
	if p.q.proj, out.forward = out.passThrough(len(def.Schema.Fields)); !out.forward {
		p.q.proj = neededColumns(def.Schema, alias, sel)
	}
	return p, nil
}

// neededColumns lists the field ordinals the executor must see to
// evaluate the select list, ORDER BY, GROUP BY and HAVING — the VSBB
// projection. nil means the whole record (SELECT *, no column at all, or
// every column).
func neededColumns(schema *record.Schema, alias string, sel Select) []int {
	var exprs []aExpr
	for _, item := range sel.Items {
		if item.Star {
			return nil
		}
		exprs = append(exprs, item.Expr)
	}
	for _, o := range sel.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	exprs = append(exprs, sel.GroupBy...)
	exprs = append(exprs, sel.Having)
	needed := make([]bool, len(schema.Fields))
	up := strings.ToUpper(alias)
	for _, e := range exprs {
		for _, c := range columnsOf(e) {
			if c.Table != "" && c.Table != up && c.Table != schema.Name {
				continue
			}
			if i := schema.FieldIndex(c.Name); i >= 0 {
				needed[i] = true
			}
		}
	}
	var proj []int
	for i, n := range needed {
		if n {
			proj = append(proj, i)
		}
	}
	if len(proj) == len(needed) {
		return nil
	}
	return proj
}

// selectPlan is a compiled single-table SELECT: the one single-variable
// query and what the executor does with what it fetches. Every shape
// decision — aggregate classification, needed columns, pushdown
// decomposition, output columns, ORDER BY keys — is made once at compile
// time; the value-dependent choices wait in q.access for the parameter
// values.
type selectPlan struct {
	q      tableQuery
	out    *output
	browse bool // FOR BROWSE ACCESS: no locks, read through
}

func (p *selectPlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	tx := s.tx
	if p.browse {
		tx = nil
	}
	a, err := p.q.access(&s.arena, params)
	if err != nil {
		return nil, err
	}
	out, err := p.out.bound(params)
	if err != nil {
		return nil, err
	}
	f, err := a.fetch(s, tx, az)
	if err != nil {
		return nil, err
	}
	switch {
	case p.q.op == opCount:
		return out.emitAgg([]record.Row{{record.Int(int64(f.n))}})
	case p.q.op == opAgg:
		return out.emitGroups(f.groups)
	case out.forward:
		return out.forwardRows(f.enc), nil
	}
	rows, err := a.decode(f.enc)
	if err != nil {
		return nil, err
	}
	return out.emitRows(rows, az)
}

func (p *selectPlan) describe(sb *strings.Builder, params []record.Value) error {
	a, err := p.q.access(nil, params)
	if err != nil {
		return err
	}
	sb.WriteString("SELECT (single-variable query)\n")
	a.describe(sb, "  ")
	o := p.out
	switch {
	case p.q.op == opCount:
		return nil
	case p.q.op == opAgg:
		sb.WriteString("  merge partial states per group at File System\n")
		if o.having != nil {
			sb.WriteString("  HAVING filter in requester\n")
		}
	case o.aggregate:
		sb.WriteString("  aggregate in requester (executor)\n")
	}
	if len(o.order) > 0 {
		sb.WriteString("  sort in requester (FastSort for large results)\n")
	}
	if o.limit >= 0 {
		fmt.Fprintf(sb, "  limit %d%s\n", o.limit, a.budgetNote(len(o.order) > 0))
	}
	return nil
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

// output is the requester-side half of a SELECT: what the executor does
// with the full-width rows (or merged groups) once they are in hand —
// fold, filter, sort, trim, project. Its expressions are templates; bound
// fills in the parameter values for one execution.
type output struct {
	order     []OrderItem
	limit     int // -1 = none
	aggregate bool

	// Aggregate shapes. An aggregate's ORDER BY names output columns, by
	// the same display names the headers carry.
	gbs        []expr.Expr
	plans      []itemPlan
	having     expr.Expr
	orderNames []string

	// Projection shapes.
	orderKs []orderKey
	cols    []outCol
	names   []string // the headers (columnNames): every result's Columns, shared and read-only

	// forward says the statement is pass-through: the rows the Disk
	// Processes encode are the result's rows, byte for byte, so the
	// requester decodes, projects and re-encodes none of them. That holds
	// when there is one table, no aggregate and no ORDER BY (LIMIT only
	// truncates), and the select list is plain column references, none
	// twice, that are either the whole record in schema order or fewer
	// columns than the record has — the projection the plan would ask of
	// the Disk Process anyway, now asked in select-list order
	// (passThrough). The whole record out of order, a repeated column and
	// every expression stay materialised: forwarding them would take a
	// request the plan does not send today.
	forward bool

	hasParams bool // a template or a header waits for parameter values
}

// compileOutput binds the select list, GROUP BY, HAVING and ORDER BY
// against sc (one table, or a join's concatenated row).
func compileOutput(sel Select, sc *scope) (*output, error) {
	o := &output{order: sel.OrderBy, limit: sel.Limit, aggregate: len(sel.GroupBy) > 0 || sel.Having != nil}
	for _, item := range sel.Items {
		if !item.Star && hasAggregate(item.Expr) {
			o.aggregate = true
		}
	}
	var err error
	if o.aggregate {
		if o.gbs, o.plans, o.having, err = buildAggPlans(sel, sc); err != nil {
			return nil, err
		}
		for _, item := range sel.OrderBy {
			o.orderNames = append(o.orderNames, displayName(item.Expr))
		}
	} else {
		if o.orderKs, err = buildOrderKeys(sel.OrderBy, sc); err != nil {
			return nil, err
		}
		if o.cols, err = buildOutCols(sel.Items, sc); err != nil {
			return nil, err
		}
	}
	o.names = o.columnNames()
	o.hasParams = expr.HasParams(o.having)
	for _, g := range o.gbs {
		o.hasParams = o.hasParams || expr.HasParams(g)
	}
	for _, pl := range o.plans {
		o.hasParams = o.hasParams || pl.named != nil || (pl.agg != nil && expr.HasParams(pl.agg.arg))
	}
	for _, k := range o.orderKs {
		o.hasParams = o.hasParams || expr.HasParams(k.e)
	}
	for _, c := range o.cols {
		o.hasParams = o.hasParams || c.named != nil || expr.HasParams(c.e)
	}
	return o, nil
}

// passThrough applies the rule of the forward field to a select list over
// one table of width columns. ok comes with the projection to ask of the
// Disk Process — the select list's columns in the select list's order, so
// the rows come back as the result wants them; nil is the whole record.
func (o *output) passThrough(width int) (proj []int, ok bool) {
	if o.aggregate || len(o.order) > 0 || len(o.cols) > width {
		return nil, false
	}
	seen := make([]bool, width)
	for i, c := range o.cols {
		f, isCol := c.e.(expr.FieldRef)
		if !isCol || seen[f.Index] || (len(o.cols) == width && f.Index != i) {
			return nil, false
		}
		seen[f.Index] = true
		proj = append(proj, f.Index)
	}
	if len(proj) == width {
		proj = nil
	}
	return proj, true
}

// forwardRows is a pass-through statement's result: the fetched rows,
// truncated to LIMIT, still encoded. Whoever reads their values decodes
// them (Result.decode at the in-process edge, the client over the wire).
func (o *output) forwardRows(enc [][]byte) *Result {
	if o.limit >= 0 && len(enc) > o.limit {
		enc = enc[:o.limit]
	}
	return &Result{Columns: o.names, Encoded: enc, Affected: len(enc)}
}

// columnNames builds a result's headers: a projection's columns, or an
// aggregate's visible items.
func (o *output) columnNames() []string {
	if o.aggregate {
		var names []string
		for _, p := range o.plans {
			if !p.hidden {
				names = append(names, p.name)
			}
		}
		return names
	}
	names := make([]string, len(o.cols))
	for i, c := range o.cols {
		names[i] = c.name
	}
	return names
}

// bound returns the output with params substituted into every template
// and every header that quotes a marker re-rendered — o itself when
// nothing in it waits for a value (the common case: markers in WHERE).
func (o *output) bound(params []record.Value) (*output, error) {
	if !o.hasParams {
		return o, nil
	}
	b := *o
	var err error
	sub := func(e expr.Expr) expr.Expr {
		if err != nil {
			return nil
		}
		e, err = expr.Substitute(e, params)
		return e
	}
	b.having = sub(o.having)
	b.gbs = make([]expr.Expr, len(o.gbs))
	for i, g := range o.gbs {
		b.gbs[i] = sub(g)
	}
	b.plans = make([]itemPlan, len(o.plans))
	for i, pl := range o.plans {
		if pl.agg != nil {
			spec := *pl.agg
			spec.arg = sub(spec.arg)
			pl.agg = &spec
		}
		if pl.named != nil {
			pl.name = nameWith(pl.named, params)
		}
		b.plans[i] = pl
	}
	b.orderNames = make([]string, len(o.order))
	for i, item := range o.order {
		b.orderNames[i] = nameWith(item.Expr, params)
	}
	b.orderKs = make([]orderKey, len(o.orderKs))
	for i, k := range o.orderKs {
		b.orderKs[i] = orderKey{e: sub(k.e), desc: k.desc}
	}
	b.cols = make([]outCol, len(o.cols))
	for i, c := range o.cols {
		if c.named != nil {
			c.name = nameWith(c.named, params)
		}
		c.e = sub(c.e)
		b.cols[i] = c
	}
	if o.names != nil {
		b.names = b.columnNames()
	}
	return &b, err
}

// emitRows turns fetched full-width rows into the statement's result.
func (o *output) emitRows(rows []record.Row, az *analyzeState) (*Result, error) {
	var t0 time.Time
	if az != nil { // the clock is read for EXPLAIN ANALYZE alone
		t0 = time.Now()
	}
	if o.aggregate {
		res, err := o.aggregateRows(rows)
		if az != nil && err == nil {
			az.localNode("aggregate", len(rows), time.Since(t0))
		}
		return res, err
	}
	res, err := o.projectRows(rows)
	if az != nil && err == nil && len(o.order) > 0 {
		az.localNode("sort+project", len(rows), time.Since(t0))
	}
	return res, err
}

// outCol is one bound output column of a projection.
type outCol struct {
	e     expr.Expr
	name  string
	named aExpr // non-nil: the header quotes a marker and is rendered per execution
}

// itemName labels a select item: its alias, else its expression's text.
// named is the expression when that text quotes a parameter marker — the
// literal twin's header shows the value, so the label waits for it. (A
// '?' inside a string literal re-renders too, to the same text.)
func itemName(item SelectItem) (name string, named aExpr) {
	if item.Alias != "" {
		return item.Alias, nil
	}
	name = displayName(item.Expr)
	if strings.Contains(name, "?") {
		named = item.Expr
	}
	return name, named
}

// buildOutCols binds the select list into output columns, expanding *
// over every table in scope.
func buildOutCols(items []SelectItem, sc *scope) ([]outCol, error) {
	var cols []outCol
	for _, item := range items {
		if item.Star {
			for _, e := range sc.entries {
				for i, f := range e.schema.Fields {
					cols = append(cols, outCol{e: expr.FieldRef{Index: e.offset + i, Name: f.Name}, name: f.Name})
				}
			}
			continue
		}
		bound, err := bind(item.Expr, sc)
		if err != nil {
			return nil, err
		}
		c := outCol{e: bound}
		c.name, c.named = itemName(item)
		cols = append(cols, c)
	}
	return cols, nil
}

// projectRows applies ORDER BY / LIMIT / the output columns to full-width
// rows.
func (o *output) projectRows(rows []record.Row) (*Result, error) {
	if len(o.orderKs) > 0 {
		if err := orderRowsKeyed(o.orderKs, rows); err != nil {
			return nil, err
		}
	}
	if o.limit >= 0 && len(rows) > o.limit {
		rows = rows[:o.limit]
	}
	res := &Result{Columns: o.names}
	for _, row := range rows {
		out := make(record.Row, len(o.cols))
		for i, c := range o.cols {
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

// orderRowsKeyed sorts full-width rows by pre-bound ORDER BY keys through
// the parallel sorter, FastSort [Tsukerman] — the "user option which
// directs the SQL compiler to cause the invocation at execution time of
// the parallel sorter" made automatic; it sorts a small result in place.
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
	copy(rows, fastsort.Sort(rows, less))
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
		name, named := itemName(item)
		if call, ok := item.Expr.(aCall); ok {
			spec, err := newAggSpec(call, sc)
			if err != nil {
				return nil, nil, nil, err
			}
			plans = append(plans, itemPlan{name: name, named: named, agg: spec, groupBy: -1})
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
		plans = append(plans, itemPlan{name: name, named: named, groupBy: matched})
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

// emitAgg turns full-width aggregate output rows (group key order,
// hidden columns included) into the statement's result: HAVING filter,
// hidden-column projection, ORDER BY, LIMIT. It works in the rows it is
// given: the ones HAVING keeps are the result's, each with its hidden
// columns projected away within its own values.
func (o *output) emitAgg(outRows []record.Row) (*Result, error) {
	res := &Result{Columns: o.names}
	kept := outRows[:0]
	for _, out := range outRows {
		if o.having != nil {
			keep, err := expr.Satisfied(o.having, out)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		if len(o.names) < len(out) {
			// Project away the hidden HAVING-only columns.
			n := 0
			for i, p := range o.plans {
				if !p.hidden {
					out[n] = out[i]
					n++
				}
			}
			out = out[:n:n]
		}
		kept = append(kept, out)
	}
	if len(kept) > 0 {
		res.Rows = kept
	}
	// ORDER BY over the result columns (match by display name / alias).
	if len(o.order) > 0 {
		if err := o.orderResult(res); err != nil {
			return nil, err
		}
	}
	if o.limit >= 0 && len(res.Rows) > o.limit {
		res.Rows = res.Rows[:o.limit]
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// aggregateRows folds rows through the aggregate plans in the requester,
// into a group table like the one AGG^FIRST/NEXT's entries merge into.
// Each group's partial states are fsdp.AggPartial, fed as the Disk
// Processes feed theirs, and emitGroups finalizes them as it does the
// merged groups: one aggregate body for both paths. DISTINCT is a set in
// front of Feed, per group and item.
func (o *output) aggregateRows(rows []record.Row) (*Result, error) {
	type seenKey struct {
		g, item int
		val     string
	}
	var seen map[seenKey]bool
	var t fsdp.GroupTable
	t.Reset(o.aggCount())
	var kb, fields []byte
	for _, row := range rows {
		kb, fields = kb[:0], fields[:0]
		for _, g := range o.gbs {
			v, err := expr.Eval(g, row)
			if err != nil {
				return nil, err
			}
			kb, fields = v.AppendKey(kb), record.AppendValue(fields, v)
		}
		g, ok := t.Lookup(kb)
		if !ok {
			g = t.Add(kb, fields)
		}
		partials := t.Partials(g)
		c := -1
		for _, pl := range o.plans {
			a := pl.agg
			if a == nil {
				continue
			}
			c++
			if a.star {
				partials[c].AddCount()
				continue
			}
			v, err := expr.Eval(a.arg, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue // SQL aggregates ignore NULLs
			}
			if a.distinct {
				k := seenKey{g, c, string(v.AppendKey(nil))}
				if seen[k] {
					continue
				}
				if seen == nil {
					seen = make(map[seenKey]bool)
				}
				seen[k] = true
			}
			partials[c].Feed(a.fn, v)
		}
	}
	return o.emitGroups(&t)
}

// aggCount is the number of aggregate items: each group holds one partial
// state per item, in plan order.
func (o *output) aggCount() int {
	n := 0
	for _, pl := range o.plans {
		if pl.agg != nil {
			n++
		}
	}
	return n
}

// orderResult sorts an aggregate result by output column references.
func (o *output) orderResult(res *Result) error {
	type sk struct {
		col  int
		desc bool
	}
	var sks []sk
	for i, item := range o.order {
		name := o.orderNames[i]
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
	named   aExpr // non-nil: name quotes a marker (see itemName)
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

// aggSpec is one bound aggregate call. fn is the partial state's function
// (fsdp.AggFn), the Disk Process's and the requester's alike: AVG is a SUM
// whose partial already counts its inputs, finalized as their quotient.
type aggSpec struct {
	fn       fsdp.AggFn
	avg      bool
	star     bool
	distinct bool
	arg      expr.Expr
}

// aggFns maps each SQL aggregate (the parser admits no other) to its
// partial state's function.
var aggFns = map[string]fsdp.AggFn{"COUNT": fsdp.AggCount, "SUM": fsdp.AggSum, "AVG": fsdp.AggSum, "MIN": fsdp.AggMin, "MAX": fsdp.AggMax}

func newAggSpec(call aCall, sc *scope) (*aggSpec, error) {
	spec := &aggSpec{fn: aggFns[call.Fn], avg: call.Fn == "AVG", star: call.Star, distinct: call.Distinct}
	if call.Star {
		if spec.fn != fsdp.AggCount {
			return nil, fmt.Errorf("sql: %s(*) is not valid", call.Fn)
		}
		return spec, nil
	}
	bound, err := bind(call.Arg, sc)
	if err != nil {
		return nil, err
	}
	// A sum of names or of truth values is not zero, it is a mistake:
	// refused here, once, for the pushed-down and the row path alike. A
	// column is judged by its declared type, an expression only where its
	// type is certain — a constant, or a comparison, AND, OR, NOT, IS NULL or
	// LIKE (expr.YieldsBool).
	if spec.fn == fsdp.AggSum {
		var typ record.Type
		switch b := bound.(type) {
		case expr.FieldRef:
			typ = sc.typeOf(b.Index)
		case expr.Const:
			typ = b.V.Kind
		default:
			if expr.YieldsBool(bound) {
				typ = record.TypeBool
			}
		}
		if typ == record.TypeString || typ == record.TypeBool {
			arg := displayName(call.Arg)
			return nil, fmt.Errorf("sql: %s(%s): the argument must be numeric, and %s is %v", call.Fn, arg, arg, typ)
		}
	}
	spec.arg = bound
	return spec, nil
}

// finalize converts a group's partial state into the aggregate's SQL
// value: COUNT is never NULL, the others are over no input.
func (a *aggSpec) finalize(p fsdp.AggPartial) record.Value {
	switch {
	case a.fn == fsdp.AggCount:
		return record.Int(p.Count)
	case p.Count == 0:
		return record.Null
	case a.avg:
		return record.Float(p.SumF / float64(p.Count))
	case a.fn == fsdp.AggSum && p.Float:
		return record.Float(p.SumF)
	case a.fn == fsdp.AggSum:
		return record.Int(p.SumI)
	}
	return p.Val
}
