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

// A Session executes SQL statements. Statements outside BEGIN…COMMIT
// autocommit; SELECT outside a transaction reads with browse access
// (no locks), matching interactive use.
type Session struct {
	cat *Catalog
	fs  *fs.FS
	tx  *tmf.Tx

	// pushdown enables the near-data execution strategies beyond plain
	// predicate/projection shipping: partial aggregation at the Disk
	// Processes (AGG^FIRST/NEXT), Top-N/LIMIT row budgets in the Subset
	// Control Block, and batched join probes (PROBE^BLOCK). On by
	// default; SetPushdown(false) forces the row-at-a-time plans
	// (ablations, differential tests).
	pushdown bool
}

// NewSession creates a session over a shared catalog and one requester's
// File System.
func NewSession(cat *Catalog, f *fs.FS) *Session {
	return &Session{cat: cat, fs: f, pushdown: true}
}

// SetPushdown toggles the session's near-data execution strategies
// (partial aggregation, Top-N budgets, batched join probes). The row
// paths always remain available as the semantic ground truth.
func (s *Session) SetPushdown(on bool) { s.pushdown = on }

// Result is one statement's outcome.
type Result struct {
	Columns  []string
	Rows     []record.Row
	Affected int
}

// InTx reports whether an explicit transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// Exec compiles and executes one statement. Compilation goes through
// the catalog's shared plan cache, so repeated ad-hoc text (the
// autocommit "$SQL" traffic a wire server relays) skips the
// parse/bind/plan work after its first execution.
func (s *Session) Exec(src string) (*Result, error) {
	p, err := s.prepared(src)
	if err != nil {
		return nil, err
	}
	if p.nParams > 0 {
		return nil, badStatement(fmt.Errorf("sql: statement has %d parameter marker(s); prepare it and execute with arguments", p.nParams))
	}
	return s.execCompiled(p, nil, nil)
}

// MustExec is Exec for fixtures and examples; it panics on error.
func (s *Session) MustExec(src string) *Result {
	res, err := s.Exec(src)
	if err != nil {
		panic(fmt.Sprintf("sql: %v\n  in: %s", err, src))
	}
	return res
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(stmt Statement) (*Result, error) {
	switch st := stmt.(type) {
	case Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("sql: transaction already open")
		}
		s.tx = s.fs.Begin()
		return &Result{}, nil
	case Commit:
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no transaction open")
		}
		tx := s.tx
		s.tx = nil
		return &Result{}, s.fs.Commit(tx)
	case Rollback:
		if s.tx == nil {
			return nil, fmt.Errorf("sql: no transaction open")
		}
		tx := s.tx
		s.tx = nil
		return &Result{}, s.fs.Abort(tx)
	case CreateTable:
		return &Result{}, s.cat.createTable(s.fs, st)
	case CreateIndex:
		return s.execDDLIndex(st)
	case DropTable:
		return &Result{}, s.cat.dropTable(s.fs, st.Name)
	case Insert:
		return s.autocommit(func(tx *tmf.Tx) (*Result, error) { return s.execInsert(tx, st) })
	case Update:
		return s.autocommit(func(tx *tmf.Tx) (*Result, error) { return s.execUpdate(tx, st, nil) })
	case Delete:
		return s.autocommit(func(tx *tmf.Tx) (*Result, error) { return s.execDelete(tx, st, nil) })
	case Select:
		return s.execSelect(st)
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
}

// autocommit runs fn under the open transaction, or under a fresh one
// committed on success and aborted on failure.
func (s *Session) autocommit(fn func(*tmf.Tx) (*Result, error)) (*Result, error) {
	if s.tx != nil {
		return fn(s.tx)
	}
	tx := s.fs.Begin()
	res, err := fn(tx)
	if err != nil {
		_ = s.fs.Abort(tx)
		return nil, err
	}
	if err := s.fs.Commit(tx); err != nil {
		return nil, err
	}
	return res, nil
}

func (s *Session) execDDLIndex(st CreateIndex) (*Result, error) {
	return s.autocommit(func(tx *tmf.Tx) (*Result, error) {
		return &Result{}, s.cat.createIndex(s.fs, tx, st)
	})
}

// insertPlan is a compiled INSERT: resolved column ordinals and bound
// value expressions (which may hold parameter slots).
type insertPlan struct {
	def    *fs.FileDef
	colIdx []int
	rows   [][]expr.Expr
}

func (s *Session) compileInsert(ins Insert) (*insertPlan, error) {
	def, err := s.cat.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	schema := def.Schema
	// Column list: default is schema order.
	colIdx := make([]int, 0, len(schema.Fields))
	if len(ins.Cols) == 0 {
		for i := range schema.Fields {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range ins.Cols {
			i := schema.FieldIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("sql: INSERT: no column %q in %s", c, def.Name)
			}
			colIdx = append(colIdx, i)
		}
	}
	p := &insertPlan{def: def, colIdx: colIdx}
	for _, exprsRow := range ins.Rows {
		if len(exprsRow) != len(colIdx) {
			return nil, fmt.Errorf("sql: INSERT row has %d values, want %d", len(exprsRow), len(colIdx))
		}
		row := make([]expr.Expr, len(exprsRow))
		for j, ae := range exprsRow {
			bound, err := bind(ae, &scope{})
			if err != nil {
				return nil, err
			}
			row[j] = bound
		}
		p.rows = append(p.rows, row)
	}
	return p, nil
}

func (p *insertPlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	return s.autocommit(func(tx *tmf.Tx) (*Result, error) { return p.runTx(s, tx, params) })
}

func (p *insertPlan) runTx(s *Session, tx *tmf.Tx, params []record.Value) (*Result, error) {
	n := 0
	for _, exprsRow := range p.rows {
		row := make(record.Row, len(p.def.Schema.Fields))
		for j, bound := range exprsRow {
			e, err := expr.Substitute(bound, params)
			if err != nil {
				return nil, err
			}
			v, err := expr.Eval(e, nil)
			if err != nil {
				return nil, err
			}
			row[p.colIdx[j]] = v
		}
		if err := s.fs.Insert(tx, p.def, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (s *Session) execInsert(tx *tmf.Tx, ins Insert) (*Result, error) {
	p, err := s.compileInsert(ins)
	if err != nil {
		return nil, err
	}
	return p.runTx(s, tx, nil)
}

// updatePlan is a compiled UPDATE: bound predicate and assignment
// templates over the table's scope.
type updatePlan struct {
	def     *fs.FileDef
	pred    expr.Expr
	assigns []expr.Assignment
}

func (s *Session) compileUpdate(upd Update) (*updatePlan, error) {
	def, err := s.cat.Table(upd.Table)
	if err != nil {
		return nil, err
	}
	sc := &scope{}
	sc.add(def.Name, def.Schema, 0)
	pred, err := bind(upd.Where, sc)
	if err != nil {
		return nil, err
	}
	var assigns []expr.Assignment
	for _, set := range upd.Sets {
		i := def.Schema.FieldIndex(set.Col)
		if i < 0 {
			return nil, fmt.Errorf("sql: UPDATE: no column %q in %s", set.Col, def.Name)
		}
		rhs, err := bind(set.E, sc)
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, expr.Assignment{Field: i, E: rhs})
	}
	return &updatePlan{def: def, pred: pred, assigns: assigns}, nil
}

func (p *updatePlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	return s.autocommit(func(tx *tmf.Tx) (*Result, error) { return p.runTx(s, tx, params, az) })
}

func (s *Session) execUpdate(tx *tmf.Tx, upd Update, az *analyzeState) (*Result, error) {
	p, err := s.compileUpdate(upd)
	if err != nil {
		return nil, err
	}
	return p.runTx(s, tx, nil, az)
}

func (p *updatePlan) runTx(s *Session, tx *tmf.Tx, params []record.Value, az *analyzeState) (*Result, error) {
	def := p.def
	pred, err := expr.Substitute(p.pred, params)
	if err != nil {
		return nil, err
	}
	assigns, err := expr.SubstituteAssignments(p.assigns, params)
	if err != nil {
		return nil, err
	}
	// The query compiler's key step: peel the primary-key range off the
	// predicate so each Disk Process receives a bounded subset request.
	rng, residual := expr.ExtractKeyRange(pred, def.Schema)

	// When the statement will run requester-side anyway (indexed SET
	// targets) and an index probe matches the predicate, fetch the
	// qualifying rows through the index instead of scanning.
	if def.AssignsTouchIndexes(assigns) && rng.Low == nil && rng.High == nil {
		if rows, ok, err := s.probeRows(tx, def, residual, az); err != nil {
			return nil, err
		} else if ok {
			t0 := time.Now()
			n := 0
			for _, row := range rows {
				key := def.Schema.Key(row)
				newRow, err := expr.ApplyAssignments(row, assigns)
				if err != nil {
					return nil, err
				}
				def.Schema.Coerce(newRow)
				if err := s.fs.Update(tx, def, key, newRow); err != nil {
					return nil, err
				}
				n++
			}
			if az != nil {
				az.nodes = append(az.nodes, NodeActuals{
					Label:    "update requester-side (index maintenance)",
					Affected: n, Wall: time.Since(t0),
				})
			}
			return &Result{Affected: n}, nil
		}
	}
	n, st, err := s.fs.UpdateSubset(tx, def, rng, residual, assigns)
	if err != nil {
		return nil, err
	}
	if az != nil {
		if st.Messages > 0 {
			az.scanNode("UPDATE^SUBSET^FIRST/NEXT pushdown", st)
			az.nodes[len(az.nodes)-1].Affected = n
		} else {
			// Requester-side fallback (indexed SET targets without a
			// usable probe): the qualifying scan ran un-traced.
			az.nodes = append(az.nodes, NodeActuals{
				Label: "update requester-side (scan + index maintenance)", Affected: n,
			})
		}
	}
	return &Result{Affected: n}, nil
}

// probeRows fetches the rows satisfying pred through a secondary-index
// probe when one applies (ok=false otherwise), post-filtering the full
// predicate requester-side.
func (s *Session) probeRows(tx *tmf.Tx, def *fs.FileDef, pred expr.Expr, az *analyzeState) ([]record.Row, bool, error) {
	idx, val, ok := indexProbe(def, pred)
	if !ok {
		return nil, false, nil
	}
	var d0 msg.Stats
	var l0 obs.Snapshot
	var t0 time.Time
	if az != nil {
		d0, l0 = s.fs.Network().Stats(), s.fs.Network().LatencyAll()
		t0 = time.Now()
	}
	rows, err := s.fs.ReadByIndex(tx, def, idx, val)
	if err != nil {
		return nil, false, err
	}
	out := rows[:0]
	for _, row := range rows {
		keep, err := expr.Satisfied(pred, row)
		if err != nil {
			return nil, false, err
		}
		if keep {
			out = append(out, row)
		}
	}
	if az != nil {
		az.deltaNode(fmt.Sprintf("index probe %s.%s", def.Name, idx.Name),
			d0, s.fs.Network().Stats(), l0, s.fs.Network().LatencyAll(),
			len(out), time.Since(t0))
	}
	return out, true, nil
}

// deletePlan is a compiled DELETE: a bound predicate template.
type deletePlan struct {
	def  *fs.FileDef
	pred expr.Expr
}

func (s *Session) compileDelete(del Delete) (*deletePlan, error) {
	def, err := s.cat.Table(del.Table)
	if err != nil {
		return nil, err
	}
	sc := &scope{}
	sc.add(def.Name, def.Schema, 0)
	pred, err := bind(del.Where, sc)
	if err != nil {
		return nil, err
	}
	return &deletePlan{def: def, pred: pred}, nil
}

func (p *deletePlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	return s.autocommit(func(tx *tmf.Tx) (*Result, error) { return p.runTx(s, tx, params, az) })
}

func (s *Session) execDelete(tx *tmf.Tx, del Delete, az *analyzeState) (*Result, error) {
	p, err := s.compileDelete(del)
	if err != nil {
		return nil, err
	}
	return p.runTx(s, tx, nil, az)
}

func (p *deletePlan) runTx(s *Session, tx *tmf.Tx, params []record.Value, az *analyzeState) (*Result, error) {
	def := p.def
	pred, err := expr.Substitute(p.pred, params)
	if err != nil {
		return nil, err
	}
	rng, residual := expr.ExtractKeyRange(pred, def.Schema)

	// Indexed tables delete requester-side; prefer an index probe over a
	// scan when the predicate allows it.
	if len(def.Indexes) > 0 && rng.Low == nil && rng.High == nil {
		if rows, ok, err := s.probeRows(tx, def, residual, az); err != nil {
			return nil, err
		} else if ok {
			t0 := time.Now()
			n := 0
			for _, row := range rows {
				if err := s.fs.Delete(tx, def, def.Schema.Key(row)); err != nil {
					return nil, err
				}
				n++
			}
			if az != nil {
				az.nodes = append(az.nodes, NodeActuals{
					Label:    "delete requester-side (index maintenance)",
					Affected: n, Wall: time.Since(t0),
				})
			}
			return &Result{Affected: n}, nil
		}
	}
	n, st, err := s.fs.DeleteSubset(tx, def, rng, residual)
	if err != nil {
		return nil, err
	}
	if az != nil {
		if st.Messages > 0 {
			az.scanNode("DELETE^SUBSET^FIRST/NEXT pushdown", st)
			az.nodes[len(az.nodes)-1].Affected = n
		} else {
			az.nodes = append(az.nodes, NodeActuals{
				Label: "delete requester-side (scan + index maintenance)", Affected: n,
			})
		}
	}
	return &Result{Affected: n}, nil
}

// FormatResult renders a result as an aligned text table (nsqlsh, tests).
func FormatResult(r *Result) string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("-- %d row(s) affected\n", r.Affected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.Format()
			if ci < len(widths) && len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]))
		sb.WriteString("  ")
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for ci, cell := range row {
			w := 0
			if ci < len(widths) {
				w = widths[ci]
			}
			fmt.Fprintf(&sb, "%-*s  ", w, cell)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "-- %d row(s)\n", len(r.Rows))
	return sb.String()
}
