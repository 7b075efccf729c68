package sql

import (
	"fmt"
	"strings"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
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

	// arena holds the statement's own bytes: its unique keys, its READs
	// and their replies, the rows a READ's projection cuts (fsdp.Arena). It
	// is reset when the next statement starts, so a result's Encoded rows
	// are valid until then.
	arena fsdp.Arena
	view  record.View // the requester's look at a READ's record (access.admit)
	read  [1][]byte   // a READ's row, as the statement's fetched rows (fetchRead)

	// convs are the arenas the statement's subset conversations run in,
	// one per conversation that runs at once (fs.SelectSpec.Arenas); rows
	// lists the rows its scans fetched, slices of them (fetchScan); groups
	// is the table its pushed-down GROUP BY merges into (fs.FS.Agg). All
	// three are the statement's like arena, and taken back with it.
	convs  []fsdp.Arena
	rows   [][]byte
	groups fsdp.GroupTable

	insert record.Row // the row an INSERT builds (insertPlan.runTx)
}

// maxRowList bounds the row list a session keeps across statements, in
// rows: a statement that fetched more lists them apart next time too.
const maxRowList = 1 << 14

// newStatement takes back what the last statement's result may have
// pointed into — its arenas and its row list — for the statement about
// to run: the caller has decoded or encoded that result by now.
func (s *Session) newStatement() {
	s.arena.Reset()
	for i := range s.convs {
		s.convs[i].Reset()
	}
	clear(s.rows)
	s.rows = s.rows[:0]
	if cap(s.rows) > maxRowList {
		s.rows = nil
	}
}

// convArenas returns the statement's conversation arenas: one for each
// conversation the File System runs at once, at its current degree of
// parallelism.
func (s *Session) convArenas() []fsdp.Arena {
	if n := max(1, s.fs.ScanParallel()); len(s.convs) < n {
		s.convs = append(s.convs, make([]fsdp.Arena, n-len(s.convs))...)
	}
	return s.convs
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

	// Encoded holds the rows of a pass-through SELECT (output.forward) as
	// the Disk Processes encoded them, for a caller that forwards rows
	// rather than reads them: only ExecEncoded and ExecPreparedEncoded
	// return it set, and then in place of Rows. Nothing has validated the
	// bytes; whoever reads a value decodes the row first. They may lie in
	// the session's statement arena: valid until the session's next
	// statement starts.
	Encoded [][]byte
}

// decoded is the in-process edge: a pass-through result's rows validated
// and decoded — the record.Decode a remote client runs on the same bytes
// (nsqlwire.DecodeReply) — into one allocation.
func decoded(res *Result, err error) (*Result, error) {
	if err != nil || len(res.Encoded) == 0 {
		return res, err
	}
	arena := make(record.Row, 0, len(res.Encoded)*len(res.Columns))
	res.Rows = make([]record.Row, len(res.Encoded))
	for i, enc := range res.Encoded {
		if arena, res.Rows[i], err = record.AppendDecode(arena, enc); err != nil {
			return nil, err
		}
	}
	res.Encoded = nil
	return res, nil
}

// InTx reports whether an explicit transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// Exec compiles and executes one statement. Compilation goes through
// the catalog's shared plan cache, so repeated ad-hoc text (the
// autocommit "$SQL" traffic a wire server relays) skips the
// parse/bind/plan work after its first execution.
func (s *Session) Exec(src string) (*Result, error) { return decoded(s.ExecEncoded(src)) }

// ExecEncoded is Exec for a caller that forwards the result's rows
// instead of reading them (the "$SQL" endpoint): a pass-through SELECT's
// rows come back in Result.Encoded, untouched.
func (s *Session) ExecEncoded(src string) (*Result, error) {
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

// controlPlan runs transaction control and DDL from the AST: nothing in
// them is worth compiling, and they are never cached.
type controlPlan struct{ stmt Statement }

func (p controlPlan) run(s *Session, _ []record.Value, _ *analyzeState) (*Result, error) {
	switch st := p.stmt.(type) {
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
		return s.autocommit(func(tx *tmf.Tx) (*Result, error) {
			return &Result{}, s.cat.createIndex(s.fs, tx, st)
		})
	case DropTable:
		return &Result{}, s.cat.dropTable(s.fs, st.Name)
	}
	return nil, fmt.Errorf("sql: unhandled statement %T", p.stmt)
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

// runTx inserts the plan's rows under tx. Each is built in the session's
// row, which fs.Insert reads and does not keep: a bare parameter marker is
// its argument and a constant its value, read where they are; any other
// expression is substituted and evaluated.
func (p *insertPlan) runTx(s *Session, tx *tmf.Tx, params []record.Value) (*Result, error) {
	n, width := 0, len(p.def.Schema.Fields)
	if cap(s.insert) < width {
		s.insert = make(record.Row, width)
	}
	row := s.insert[:width]
	for _, exprsRow := range p.rows {
		clear(row)
		for j, bound := range exprsRow {
			var v record.Value
			var err error
			switch e := bound.(type) {
			case expr.Param:
				v, err = e.Value(params)
			case expr.Const:
				v = e.V
			default:
				if bound, err = expr.Substitute(bound, params); err == nil {
					v, err = expr.Eval(bound, nil)
				}
			}
			if err != nil {
				return nil, err
			}
			row[p.colIdx[j]] = v
		}
		if err := s.fs.Insert(&s.arena, tx, p.def, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// writePlan is a compiled UPDATE or DELETE: one single-variable query
// whose op changes the records it reaches.
type writePlan struct{ q tableQuery }

func (s *Session) compileUpdate(upd Update) (*writePlan, error) {
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
	q := s.tableQuery(def, opUpdate, pred)
	for _, set := range upd.Sets {
		i := def.Schema.FieldIndex(set.Col)
		if i < 0 {
			return nil, fmt.Errorf("sql: UPDATE: no column %q in %s", set.Col, def.Name)
		}
		rhs, err := bind(set.E, sc)
		if err != nil {
			return nil, err
		}
		q.assigns = append(q.assigns, expr.Assignment{Field: i, E: rhs})
		q.slots = max(q.slots, expr.NumParams(rhs))
	}
	// Assignments touching indexed or key columns run requester-side:
	// index fragments live on Disk Processes the base file's cannot reach.
	q.requesterSide = def.AssignsTouchIndexes(q.assigns)
	return &writePlan{q: q}, nil
}

func (s *Session) compileDelete(del Delete) (*writePlan, error) {
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
	q := s.tableQuery(def, opDelete, pred)
	q.requesterSide = len(def.Indexes) > 0
	return &writePlan{q: q}, nil
}

func (p *writePlan) run(s *Session, params []record.Value, az *analyzeState) (*Result, error) {
	return s.autocommit(func(tx *tmf.Tx) (*Result, error) {
		a, err := p.q.access(&s.arena, params)
		if err != nil {
			return nil, err
		}
		f, err := a.fetch(s, tx, az)
		if err != nil {
			return nil, err
		}
		return &Result{Affected: f.n}, nil
	})
}

func (p *writePlan) describe(sb *strings.Builder, params []record.Value) error {
	a, err := p.q.access(nil, params)
	if err != nil {
		return err
	}
	sb.WriteString(strings.ToUpper(p.q.op.verb()) + "\n")
	a.describe(sb, "  ")
	return nil
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
