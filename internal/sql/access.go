package sql

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// This file is the one seat of the access-path decision. A compiled
// statement holds one tableQuery per single-variable query; its access
// method is the only value-dependent step of a plan — substitute the
// values, then choose — and the access it returns has two readers: fetch
// executes it and describe (explain.go) prints it. Execution, EXPLAIN and EXPLAIN
// ANALYZE differ only in which of the two they call.

// accessOp is what a statement wants of one table.
type accessOp uint8

const (
	opRows   accessOp = iota // rows, as encoded by the Disk Process, to the executor
	opCount                  // COUNT(*) via COUNT^FIRST/NEXT
	opAgg                    // partial aggregation via AGG^FIRST/NEXT
	opUpdate                 // UPDATE
	opDelete                 // DELETE
)

// verb names a write op in plan text and node labels.
func (op accessOp) verb() string {
	if op == opUpdate {
		return "update"
	}
	return "delete"
}

// accessVia is how the qualifying records are reached.
type accessVia uint8

const (
	viaScan  accessVia = iota // the key range peeled off the predicate, or the whole file
	viaProbe                  // secondary-index probe, then base-file reads by primary key
	viaKey                    // one record by its unique key, in one message: the paper's READ for rows, UPDATE^KEY or DELETE^KEY for a write
	viaNone                   // not at all: LIMIT 0, or a key value no key equals (NULL, 1.5 on an INTEGER key), is answered before any message is sent
)

// tableQuery is one single-variable query as compiled: everything about
// the access that does not depend on values.
type tableQuery struct {
	def     *fs.FileDef
	op      accessOp
	pred    expr.Expr         // bound predicate template
	key     *expr.UniqueKey   // pred pins every primary-key column: rows come by READ, a write at the Disk Process is keyed
	assigns []expr.Assignment // opUpdate: SET templates
	slots   int               // values the templates wait for (statement markers, a join's outer values)
	proj    []int             // opRows: columns the executor reads, in the order it wants them (nil = the whole record)
	agg     *fsdp.AggSpec     // opAgg

	// limit is the row count after which the executor stops reading (-1 =
	// never): LIMIT without ORDER BY, or — limitNeedsKeyOrder — with an
	// ORDER BY the key-ordered scan already satisfies (Top-N), which an
	// index probe's rows do not.
	limit              int
	limitNeedsKeyOrder bool
	pushdown           bool // the session's setting: a row budget travels to the Disk Processes
	unordered          bool // the consumer folds rows commutatively: a parallel scan need not merge
	requesterSide      bool // opUpdate/opDelete: index maintenance keeps the work in the requester
}

// tableQuery starts the single-variable query for op over def: no row
// limit, the session's pushdown setting.
func (s *Session) tableQuery(def *fs.FileDef, op accessOp, pred expr.Expr) tableQuery {
	return tableQuery{def: def, op: op, pred: pred, key: expr.ExtractUniqueKey(pred, def.Schema),
		slots: expr.NumParams(pred), limit: -1, pushdown: s.pushdown}
}

// access is the decision for one execution of a tableQuery: what crosses
// the FS-DP interface.
type access struct {
	def           *fs.FileDef
	op            accessOp
	via           accessVia
	pending       bool // the predicate still waits for values: no path is chosen, pred is the template
	requesterSide bool

	rng     keys.Range      // viaScan: the primary-key range
	idx     *fs.IndexDef    // viaProbe: probe idx for val
	val     record.Value    //
	unique  *expr.UniqueKey // viaKey, or pending with the keyed access already decided: the compiled key
	key     []byte          // viaKey: the key, encoded from this execution's values
	pred    expr.Expr       // evaluated at the Disk Process — after a probe or a READ, by the requester
	proj    []int           // opRows: projected at the Disk Process (via scan), cut by the requester (via READ or probe)
	assigns []expr.Assignment
	agg     *fsdp.AggSpec

	budget     int  // stop after this many rows (-1 = read everything)
	budgetAtDP bool // each partition's Disk Process retires its subset at the budget
	unordered  bool
}

// fetched is what an access brought back: rows (opRows), the records
// counted or changed (opCount, opUpdate, opDelete), or the merged
// per-group partial states (opAgg).
type fetched struct {
	// enc holds the rows as the Disk Process encoded them, each the fields
	// of access.proj in proj's order (nil = the whole record) — a scan's
	// unread, a READ's or an index probe's checked and cut by the requester
	// (admit). Nobody has read a value of them: a pass-through SELECT
	// forwards them as they are, every other consumer calls access.decode.
	enc    [][]byte
	n      int
	groups *fsdp.GroupTable
}

// decode is what a consumer that reads values does to fetched rows: each
// encoded row validated and decoded (record.Decode), and a projected one
// re-inflated to full width so bound expressions keep their ordinals.
func (a *access) decode(enc [][]byte) ([]record.Row, error) {
	width := len(a.def.Schema.Fields)
	rows := make([]record.Row, len(enc))
	for i, e := range enc {
		row, err := record.Decode(e)
		if err != nil {
			return nil, err
		}
		if a.proj != nil {
			if len(row) != len(a.proj) {
				return nil, fmt.Errorf("%w: a row of %d fields for a projection of %d", fs.ErrProtocol, len(row), len(a.proj))
			}
			full := make(record.Row, width)
			for j, c := range a.proj {
				full[c] = row[j]
			}
			row = full
		}
		rows[i] = row
	}
	return rows, nil
}

// access substitutes vals into the templates and chooses the access path:
//
//  0. a unique key — decided at compile time — is one message: rows are a
//     READ, and a write that stays at the Disk Process is an UPDATE^KEY or
//     DELETE^KEY. The key is encoded straight from vals; nothing is peeled,
//  1. peel the primary-key range off the predicate (bounded subset),
//  2. else probe a secondary index on an equality conjunct — for rows,
//     and for writes that run requester-side anyway,
//  3. scan — VSBB with DP-side selection/projection when there is a
//     residual predicate or a narrowing projection, RSBB otherwise.
//
// With fewer values than the templates wait for (EXPLAIN of text with
// markers; a join's inner side before an outer row) a predicate that
// holds a slot leaves the choice pending.
func (q *tableQuery) access(ar *fsdp.Arena, vals []record.Value) (access, error) {
	a := access{def: q.def, op: q.op, requesterSide: q.requesterSide,
		assigns: q.assigns, agg: q.agg, budget: -1, unordered: q.unordered}
	pred := q.pred
	if len(vals) >= q.slots {
		var err error
		if a.assigns, err = expr.SubstituteAssignments(q.assigns, vals); err != nil {
			return a, err
		}
		if q.keyed() {
			err = a.byKey(ar, q, vals)
			return a, err
		}
		if pred, err = expr.Substitute(pred, vals); err != nil {
			return a, err
		}
	} else if expr.HasParams(pred) {
		a.pending, a.pred, a.proj = true, pred, q.proj
		if q.keyed() {
			a.unique = q.key
		}
		return a, nil
	}
	a.rng, a.pred = expr.ExtractKeyRange(pred, q.def.Schema)
	if a.rng.Low == nil && a.rng.High == nil && (q.op == opRows || q.requesterSide) {
		if idx, val, ok := indexProbe(q.def, a.pred); ok {
			a.via, a.idx, a.val = viaProbe, idx, val
		}
	}
	if q.op != opRows {
		return a, nil
	}
	if a.via != viaProbe || !q.limitNeedsKeyOrder {
		a.budget = q.limit
	}
	a.proj = q.proj
	switch {
	case a.budget == 0:
		a.via = viaNone
	case a.via == viaScan:
		// Each partition's Disk Process retires its subset after budget
		// qualifying rows, instead of the requester discarding a
		// fully-driven scan's surplus.
		a.budgetAtDP = a.budget > 0 && q.pushdown
	}
	return a, nil
}

// keyed reports whether q's access is by its unique key: rows (a READ),
// or a write that no index maintenance keeps in the requester.
func (q *tableQuery) keyed() bool {
	return q.key != nil && (q.op == opRows || (q.op == opUpdate || q.op == opDelete) && !q.requesterSide)
}

// byKey makes a the keyed access of q's unique key for vals. A READ brings
// the whole record back: the residual predicate and the projection are the
// requester's to apply to it. A keyed write carries the residual to the
// Disk Process, which applies it to the record under the key's lock. A key
// value no key equals (UniqueKey.Key: NULL, a fraction on an INTEGER
// column) and LIMIT 0 want nothing: neither sends a message. The key is
// encoded into the statement's arena (nil: allocated).
func (a *access) byKey(ar *fsdp.Arena, q *tableQuery, vals []record.Value) error {
	key, ok, err := q.key.AppendKey(ar.Free(), vals)
	if err != nil {
		return err
	}
	key = ar.Keep(key)
	if a.pred, err = expr.Substitute(q.key.Residual, vals); err != nil {
		return err
	}
	a.via, a.unique, a.key, a.proj, a.budget = viaKey, q.key, key, q.proj, q.limit
	if !ok || a.budget == 0 {
		a.via = viaNone
	}
	return nil
}

// indexProbe finds an equality conjunct on an indexed column.
func indexProbe(def *fs.FileDef, pred expr.Expr) (*fs.IndexDef, record.Value, bool) {
	for _, conj := range expr.Conjuncts(pred) {
		b, ok := conj.(expr.Binary)
		if !ok || b.Op != expr.OpEQ {
			continue
		}
		fr, isF := b.L.(expr.FieldRef)
		cv, isC := b.R.(expr.Const)
		if !isF || !isC {
			if fr, isF = b.R.(expr.FieldRef); !isF {
				continue
			}
			if cv, isC = b.L.(expr.Const); !isC {
				continue
			}
		}
		for _, idx := range def.Indexes {
			if idx.Column == fr.Index && !cv.V.IsNull() {
				return idx, cv.V, true
			}
		}
	}
	return nil, record.Null, false
}

// vsbb reports whether a scan has anything for the Disk Process to
// evaluate; without a predicate or a projection whole blocks travel (RSBB).
func (a *access) vsbb() bool { return a.pred != nil || a.proj != nil }

// fetch executes the access under tx. az, when non-nil, receives the
// node's actuals, labelled from the same struct describe prints.
func (a *access) fetch(s *Session, tx *tmf.Tx, az *analyzeState) (fetched, error) {
	switch {
	case a.via == viaNone:
		return fetched{}, nil
	case a.via == viaProbe:
		return a.fetchProbe(s, tx, az)
	case a.via == viaKey && a.op == opRows:
		enc, err := a.fetchRead(s, tx, az)
		return fetched{enc: enc}, err
	case a.via == viaKey:
		n, err := a.fetchKeyed(s, tx, az)
		return fetched{n: n}, err
	case a.op == opRows:
		enc, err := a.fetchScan(s, tx, az)
		return fetched{enc: enc}, err
	case a.op == opCount:
		n, st, err := s.fs.Count(tx, a.def, a.rng, a.pred)
		if az != nil && err == nil {
			az.scanNode(fmt.Sprintf("count %s (COUNT^FIRST/NEXT)", a.def.Name), st)
		}
		return fetched{n: n}, err
	case a.op == opAgg:
		st, err := s.fs.Agg(tx, a.def, a.rng, a.pred, a.agg, &s.groups, s.convArenas())
		if az != nil && err == nil {
			az.scanNode(fmt.Sprintf("partial aggregation %s (AGG^FIRST/NEXT)", a.def.Name), st).Entries = true
		}
		return fetched{groups: &s.groups}, err
	}
	// UPDATE / DELETE over the range. The File System subcontracts the
	// whole subset to the Disk Processes, or — requesterSide — scans it
	// (VSBB, exclusive) and maintains the indexes record by record.
	var n int
	var st fs.ScanStats
	var err error
	if a.op == opUpdate {
		n, st, err = s.fs.UpdateSubset(tx, a.def, a.rng, a.pred, a.assigns)
	} else {
		n, st, err = s.fs.DeleteSubset(tx, a.def, a.rng, a.pred)
	}
	verb := a.op.verb()
	if err != nil || az == nil {
		return fetched{n: n}, err
	}
	if a.requesterSide {
		// The qualifying scan and the point writes ran un-traced.
		az.nodes = append(az.nodes, NodeActuals{Label: verb + " requester-side (scan + index maintenance)", Affected: n})
	} else {
		az.scanNode(strings.ToUpper(verb)+"^SUBSET^FIRST/NEXT pushdown", st)
		az.nodes[len(az.nodes)-1].Affected = n
	}
	return fetched{n: n}, nil
}

// fetchRows is fetch for a consumer that reads the rows' values.
func (a *access) fetchRows(s *Session, tx *tmf.Tx, az *analyzeState) ([]record.Row, error) {
	f, err := a.fetch(s, tx, az)
	if err != nil {
		return nil, err
	}
	return a.decode(f.enc)
}

// fetchScan drives GET^FIRST/NEXT over the range and collects the rows
// as they came. The conversations run in the statement's arenas, and the
// rows are listed in the statement's row list (Session.rows), after what
// the statement's earlier scans listed there: the list, like the rows,
// is valid until the next statement starts.
func (a *access) fetchScan(s *Session, tx *tmf.Tx, az *analyzeState) ([][]byte, error) {
	spec := fs.SelectSpec{Mode: fs.ModeRSBB, Range: a.rng, Unordered: a.unordered, Arenas: s.convArenas()}
	if a.vsbb() {
		spec.Mode, spec.Pred, spec.Proj = fs.ModeVSBB, a.pred, a.proj
	}
	if a.budgetAtDP {
		spec.ScanLimit = uint32(a.budget)
	}
	rows := s.fs.Select(tx, a.def, spec)
	// Close releases the parallel engine's scanner goroutines (and any
	// open DP-side subset control blocks) when the budget ends the scan
	// early; after a full drain it is a no-op.
	defer rows.Close()
	from := len(s.rows)
	for a.budget < 0 || len(s.rows)-from < a.budget {
		enc, _, ok := rows.NextRaw()
		if !ok {
			break
		}
		s.rows = append(s.rows, enc)
	}
	var out [][]byte
	if len(s.rows) > from {
		out = s.rows[from:len(s.rows):len(s.rows)]
	}
	err := rows.Err()
	if az != nil && err == nil {
		rows.Close() // settle the parallel engine before reading stats
		az.scanNode(fmt.Sprintf("scan %s (%s)", a.def.Name, spec.Mode), rows.Stats())
	}
	return out, err
}

// fetchRead sends the one READ. Under a transaction the Disk Process
// locks the key before it looks, found or not. The READ, its reply and
// the row are the statement's (Session.arena), and so is the one-row list
// they come back in, until the session's next READ.
func (a *access) fetchRead(s *Session, tx *tmf.Tx, az *analyzeState) ([][]byte, error) {
	from := az.mark(s)
	var out [][]byte
	enc, err := s.fs.ReadRaw(&s.arena, tx, a.def, a.key, false)
	switch {
	case errors.Is(err, fs.ErrNotFound):
	case err != nil:
		return nil, err
	default:
		rec, keep, err := a.admit(expr.Compile(a.pred), &s.view, &s.arena, enc)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(s.read[:0], rec)
		}
	}
	if az != nil { // the label is built only when something collects it
		az.deltaNode(fmt.Sprintf("read %s (READ)", a.def.Name), from, len(out)).RowsExamined = 1
	}
	return out, nil
}

// admit is the requester's look at a whole record the Disk Process sent
// back unjudged — a READ's, an index probe's. The record is validated
// whole where it lies (v.Reset) before the residual predicate, compiled
// (prog), reads a field of it or the projection cuts one out
// (View.AppendRow) into ar (nil: allocated). keep says the predicate
// accepted it.
func (a *access) admit(prog *expr.Program, v *record.View, ar *fsdp.Arena, rec []byte) (_ []byte, keep bool, err error) {
	if err := v.Reset(rec); err != nil {
		return nil, false, err
	}
	if keep, err = prog.Satisfied(v); err != nil || !keep || a.proj == nil {
		return rec, keep, err
	}
	// Distinct fields of the record: never longer than it is.
	rec, err = v.AppendRow(slices.Grow(ar.Free(), len(rec)), a.proj)
	return ar.Keep(rec), err == nil, err
}

// keyKind is the FS-DP request of a keyed write.
func (a *access) keyKind() fsdp.Kind {
	if a.op == opUpdate {
		return fsdp.KUpdateKey
	}
	return fsdp.KDeleteKey
}

// fetchKeyed sends the one keyed write: the key, the residual predicate
// and, for an UPDATE, the SET list. The Disk Process locks the key, looks
// at the record under the lock, and changes it there — or leaves it, and
// the statement affects no row.
func (a *access) fetchKeyed(s *Session, tx *tmf.Tx, az *analyzeState) (int, error) {
	from := az.mark(s)
	var n int
	var err error
	if a.op == opUpdate {
		n, err = s.fs.UpdateKey(&s.arena, tx, a.def, a.key, a.pred, a.assigns)
	} else {
		n, err = s.fs.DeleteKey(&s.arena, tx, a.def, a.key, a.pred)
	}
	if err != nil {
		return 0, err
	}
	if az != nil {
		az.deltaNode(fmt.Sprintf("%s %s (%s)", a.op.verb(), a.def.Name, a.keyKind()), from, 0).Affected = n
	}
	return n, nil
}

// fetchProbe reads the records matching the probe value through the
// index, admits them by the full predicate in the requester, and — for a
// write — decodes the ones it keeps and applies the write to each, with
// index maintenance.
func (a *access) fetchProbe(s *Session, tx *tmf.Tx, az *analyzeState) (fetched, error) {
	from := az.mark(s)
	recs, err := s.fs.ReadByIndex(tx, a.def, a.idx, a.val)
	if err != nil {
		return fetched{}, err
	}
	prog := expr.Compile(a.pred)
	var v record.View
	var out [][]byte
	for _, rec := range recs {
		if a.budget >= 0 && len(out) >= a.budget {
			break
		}
		rec, keep, err := a.admit(prog, &v, nil, rec)
		if err != nil {
			return fetched{}, err
		}
		if keep {
			out = append(out, rec)
		}
	}
	az.deltaNode(fmt.Sprintf("index probe %s.%s", a.def.Name, a.idx.Name), from, len(out))
	if a.op == opRows {
		return fetched{enc: out}, nil
	}
	rows, err := a.decode(out)
	if err != nil {
		return fetched{}, err
	}
	t0 := time.Now()
	for _, row := range rows {
		key := a.def.Schema.Key(row)
		if a.op == opDelete {
			err = s.fs.Delete(tx, a.def, key)
		} else {
			var newRow record.Row
			if newRow, err = expr.ApplyAssignments(row, a.assigns); err == nil {
				a.def.Schema.Coerce(newRow)
				err = s.fs.Update(tx, a.def, key, newRow)
			}
		}
		if err != nil {
			return fetched{}, err
		}
	}
	if az != nil {
		az.nodes = append(az.nodes, NodeActuals{
			Label:    a.op.verb() + " requester-side (index maintenance)",
			Affected: len(rows), Wall: time.Since(t0),
		})
	}
	return fetched{n: len(rows)}, nil
}
