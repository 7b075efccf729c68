package sql

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nonstopsql/internal/record"
)

// ErrBadStatement marks statement-compilation failures the client is at
// fault for — parse errors, unknown tables or columns, wrong parameter
// counts. Wire servers distinguish these from server-fault execution
// errors so remote callers can errors.Is on the class.
var ErrBadStatement = errors.New("sql: bad statement")

// badStatementError tags an error as client-fault without changing its
// text: Error() is the original message, while Unwrap exposes both
// ErrBadStatement and the cause to errors.Is/As.
type badStatementError struct{ err error }

func badStatement(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrBadStatement) {
		return err
	}
	return &badStatementError{err: err}
}

func (e *badStatementError) Error() string   { return e.err.Error() }
func (e *badStatementError) Unwrap() []error { return []error{ErrBadStatement, e.err} }

// A Prepared is a compiled statement: parsed once, bound once, planned
// once, then executed any number of times with a parameter vector. The
// compilation pins the catalog version it ran against; executing after
// DDL transparently recompiles through the shared plan cache. Prepared
// values are immutable after construction (the hit counter aside), so
// one compilation is safely shared by every session and every cache
// reader.
type Prepared struct {
	SQL string

	key       string // plan-cache key (normalized text + pushdown variant)
	nParams   int
	version   uint64 // catalog version compiled against
	pushdown  bool   // session pushdown setting compiled under
	plan      stmtPlan
	cacheable bool
	hits      atomic.Uint64 // executions served by this compilation
}

// NumParams returns the number of parameter markers the statement takes.
func (p *Prepared) NumParams() int { return p.nParams }

// Hits returns how many executions this compilation has served beyond
// its first (the EXPLAIN `plan: cached (hits=N)` annotation).
func (p *Prepared) Hits() uint64 { return p.hits.Load() }

// stmtPlan is an executable compiled plan. run receives the parameter
// vector (nil for parameterless statements) and the optional EXPLAIN
// ANALYZE collector.
type stmtPlan interface {
	run(s *Session, params []record.Value, az *analyzeState) (*Result, error)
}

// Prepare compiles src into a reusable statement, consulting the shared
// plan cache first. Compilation failures are client-fault: the returned
// error matches errors.Is(err, ErrBadStatement).
func (s *Session) Prepare(src string) (*Prepared, error) {
	return s.prepared(src)
}

// prepared is the cache-aware compilation path shared by Exec, Prepare,
// and stale-plan re-preparation. The catalog version is read before any
// name resolution so a concurrent DDL can only leave the entry pinned
// to an older version (and thus invalidated), never validate a plan
// compiled against a newer catalog than its pin.
func (s *Session) prepared(src string) (*Prepared, error) {
	key := planKey(src, s.pushdown)
	version := s.cat.Version()
	if p, ok := s.cat.plans.get(key, version); ok {
		return p, nil
	}
	p, err := s.compile(src, key, version)
	if err != nil {
		return nil, err
	}
	if p.cacheable {
		s.cat.plans.put(key, p)
	}
	return p, nil
}

// compile parses, binds, and plans one statement. SELECT (one table or
// two), UPDATE, DELETE and INSERT get compiled plans — the only
// description of the statement from here on: execution, EXPLAIN and
// EXPLAIN ANALYZE all read it. Transaction control and DDL execute from
// the AST. BEGIN, COMMIT and ROLLBACK are cached like any statement — a
// transaction's two are lexed and parsed once, not on every Exec — while
// DDL, which changes the catalog the cache is versioned by, never is.
func (s *Session) compile(src, key string, version uint64) (*Prepared, error) {
	stmt, nParams, err := parseStmt(src)
	if err != nil {
		return nil, badStatement(err)
	}
	p := &Prepared{
		SQL:       src,
		key:       key,
		nParams:   nParams,
		version:   version,
		pushdown:  s.pushdown,
		cacheable: true,
	}
	switch st := stmt.(type) {
	case Insert:
		p.plan, err = s.compileInsert(st)
	case Update:
		p.plan, err = s.compileUpdate(st)
	case Delete:
		p.plan, err = s.compileDelete(st)
	case Select:
		p.plan, err = s.compileSelect(st, nParams)
	default:
		if nParams > 0 {
			err = fmt.Errorf("sql: parameter markers are not allowed in %s", stmtName(stmt))
		}
		p.plan = controlPlan{stmt: stmt}
		switch stmt.(type) {
		case Begin, Commit, Rollback:
		default:
			p.cacheable = false
		}
	}
	if err != nil {
		return nil, badStatement(err)
	}
	return p, nil
}

// ExecPrepared executes a compiled statement with the given parameter
// vector. The plan is schema-version checked first: a statement
// prepared before a DDL (or under a different pushdown setting) is
// transparently re-prepared through the shared cache, so an EXECUTE
// never runs a plan compiled against an older catalog version than the
// one it observes.
func (s *Session) ExecPrepared(p *Prepared, params ...record.Value) (*Result, error) {
	return decoded(s.ExecPreparedEncoded(p, params...))
}

// ExecPreparedEncoded is ExecPrepared for a caller that forwards the
// result's rows (see ExecEncoded).
func (s *Session) ExecPreparedEncoded(p *Prepared, params ...record.Value) (*Result, error) {
	p, err := s.current(p)
	if err != nil {
		return nil, err
	}
	return s.execCompiled(p, params, nil)
}

// current returns a compilation of p's text this session may run now: p
// itself, or its transparent re-preparation through the shared cache.
func (s *Session) current(p *Prepared) (*Prepared, error) {
	if p.version == s.cat.Version() && p.pushdown == s.pushdown {
		// Plan reuse without a cache lookup — still a plan-cache hit in
		// the counters' terms (an execution served by a reused
		// compilation).
		s.cat.plans.hit(p)
		return p, nil
	}
	return s.prepared(p.SQL)
}

// execCompiled runs an already-validated compilation: a statement, so
// the last one's arena bytes are taken back first.
func (s *Session) execCompiled(p *Prepared, params []record.Value, az *analyzeState) (*Result, error) {
	s.newStatement()
	if len(params) != p.nParams {
		return nil, badStatement(fmt.Errorf("sql: statement wants %d parameter(s), got %d", p.nParams, len(params)))
	}
	return p.plan.run(s, params, az)
}

// stmtName names a statement kind for messages.
func stmtName(stmt Statement) string {
	switch stmt.(type) {
	case CreateTable:
		return "CREATE TABLE"
	case CreateIndex:
		return "CREATE INDEX"
	case DropTable:
		return "DROP TABLE"
	case Begin:
		return "BEGIN"
	case Commit:
		return "COMMIT"
	case Rollback:
		return "ROLLBACK"
	}
	return fmt.Sprintf("%T", stmt)
}
