package nsqlclient

import (
	"errors"
	"sync"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// Prepare compiles stmt on the remote database and returns its server-
// side handle and parameter count. The free function mirrors Exec: the
// same call works over the in-process transport and the TCP pool.
func Prepare(t msg.Transport, stmt string) (handle uint64, nParams int, err error) {
	var reply nsqlwire.Reply
	if err := doReq(t, &nsqlwire.Request{Op: nsqlwire.OpPrepare, Arg: stmt}, &reply); err != nil {
		return 0, 0, err
	}
	return reply.Handle, int(reply.Affected), nil
}

// Execute runs a prepared statement by handle with the given parameter
// vector. A CodeStaleHandle reply surfaces as an error matching
// errors.Is(err, nsqlwire.ErrStaleHandle); callers re-prepare (Stmt does
// this automatically).
func Execute(t msg.Transport, handle uint64, args ...record.Value) (*sql.Result, error) {
	var reply nsqlwire.Reply
	if err := doReq(t, &nsqlwire.Request{Op: nsqlwire.OpExecute, Handle: handle, Params: args}, &reply); err != nil {
		return nil, err
	}
	return sqlResult(&reply), nil
}

// CloseStmt discards a server-side statement handle.
func CloseStmt(t msg.Transport, handle uint64) error {
	return doReq(t, &nsqlwire.Request{Op: nsqlwire.OpCloseStmt, Handle: handle}, new(nsqlwire.Reply))
}

// A Stmt is a client-side prepared statement: SQL text plus the server
// handle it last prepared to. Exec re-prepares transparently when the
// server no longer knows the handle (restart, handle-table eviction) —
// the statement text is the durable identity, the handle just a hint.
// Safe for concurrent use.
type Stmt struct {
	pool *Pool
	sql  string

	mu      sync.Mutex
	handle  uint64
	nParams int
}

// Prepare compiles sql on the remote database, caching the resulting
// statement per pool: preparing the same text twice returns the same
// *Stmt without another round trip.
func (p *Pool) Prepare(sql string) (*Stmt, error) {
	p.stmtMu.Lock()
	st, ok := p.stmts[sql]
	p.stmtMu.Unlock()
	if ok {
		return st, nil
	}
	handle, nParams, err := Prepare(p, sql)
	if err != nil {
		return nil, err
	}
	st = &Stmt{pool: p, sql: sql, handle: handle, nParams: nParams}
	p.stmtMu.Lock()
	if prev, ok := p.stmts[sql]; ok {
		st = prev // lost a prepare race: keep the first, ours gets evicted server-side
	} else {
		p.stmts[sql] = st
	}
	p.stmtMu.Unlock()
	return st, nil
}

// NumParams returns the number of parameter markers the statement takes.
func (s *Stmt) NumParams() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nParams
}

// Exec runs the prepared statement with the given arguments. If the
// server reports the handle stale, Exec re-prepares once and retries —
// invisible to the caller beyond one extra round trip.
func (s *Stmt) Exec(args ...record.Value) (*sql.Result, error) {
	s.mu.Lock()
	handle := s.handle
	s.mu.Unlock()
	res, err := Execute(s.pool, handle, args...)
	if err == nil || !errors.Is(err, nsqlwire.ErrStaleHandle) {
		return res, err
	}
	newHandle, nParams, err := Prepare(s.pool, s.sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.handle = newHandle
	s.nParams = nParams
	s.mu.Unlock()
	return Execute(s.pool, newHandle, args...)
}

// Close discards the server-side handle and drops the statement from
// the pool's cache.
func (s *Stmt) Close() error {
	s.pool.stmtMu.Lock()
	if s.pool.stmts[s.sql] == s {
		delete(s.pool.stmts, s.sql)
	}
	s.pool.stmtMu.Unlock()
	s.mu.Lock()
	handle := s.handle
	s.mu.Unlock()
	return CloseStmt(s.pool, handle)
}
