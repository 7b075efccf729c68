package nsqlclient

import (
	"errors"
	"sync"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/poison"
	"nonstopsql/internal/sql"
)

// The SQL operations are free functions over msg.Transport rather than
// Pool methods alone, so the exact same call sites run against the
// in-process transport (a msg.Client sending to "$SQL" directly) and
// the TCP pool — which is how the differential transport tests compare
// the two byte for byte. Pool carries thin wrappers for the common ops.

// do runs one nsqlwire operation over t and returns the decoded reply.
// A transport-level failure comes back as the Send error; an
// application-level failure (Reply.Err) becomes an error whose text is
// the server's message, tagged with the reply's error class when it has
// one — errors.Is(err, nsqlwire.ErrBadStatement) distinguishes "your
// statement is broken" from "the server could not run it", and
// ErrStaleHandle drives transparent re-preparation.
func do(t msg.Transport, op nsqlwire.Op, arg string) (*nsqlwire.Reply, error) {
	reply := new(nsqlwire.Reply)
	return reply, doReq(t, &nsqlwire.Request{Op: op, Arg: arg}, reply)
}

// doReq runs one operation, decoding its reply into reply. The request
// is encoded into a pooled buffer and the reply appended behind it; the
// decoded reply aliases none of it, so the buffer goes back to the pool
// as soon as the reply is decoded.
func doReq(t msg.Transport, q *nsqlwire.Request, reply *nsqlwire.Reply) error {
	bp := payloads.Get().(*[]byte)
	req := nsqlwire.AppendRequest((*bp)[:0], q)
	data, err := t.SendAppend(nsqlwire.ServerName, req, req[len(req):])
	if err == nil {
		err = nsqlwire.DecodeReplyInto(reply, data)
	}
	// A reply that did not fit behind the request was allocated apart: the
	// buffer pooled for next time holds both.
	switch need := len(req) + len(data); {
	case cap(req) >= need:
	case cap(data) >= need:
		req = data
	default:
		req = make([]byte, 0, need)
	}
	if cap(req) <= maxPooledPayload {
		poison.Fill(req[:cap(req)])
		*bp = req[:0]
		payloads.Put(bp)
	}
	if err != nil {
		return err
	}
	if reply.Err != "" {
		switch reply.Code {
		case nsqlwire.CodeBadStatement:
			return &remoteError{msg: reply.Err, kind: nsqlwire.ErrBadStatement}
		case nsqlwire.CodeStaleHandle:
			return &remoteError{msg: reply.Err, kind: nsqlwire.ErrStaleHandle}
		default:
			return errors.New(reply.Err)
		}
	}
	return nil
}

// payloads holds the buffers doReq encodes requests into and receives
// replies in; a buffer larger than maxPooledPayload is left to the
// collector rather than pinned.
var payloads = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledPayload = 64 << 10

// remoteError carries a server-reported failure: Error() is exactly the
// server's message, Unwrap exposes the error class sentinel.
type remoteError struct {
	msg  string
	kind error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.kind }

// Exec executes one SQL statement (autocommit) on the remote database.
func Exec(t msg.Transport, stmt string) (*sql.Result, error) {
	reply, err := do(t, nsqlwire.OpExec, stmt)
	if err != nil {
		return nil, err
	}
	return sqlResult(reply), nil
}

// sqlResult hands a decoded reply's columns and rows to the caller: the
// reply was decoded for this call alone, so nothing is copied.
func sqlResult(reply *nsqlwire.Reply) *sql.Result {
	return &sql.Result{Columns: reply.Columns, Rows: reply.Rows, Affected: int(reply.Affected)}
}

// Explain renders the statement's plan without running it.
func Explain(t msg.Transport, stmt string) (string, error) {
	return textOp(t, nsqlwire.OpExplain, stmt)
}

// ExplainAnalyze runs the statement and renders plan plus actuals.
func ExplainAnalyze(t msg.Transport, stmt string) (string, error) {
	return textOp(t, nsqlwire.OpExplainAnalyze, stmt)
}

// Ping round-trips an empty operation (liveness, connection warm-up).
func Ping(t msg.Transport) error {
	_, err := do(t, nsqlwire.OpPing, "")
	return err
}

// Tables lists the catalog's tables, one name per line.
func Tables(t msg.Transport) (string, error) { return textOp(t, nsqlwire.OpTables, "") }

// Describe renders one table's definition.
func Describe(t msg.Transport, table string) (string, error) {
	return textOp(t, nsqlwire.OpDescribe, table)
}

// StatsText renders the remote database's cumulative counters.
func StatsText(t msg.Transport) (string, error) { return textOp(t, nsqlwire.OpStats, "") }

// ResetStats zeroes the remote database's counters.
func ResetStats(t msg.Transport) error {
	_, err := do(t, nsqlwire.OpResetStats, "")
	return err
}

// Crash crashes the named volume's Disk Process (fault injection).
func Crash(t msg.Transport, volume string) error {
	_, err := do(t, nsqlwire.OpCrash, volume)
	return err
}

// Restart recovers and restarts the named volume's Disk Process.
func Restart(t msg.Transport, volume string) error {
	_, err := do(t, nsqlwire.OpRestart, volume)
	return err
}

func textOp(t msg.Transport, op nsqlwire.Op, arg string) (string, error) {
	reply, err := do(t, op, arg)
	if err != nil {
		return "", err
	}
	return reply.Text, nil
}

// Exec executes one SQL statement (autocommit) on the pool's database.
func (p *Pool) Exec(stmt string) (*sql.Result, error) { return Exec(p, stmt) }

// Explain renders the statement's plan without running it.
func (p *Pool) Explain(stmt string) (string, error) { return Explain(p, stmt) }

// ExplainAnalyze runs the statement and renders plan plus actuals.
func (p *Pool) ExplainAnalyze(stmt string) (string, error) { return ExplainAnalyze(p, stmt) }

// Ping round-trips an empty operation.
func (p *Pool) Ping() error { return Ping(p) }
