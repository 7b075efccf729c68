package nonstopsql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/sql"
)

// ServeSQL registers the "$SQL" endpoint on the cluster's message
// network: the process remote clients converse with to execute
// statements. Each request borrows a session from a fixed pool of
// workers sessions (spread across the network's processors) and returns
// it when the reply is encoded, so requests are independent — autocommit
// only; BEGIN/COMMIT/ROLLBACK are refused over the wire because the
// next statement of a conversation would land on a different pooled
// session anyway.
//
// The endpoint is ordinary messaging: it works over the in-process
// transport too (a msg.Client can Send to "$SQL" directly), which is
// what the differential transport tests exploit. Open calls ServeSQL
// automatically when Config.Listen is set. The operator's commands —
// crash and restart a volume, reset the counters — are served only with
// Config.AdminOps.
func (db *Database) ServeSQL(workers int) error {
	if workers <= 0 {
		workers = 8
	}
	pool := make(chan *Session, workers)
	for i := 0; i < workers; i++ {
		node := i % db.cfg.Nodes
		cpu := (i / db.cfg.Nodes) % db.cluster.CPUsPerNode()
		pool <- db.Session(node, cpu)
	}
	db.sessPool = pool
	_, err := db.cluster.Net.Register(nsqlwire.ServerName, msg.ProcessorID{Node: 0, CPU: 0}, workers, db.sqlHandler)
	if err == nil {
		db.servingSQL = true
	}
	return err
}

// Addr returns the TCP address the database is served on, or "" when
// Config.Listen was not set. With Listen ":0" this is where the chosen
// ephemeral port shows up.
func (db *Database) Addr() string { return db.cluster.Addr() }

// Drain gracefully quiesces the TCP front door: stop accepting
// connections, refuse new request frames, and answer the requests
// already in flight, waiting at most timeout for them (0 = wait
// forever). Call before Close for a clean shutdown; a no-op when the
// database is not being served.
func (db *Database) Drain(timeout time.Duration) error { return db.cluster.Drain(timeout) }

// WireStats snapshots the TCP transport counters (zero value when the
// database is not being served).
func (db *Database) WireStats() obs.WireStats {
	if ws := db.cluster.WireServer(); ws != nil {
		return ws.Stats()
	}
	return obs.WireStats{}
}

// sqlHandler is the "$SQL" process: decode one operation, run it
// against a pooled session, append the encoded outcome to the sender's
// buffer. Application-level failures travel inside the reply
// (Reply.Err); only transport-level trouble becomes a message error. The
// request is decoded into a pooled Request, whose parameter row is
// reused, and the reply is built on the stack: a point read served here
// allocates only its Result.
func (db *Database) sqlHandler(reqb, out []byte) []byte {
	q, _ := sqlRequests.Get().(*nsqlwire.Request)
	if q == nil {
		q = new(nsqlwire.Request)
	}
	var reply nsqlwire.Reply
	if err := nsqlwire.DecodeRequestInto(q, reqb); err != nil {
		reply.Err = err.Error()
		out = nsqlwire.AppendReply(out, &reply)
	} else {
		out = db.serveOp(q, &reply, out)
	}
	sqlRequests.Put(q)
	return out
}

// sqlRequests holds the Requests "$SQL" decodes into, one per request in
// service.
var sqlRequests sync.Pool

// errAdminOps refuses an operator's command on a server that was not
// started to take them.
const errAdminOps = "admin operations (crash, restart, reset stats) are not enabled on this server: start nsqld with -admin"

// serveOp runs one operation and appends its encoded reply to out. A
// statement's reply is encoded while its session is still held: a
// pass-through result's rows may lie in the session's statement arena,
// which the session's next statement takes back.
func (db *Database) serveOp(q *nsqlwire.Request, reply *nsqlwire.Reply, out []byte) []byte {
	switch q.Op {
	case nsqlwire.OpPing:
		// Nothing to do: an empty ok reply is the answer.
	case nsqlwire.OpExec:
		if refuseTxControl(q.Arg, reply) {
			break
		}
		s := db.session()
		res, err := s.ExecEncoded(q.Arg)
		out = nsqlwire.AppendReply(out, replyResult(reply, res, err))
		db.release(s)
		return out
	case nsqlwire.OpPrepare:
		if refuseTxControl(q.Arg, reply) {
			break
		}
		s := db.session()
		p, err := s.Prepare(q.Arg)
		db.release(s)
		if err != nil {
			replyErr(reply, err)
			break
		}
		reply.Handle = db.stmts.put(p)
		reply.Affected = uint64(p.NumParams())
	case nsqlwire.OpExecute:
		p, ok := db.stmts.get(q.Handle)
		if !ok {
			reply.Err = fmt.Sprintf("prepared statement handle %d is unknown or was evicted", q.Handle)
			reply.Code = nsqlwire.CodeStaleHandle
			break
		}
		s := db.session()
		res, err := s.ExecPreparedEncoded(p, q.Params...)
		out = nsqlwire.AppendReply(out, replyResult(reply, res, err))
		db.release(s)
		return out
	case nsqlwire.OpCloseStmt:
		db.stmts.close(q.Handle)
	case nsqlwire.OpExplain, nsqlwire.OpExplainAnalyze:
		s := db.session()
		var text string
		var err error
		if q.Op == nsqlwire.OpExplain {
			text, err = s.Explain(q.Arg)
		} else {
			text, err = s.ExplainAnalyze(q.Arg)
		}
		db.release(s)
		if err != nil {
			replyErr(reply, err)
			break
		}
		reply.Text = text
	case nsqlwire.OpTables:
		if tables := db.Catalog().Tables(); len(tables) > 0 {
			reply.Text = strings.Join(tables, "\n") + "\n"
		}
	case nsqlwire.OpDescribe:
		text, err := db.Catalog().Describe(q.Arg)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.Text = text
	case nsqlwire.OpStats:
		reply.Text = FormatStats(db.Stats())
	case nsqlwire.OpResetStats, nsqlwire.OpCrash, nsqlwire.OpRestart:
		if !db.cfg.AdminOps {
			reply.Err, reply.Code = errAdminOps, nsqlwire.CodeServer
			break
		}
		var err error
		switch q.Op {
		case nsqlwire.OpResetStats:
			db.ResetStats()
		case nsqlwire.OpCrash:
			err = db.CrashVolume(q.Arg)
		default:
			err = db.RestartVolume(q.Arg, -1)
		}
		if err != nil {
			reply.Err = err.Error()
		}
	default:
		reply.Err = "unknown operation"
	}
	return nsqlwire.AppendReply(out, reply)
}

// session takes a session from the endpoint's pool, waiting for one.
func (db *Database) session() *Session { return <-db.sessPool }

// release gives a session back. A session is never returned to the pool
// holding an open transaction: whatever the request left behind is rolled
// back first, so one request's failure cannot poison the next.
func (db *Database) release(s *Session) {
	if s.InTx() {
		_, _ = s.Exec("ROLLBACK")
	}
	db.sessPool <- s
}

// firstKeyword returns the statement's leading keyword, uppercased.
func firstKeyword(stmt string) string {
	fields := strings.Fields(stmt)
	if len(fields) == 0 {
		return ""
	}
	return strings.ToUpper(strings.TrimRight(fields[0], ";"))
}

// refuseTxControl rejects transaction-control statements, which cannot
// work over pooled per-request sessions. Reports whether it refused.
func refuseTxControl(stmt string, reply *nsqlwire.Reply) bool {
	switch firstKeyword(stmt) {
	case "BEGIN", "COMMIT", "ROLLBACK":
		reply.Err = "transaction control is not available over the wire: remote sessions are pooled per request (autocommit)"
		reply.Code = nsqlwire.CodeBadStatement
		return true
	}
	return false
}

// replyResult fills the reply from a statement's outcome and returns it.
// A pass-through SELECT's rows travel as the Disk Processes encoded them
// (Encoded): the endpoint reads none of them.
func replyResult(reply *nsqlwire.Reply, res *Result, err error) *nsqlwire.Reply {
	if err != nil {
		replyErr(reply, err)
		return reply
	}
	reply.Columns = res.Columns
	reply.Rows, reply.Encoded = res.Rows, res.Encoded
	reply.Affected = uint64(res.Affected)
	return reply
}

// replyErr fills the reply's error text and class: statement-fault
// errors (parse, bind, wrong parameter count) are CodeBadStatement so
// remote callers can errors.Is them; everything else is CodeServer.
func replyErr(reply *nsqlwire.Reply, err error) {
	reply.Err = err.Error()
	if errors.Is(err, sql.ErrBadStatement) {
		reply.Code = nsqlwire.CodeBadStatement
	} else {
		reply.Code = nsqlwire.CodeServer
	}
}

// FormatStats renders an aggregate Stats snapshot as the summary nsqlsh
// prints for \stats. A served database adds the socket's line: frames
// each way and how many of them shared a write (the frame flush of
// wire.Writer at work), counted since the listener opened.
func FormatStats(s Stats) string {
	out := fmt.Sprintf("messages=%d (%d KB, %d remote)  disk reads=%d writes=%d blocks=%d  audit=%d KB in %d flushes  commits=%d\nplan cache: hits=%d misses=%d (%.0f%%) invalidations=%d evictions=%d entries=%d\n",
		s.Messages, s.MessageBytes/1024, s.RemoteMsgs,
		s.DiskReads, s.DiskWrites, s.BlocksRead,
		s.AuditBytes/1024, s.AuditFlushes, s.Commits,
		s.PlanCache.Hits, s.PlanCache.Misses, 100*s.PlanCache.HitRate(),
		s.PlanCache.Invalidations, s.PlanCache.Evictions, s.PlanCache.Entries)
	if w := s.Wire; w.Conns > 0 {
		out += fmt.Sprintf("wire: frames in=%d out=%d  reads=%d writes=%d (%.2f frames/write)  conns=%d\n",
			w.FramesIn, w.FramesOut, w.Reads, w.Writes, w.FramesPerWrite(), w.Conns-w.Disconnects)
	}
	return out
}
