package nonstopsql

import (
	"errors"
	"fmt"
	"strings"
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
// it when the reply is built, so requests are independent — autocommit
// only; BEGIN/COMMIT/ROLLBACK are refused over the wire because the
// next statement of a conversation would land on a different pooled
// session anyway.
//
// The endpoint is ordinary messaging: it works over the in-process
// transport too (a msg.Client can Send to "$SQL" directly), which is
// what the differential transport tests exploit. Open calls ServeSQL
// automatically when Config.Listen is set.
func (db *Database) ServeSQL(workers int) error {
	if workers <= 0 {
		workers = 8
	}
	pool := make(chan *Session, workers)
	for i := 0; i < workers; i++ {
		node := i % db.cfg.Nodes
		cpu := (i / db.cfg.Nodes) % db.cfg.CPUsPerNode
		pool <- db.Session(node, cpu)
	}
	db.sessPool = pool
	_, err := db.cluster.Net.StartServer(nsqlwire.ServerName, msg.ProcessorID{Node: 0, CPU: 0}, workers, db.sqlHandler)
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
// against a pooled session, encode the outcome. Application-level
// failures travel inside the reply (Reply.Err); only transport-level
// trouble becomes a message error.
func (db *Database) sqlHandler(reqb []byte) []byte {
	reply := &nsqlwire.Reply{}
	q, err := nsqlwire.DecodeRequest(reqb)
	if err != nil {
		reply.Err = err.Error()
		return nsqlwire.EncodeReply(reply)
	}
	db.serveOp(q, reply)
	return nsqlwire.EncodeReply(reply)
}

func (db *Database) serveOp(q *nsqlwire.Request, reply *nsqlwire.Reply) {
	switch q.Op {
	case nsqlwire.OpPing:
		// Nothing to do: an empty ok reply is the answer.
	case nsqlwire.OpExec:
		if refuseTxControl(q.Arg, reply) {
			return
		}
		res, err := db.withSession(func(s *Session) (*Result, error) { return s.ExecEncoded(q.Arg) })
		replyResult(reply, res, err)
	case nsqlwire.OpPrepare:
		if refuseTxControl(q.Arg, reply) {
			return
		}
		var p *sql.Prepared
		_, err := db.withSession(func(s *Session) (*Result, error) {
			var err error
			p, err = s.Prepare(q.Arg)
			return nil, err
		})
		if err != nil {
			replyErr(reply, err)
			return
		}
		reply.Handle = db.stmts.put(p)
		reply.Affected = uint64(p.NumParams())
	case nsqlwire.OpExecute:
		p, ok := db.stmts.get(q.Handle)
		if !ok {
			reply.Err = fmt.Sprintf("prepared statement handle %d is unknown or was evicted", q.Handle)
			reply.Code = nsqlwire.CodeStaleHandle
			return
		}
		res, err := db.withSession(func(s *Session) (*Result, error) {
			return s.ExecPreparedEncoded(p, q.Params...)
		})
		replyResult(reply, res, err)
	case nsqlwire.OpCloseStmt:
		db.stmts.close(q.Handle)
	case nsqlwire.OpExplain:
		db.textOp(reply, func(s *Session) (string, error) { return s.Explain(q.Arg) })
	case nsqlwire.OpExplainAnalyze:
		db.textOp(reply, func(s *Session) (string, error) { return s.ExplainAnalyze(q.Arg) })
	case nsqlwire.OpTables:
		if tables := db.Catalog().Tables(); len(tables) > 0 {
			reply.Text = strings.Join(tables, "\n") + "\n"
		}
	case nsqlwire.OpDescribe:
		out, err := db.Catalog().Describe(q.Arg)
		if err != nil {
			reply.Err = err.Error()
			return
		}
		reply.Text = out
	case nsqlwire.OpStats:
		reply.Text = FormatStats(db.Stats())
	case nsqlwire.OpResetStats:
		db.ResetStats()
	case nsqlwire.OpCrash:
		if err := db.CrashVolume(q.Arg); err != nil {
			reply.Err = err.Error()
		}
	case nsqlwire.OpRestart:
		if err := db.RestartVolume(q.Arg, -1); err != nil {
			reply.Err = err.Error()
		}
	default:
		reply.Err = "unknown operation"
	}
}

// withSession runs fn on a pooled session. A session is never returned
// to the pool holding an open transaction: whatever fn left behind is
// rolled back first, so one request's failure cannot poison the next.
func (db *Database) withSession(fn func(*Session) (*Result, error)) (*Result, error) {
	s := <-db.sessPool
	res, err := fn(s)
	if s.InTx() {
		_, _ = s.Exec("ROLLBACK")
	}
	db.sessPool <- s
	return res, err
}

func (db *Database) textOp(reply *nsqlwire.Reply, fn func(*Session) (string, error)) {
	var text string
	_, err := db.withSession(func(s *Session) (*Result, error) {
		var err error
		text, err = fn(s)
		return nil, err
	})
	if err != nil {
		replyErr(reply, err)
		return
	}
	reply.Text = text
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

// replyResult fills the reply from a statement's outcome. A pass-through
// SELECT's rows travel as the Disk Processes encoded them (Encoded): the
// endpoint reads none of them.
func replyResult(reply *nsqlwire.Reply, res *Result, err error) {
	if err != nil {
		replyErr(reply, err)
		return
	}
	reply.Columns = res.Columns
	reply.Rows, reply.Encoded = res.Rows, res.Encoded
	reply.Affected = uint64(res.Affected)
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
