// Command nsqlsh is an interactive NonStop SQL shell. By default it
// boots a fresh simulated Tandem network in-process; with -connect it
// becomes a remote client of a running nsqld, speaking the wire
// protocol through a connection pool (autocommit only — remote
// sessions are pooled per request). Statements end with ';'. Meta
// commands:
//
//	\stats   print cumulative message/disk/audit counters
//	\reset   zero the counters
//	\tables  list catalog tables
//	\d TABLE describe a table
//	\prepare name SELECT ... WHERE c = ?   compile a statement once
//	\exec name ARG...                      run it with arguments
//	\crash $DATA1   crash a volume's Disk Process
//	\restart $DATA1 recover and restart it
//	\q       quit
//
// Against a remote nsqld, \crash, \restart and \reset are the
// operator's commands: the server refuses them unless it was started with
// -admin, and the shell prints its refusal.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"nonstopsql"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
)

// A backend executes statements and meta commands: either a freshly
// booted in-process database or a remote nsqld behind a client pool.
type backend interface {
	Exec(stmt string) (*nonstopsql.Result, error)
	Prepare(stmt string) (prepared, error)
	Explain(stmt string) (string, error)
	ExplainAnalyze(stmt string) (string, error)
	StatsText() (string, error)
	ResetStats() error
	Tables() (string, error)
	Describe(table string) (string, error)
	Crash(volume string) error
	Restart(volume string) error
	Close()
}

// prepared is one compiled statement, local or remote.
type prepared interface {
	Exec(args ...record.Value) (*nonstopsql.Result, error)
	NumParams() int
}

func main() {
	connect := flag.String("connect", "", "address of a running nsqld (empty = boot an in-process network)")
	conns := flag.Int("conns", 2, "pooled connections to the nsqld (with -connect)")
	timeout := flag.Duration("timeout", time.Minute, "per-request deadline (with -connect, 0 = none)")
	nodes := flag.Int("nodes", 1, "nodes in the network (in-process mode)")
	volumes := flag.Int("volumes", 4, "data volumes per node (in-process mode)")
	parallel := flag.Int("parallel", 0, "default scan DOP across partitions (0 = sequential)")
	flag.Parse()

	var be backend
	if *connect != "" {
		pool, err := nsqlclient.Dial(*connect, nsqlclient.Options{Conns: *conns, ReplyTimeout: *timeout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nsqlsh: %v\n", err)
			os.Exit(1)
		}
		if err := pool.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "nsqlsh: %s is not an nsqld: %v\n", *connect, err)
			os.Exit(1)
		}
		fmt.Printf("NonStop SQL reproduction — connected to %s (autocommit)\n", *connect)
		be = &remoteBackend{pool: pool}
	} else {
		db, err := nonstopsql.Open(nonstopsql.Config{Nodes: *nodes, VolumesPerNode: *volumes, ScanParallel: *parallel})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nsqlsh: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("NonStop SQL reproduction — %d node(s), volumes: %s\n",
			*nodes, strings.Join(db.Volumes(), " "))
		be = &localBackend{db: db, sess: db.Session(0, 0)}
	}
	defer be.Close()

	fmt.Println(`type SQL ending with ';', or \q to quit`)

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	stmts := make(map[string]prepared)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("nsql> ")
		} else {
			fmt.Print("  ..> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !meta(be, stmts, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			if rest, analyze, ok := stripExplain(stmt); ok {
				var plan string
				var err error
				if analyze {
					plan, err = be.ExplainAnalyze(rest)
				} else {
					plan, err = be.Explain(rest)
				}
				if err != nil {
					fmt.Printf("error: %v\n", err)
				} else {
					fmt.Print(plan)
				}
				prompt()
				continue
			}
			res, err := be.Exec(stmt)
			if err != nil {
				fmt.Printf("error: %v\n", err)
			} else if len(res.Columns) > 0 {
				fmt.Print(nonstopsql.FormatResult(res))
			} else {
				fmt.Printf("-- ok (%d row(s) affected)\n", res.Affected)
			}
		}
		prompt()
	}
}

// stripExplain detects a leading EXPLAIN (optionally EXPLAIN ANALYZE)
// keyword and returns the rest of the statement.
func stripExplain(stmt string) (rest string, analyze, ok bool) {
	s := strings.TrimSpace(stmt)
	if len(s) < 8 || !strings.EqualFold(s[:8], "EXPLAIN ") {
		return "", false, false
	}
	s = strings.TrimSpace(s[8:])
	if len(s) >= 8 && strings.EqualFold(s[:8], "ANALYZE ") {
		return s[8:], true, true
	}
	return s, false, true
}

func meta(be backend, stmts map[string]prepared, cmd string) bool {
	fields := strings.Fields(cmd)
	show := func(out string, err error) {
		if err != nil {
			fmt.Printf("error: %v\n", err)
		} else {
			fmt.Print(out)
		}
	}
	switch fields[0] {
	case `\prepare`:
		if len(fields) < 3 {
			fmt.Println("usage: \\prepare NAME SQL...")
			break
		}
		sql := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(cmd, fields[0]), " "+fields[1]))
		sql = strings.TrimSuffix(strings.TrimSpace(sql), ";")
		st, err := be.Prepare(sql)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		stmts[fields[1]] = st
		fmt.Printf("-- prepared %q (%d parameter(s))\n", fields[1], st.NumParams())
	case `\exec`:
		if len(fields) < 2 {
			fmt.Println("usage: \\exec NAME ARG...")
			break
		}
		st, ok := stmts[fields[1]]
		if !ok {
			fmt.Printf("error: no prepared statement %q (see \\prepare)\n", fields[1])
			break
		}
		res, err := st.Exec(parseArgs(fields[2:])...)
		if err != nil {
			fmt.Printf("error: %v\n", err)
		} else if len(res.Columns) > 0 {
			fmt.Print(nonstopsql.FormatResult(res))
		} else {
			fmt.Printf("-- ok (%d row(s) affected)\n", res.Affected)
		}
	case `\q`, `\quit`:
		return false
	case `\stats`:
		show(be.StatsText())
	case `\reset`:
		if err := be.ResetStats(); err != nil {
			fmt.Printf("error: %v\n", err)
		} else {
			fmt.Println("-- counters zeroed")
		}
	case `\tables`:
		show(be.Tables())
	case `\d`, `\describe`:
		if len(fields) < 2 {
			fmt.Println("usage: \\d TABLE")
			break
		}
		show(be.Describe(fields[1]))
	case `\crash`:
		if len(fields) < 2 {
			fmt.Println("usage: \\crash $VOLUME")
			break
		}
		if err := be.Crash(fields[1]); err != nil {
			fmt.Printf("error: %v\n", err)
		} else {
			fmt.Printf("-- %s down\n", fields[1])
		}
	case `\restart`:
		if len(fields) < 2 {
			fmt.Println("usage: \\restart $VOLUME")
			break
		}
		if err := be.Restart(fields[1]); err != nil {
			fmt.Printf("error: %v\n", err)
		} else {
			fmt.Printf("-- %s recovered and serving\n", fields[1])
		}
	default:
		fmt.Println(`meta commands: \stats \reset \tables \d TABLE \prepare \exec \crash \restart \q`)
	}
	return true
}

// parseArgs converts \exec argument tokens to SQL values: NULL, TRUE,
// FALSE (any case), integer and float literals, 'quoted strings'
// (single words — the shell splits on whitespace), bare words as
// strings.
func parseArgs(tokens []string) []record.Value {
	out := make([]record.Value, 0, len(tokens))
	for _, tok := range tokens {
		switch strings.ToUpper(tok) {
		case "NULL":
			out = append(out, record.Null)
			continue
		case "TRUE":
			out = append(out, record.Bool(true))
			continue
		case "FALSE":
			out = append(out, record.Bool(false))
			continue
		}
		if len(tok) >= 2 && tok[0] == '\'' && tok[len(tok)-1] == '\'' {
			out = append(out, record.String(tok[1:len(tok)-1]))
			continue
		}
		if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
			out = append(out, record.Int(i))
			continue
		}
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			out = append(out, record.Float(f))
			continue
		}
		out = append(out, record.String(tok))
	}
	return out
}

// localBackend runs statements on an in-process network, exactly as
// nsqlsh always has — transactions included.
type localBackend struct {
	db   *nonstopsql.Database
	sess *nonstopsql.Session
}

func (b *localBackend) Exec(stmt string) (*nonstopsql.Result, error) { return b.sess.Exec(stmt) }
func (b *localBackend) Prepare(stmt string) (prepared, error) {
	p, err := b.sess.Prepare(stmt)
	if err != nil {
		return nil, err
	}
	return &localStmt{sess: b.sess, p: p}, nil
}
func (b *localBackend) Explain(stmt string) (string, error) { return b.sess.Explain(stmt) }
func (b *localBackend) ExplainAnalyze(stmt string) (string, error) {
	return b.sess.ExplainAnalyze(stmt)
}
func (b *localBackend) StatsText() (string, error) { return nonstopsql.FormatStats(b.db.Stats()), nil }
func (b *localBackend) ResetStats() error          { b.db.ResetStats(); return nil }
func (b *localBackend) Tables() (string, error) {
	var sb strings.Builder
	for _, t := range b.db.Catalog().Tables() {
		sb.WriteString(t)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
func (b *localBackend) Describe(table string) (string, error) { return b.db.Catalog().Describe(table) }
func (b *localBackend) Crash(volume string) error             { return b.db.CrashVolume(volume) }
func (b *localBackend) Restart(volume string) error           { return b.db.RestartVolume(volume, -1) }
func (b *localBackend) Close()                                { b.db.Close() }

// localStmt runs a compiled statement on the in-process session.
type localStmt struct {
	sess *nonstopsql.Session
	p    *nonstopsql.Prepared
}

func (s *localStmt) Exec(args ...record.Value) (*nonstopsql.Result, error) {
	return s.sess.ExecPrepared(s.p, args...)
}
func (s *localStmt) NumParams() int { return s.p.NumParams() }

// remoteBackend routes everything through the client pool to an nsqld.
type remoteBackend struct {
	pool *nsqlclient.Pool
}

func (b *remoteBackend) Exec(stmt string) (*nonstopsql.Result, error) { return b.pool.Exec(stmt) }
func (b *remoteBackend) Prepare(stmt string) (prepared, error)        { return b.pool.Prepare(stmt) }
func (b *remoteBackend) Explain(stmt string) (string, error)          { return b.pool.Explain(stmt) }
func (b *remoteBackend) ExplainAnalyze(stmt string) (string, error) {
	return b.pool.ExplainAnalyze(stmt)
}
func (b *remoteBackend) StatsText() (string, error) { return nsqlclient.StatsText(b.pool) }
func (b *remoteBackend) ResetStats() error          { return nsqlclient.ResetStats(b.pool) }
func (b *remoteBackend) Tables() (string, error)    { return nsqlclient.Tables(b.pool) }
func (b *remoteBackend) Describe(table string) (string, error) {
	return nsqlclient.Describe(b.pool, table)
}
func (b *remoteBackend) Crash(volume string) error   { return nsqlclient.Crash(b.pool, volume) }
func (b *remoteBackend) Restart(volume string) error { return nsqlclient.Restart(b.pool, volume) }
func (b *remoteBackend) Close()                      { b.pool.Close() }
