package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nonstopsql"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
)

// E20 measures what compiled statements buy on the serving path: two
// workloads over loopback TCP, each run twice — once as ad-hoc text
// (every statement a fresh fmt.Sprintf) and once as prepared
// statements (compile once, EXECUTE by handle with a parameter
// vector).
//
// The DebitCredit workload (three balance updates plus a history
// insert per transaction) is the throughput side: its repeated update
// texts hit the shared plan cache even ad-hoc, but the varying-literal
// insert recompiles every transaction, while the prepared run compiles
// exactly four statements and then executes from the cache — the
// steady-state ≥99% hit rate the acceptance gate checks. The
// point-query workload (primary-key lookups with a different key every
// time) is the latency side: ad-hoc, every lookup is a distinct text
// that must parse, bind, and plan before it can run; prepared, the
// same lookup is a handle plus one integer, so the compile cost and
// the SQL text both leave the per-statement path.
type E20Phase struct {
	Workload    string // "debitcredit" or "point-query"
	Mode        string // "ad-hoc" or "prepared"
	Stmts       int
	Elapsed     time.Duration
	StmtsPerSec float64
	Lat         obs.Snapshot // client-side per-statement latency
	Wire        obs.WireStats
	ReqBytes    float64 // request-direction bytes per frame
	Cache       nonstopsql.PlanCacheStats
}

type E20Result struct {
	DC [2]E20Phase // ad-hoc, prepared
	PQ [2]E20Phase // ad-hoc, prepared
}

// dcStmtsPerTxn: three balance updates plus one history insert — the
// classic DebitCredit write profile, autocommit per statement.
const dcStmtsPerTxn = 4

// E20 runs both workloads ad-hoc then prepared from 32 concurrent
// clients against one TCP-served database and audits effects,
// accounting, and the plan-cache hit rates.
func E20(txnsPerClient int) (*E20Result, *Table, error) {
	const clients = 32
	db, err := nonstopsql.Open(nonstopsql.Config{
		Listen:       "127.0.0.1:0",
		ServeWorkers: 16,
	})
	if err != nil {
		return nil, nil, err
	}
	defer db.Close()

	setup, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: 2, ReplyTimeout: 2 * time.Minute})
	if err != nil {
		return nil, nil, err
	}
	defer setup.Close()

	// One account/teller/branch row per client: updates never contend on
	// locks, so the ad-hoc and prepared runs differ only in how
	// statements arrive.
	for _, ddl := range []string{
		`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)`,
		`CREATE TABLE tell (id INTEGER PRIMARY KEY, bal FLOAT)`,
		`CREATE TABLE bran (id INTEGER PRIMARY KEY, bal FLOAT)`,
		`CREATE TABLE hist (seq INTEGER PRIMARY KEY, acct INTEGER, delta FLOAT)`,
	} {
		if _, err := setup.Exec(ddl); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < clients; i++ {
		for _, tbl := range []string{"acct", "tell", "bran"} {
			if _, err := setup.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (%d, 0)`, tbl, i)); err != nil {
				return nil, nil, err
			}
		}
	}

	r := &E20Result{}
	for i, prepared := range []bool{false, true} {
		p, err := e20Phase(db, "debitcredit", prepared, clients, txnsPerClient, i*clients*txnsPerClient)
		if err != nil {
			return nil, nil, err
		}
		r.DC[i] = *p
	}
	// Both DebitCredit runs have loaded hist; the point-query phases
	// read those rows back, a different key every lookup.
	histRows := 2 * clients * txnsPerClient
	for i, prepared := range []bool{false, true} {
		p, err := e20Phase(db, "point-query", prepared, clients, txnsPerClient, histRows)
		if err != nil {
			return nil, nil, err
		}
		r.PQ[i] = *p
	}

	// Effects audit across both write phases: every balance update
	// landed exactly once and every history row exists. A parameter-
	// encoding or handle-routing bug would corrupt these totals.
	for _, tbl := range []string{"acct", "tell", "bran"} {
		res, err := setup.Exec(fmt.Sprintf(`SELECT SUM(bal) FROM %s`, tbl))
		if err != nil {
			return nil, nil, err
		}
		if got := res.Rows[0][0].AsFloat(); got != float64(histRows) {
			return nil, nil, fmt.Errorf("E20: SUM(%s.bal) = %v, want %d: update lost or duplicated", tbl, got, histRows)
		}
	}
	res, err := setup.Exec(`SELECT COUNT(*) FROM hist`)
	if err != nil {
		return nil, nil, err
	}
	if got := res.Rows[0][0].I; got != int64(histRows) {
		return nil, nil, fmt.Errorf("E20: %d history rows, want %d", got, histRows)
	}

	// The acceptance gate: once a prepared run's few distinct texts have
	// compiled, every execution must reuse a cached plan.
	for _, p := range []E20Phase{r.DC[1], r.PQ[1]} {
		if hr := p.Cache.HitRate(); hr < 0.99 {
			return nil, nil, fmt.Errorf("E20: prepared %s hit rate %.4f < 0.99 (%+v)", p.Workload, hr, p.Cache)
		}
	}

	row := func(p E20Phase) []string {
		return []string{
			p.Workload, p.Mode, d(p.Stmts), f1(p.StmtsPerSec),
			p.Lat.Quantile(0.50).Round(time.Microsecond).String(),
			p.Lat.Quantile(0.95).Round(time.Microsecond).String(),
			f1(p.ReqBytes),
			fmt.Sprintf("%.1f%%", p.Cache.HitRate()*100),
			u(p.Cache.Misses),
		}
	}
	table := &Table{
		ID:    "E20",
		Title: "Compiled statements over TCP: ad-hoc text vs prepared EXECUTE (DebitCredit writes + point-query reads, wall clock)",
		Claim: "preparing once and executing by handle skips parse/bind/plan and shrinks request frames — more statements per second, lower point-query latency, ≥99% plan-cache hits at steady state",
		Cols: []Col{
			label("workload"), label("mode"), label("stmts"), observed("stmts/s"),
			observed("p50"), observed("p95"), observed("req B/frame"), observed("cache hit"),
			observed("misses"),
		},
		Rows: [][]string{row(r.DC[0]), row(r.DC[1]), row(r.PQ[0]), row(r.PQ[1])},
		Notes: []string{
			fmt.Sprintf("%d clients × %d txns per phase over one pipelined pool; DebitCredit txn = 3 balance updates + 1 history insert, point-query txn = %d primary-key lookups with varying keys", clients, txnsPerClient, dcStmtsPerTxn),
			fmt.Sprintf("point-query throughput %.2fx ad-hoc, p50 %v → %v; EXECUTE request frames %.1fx smaller than the SQL text they replace",
				r.PQ[1].StmtsPerSec/r.PQ[0].StmtsPerSec,
				r.PQ[0].Lat.Quantile(0.50).Round(time.Microsecond),
				r.PQ[1].Lat.Quantile(0.50).Round(time.Microsecond),
				r.PQ[0].ReqBytes/r.PQ[1].ReqBytes),
			"repeated ad-hoc texts (the balance updates) hit the shared plan cache too; varying-literal statements recompile every time — the miss column is the work the prepared runs avoid",
		},
	}
	return r, table, nil
}

// e20Stmts holds the prepared statements of the workload, shared by
// every client goroutine (Stmt is safe for concurrent use).
type e20Stmts struct {
	upAcct, upTell, upBran, insHist, ptQuery *nsqlclient.Stmt
}

// e20Phase runs one hammer phase over a fresh pool so the pool's wire
// counters are phase-local. For DebitCredit, seqBase keeps history
// primary keys disjoint between runs; for point-query it is the number
// of hist rows available to read.
func e20Phase(db *nonstopsql.Database, workload string, usePrepared bool, clients, txns, seqBase int) (*E20Phase, error) {
	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{
		Conns:        8,
		ReplyTimeout: 2 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	defer pool.Close()

	mode := "ad-hoc"
	if usePrepared {
		mode = "prepared"
	}

	// Plan-cache counters cover the whole phase: for a prepared run the
	// PREPAREs are the only misses, so the steady-state hit rate the
	// acceptance gate checks includes compilation itself.
	db.ResetStats()

	var stmts e20Stmts
	if usePrepared {
		for _, p := range []struct {
			src **nsqlclient.Stmt
			sql string
		}{
			{src: &stmts.upAcct, sql: `UPDATE acct SET bal = bal + ? WHERE id = ?`},
			{src: &stmts.upTell, sql: `UPDATE tell SET bal = bal + ? WHERE id = ?`},
			{src: &stmts.upBran, sql: `UPDATE bran SET bal = bal + ? WHERE id = ?`},
			{src: &stmts.insHist, sql: `INSERT INTO hist VALUES (?, ?, ?)`},
			{src: &stmts.ptQuery, sql: `SELECT delta FROM hist WHERE seq = ?`},
		} {
			if *p.src, err = pool.Prepare(p.sql); err != nil {
				return nil, err
			}
		}
	}

	// Collect the previous phase's garbage (an ad-hoc run leaves
	// thousands of dead texts and plans) so no phase pays its
	// predecessor's GC debt inside the measured window.
	runtime.GC()

	loadWire := pool.Stats()
	var lat obs.Histogram

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				var err error
				switch {
				case workload == "point-query":
					err = e20TxnPoint(pool, &stmts, usePrepared, clients, id, txns, i, seqBase, &lat)
				case usePrepared:
					err = e20TxnDCPrepared(&stmts, id, seqBase+id*txns+i, &lat)
				default:
					err = e20TxnDCAdHoc(pool, id, seqBase+id*txns+i, &lat)
				}
				if err != nil {
					errs <- fmt.Errorf("%s %s client %d: %w", workload, mode, id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return nil, err
	}

	// Accounting audit: the served network reconciles and every request
	// frame came back as exactly one reply frame.
	st := db.Cluster().Net.Stats()
	if st.Requests != st.Replies {
		return nil, fmt.Errorf("E20 %s %s: %d requests vs %d replies", workload, mode, st.Requests, st.Replies)
	}
	wire := pool.Stats()
	wire.BytesIn -= loadWire.BytesIn
	wire.BytesOut -= loadWire.BytesOut
	wire.FramesIn -= loadWire.FramesIn
	wire.FramesOut -= loadWire.FramesOut
	if wire.FramesIn != wire.FramesOut {
		return nil, fmt.Errorf("E20 %s %s: frame books don't balance: %d in, %d out", workload, mode, wire.FramesIn, wire.FramesOut)
	}
	if wire.Errors != 0 || wire.Timeouts != 0 || wire.Rejected != 0 {
		return nil, fmt.Errorf("E20 %s %s: wire trouble under load: %+v", workload, mode, wire)
	}

	n := clients * txns * dcStmtsPerTxn
	return &E20Phase{
		Workload:    workload,
		Mode:        mode,
		Stmts:       n,
		Elapsed:     elapsed,
		StmtsPerSec: float64(n) / elapsed.Seconds(),
		Lat:         lat.Snapshot(),
		Wire:        wire,
		ReqBytes:    float64(wire.BytesOut) / float64(wire.FramesOut),
		Cache:       db.PlanCacheStats(),
	}, nil
}

func e20TxnDCAdHoc(pool *nsqlclient.Pool, id, seq int, lat *obs.Histogram) error {
	for _, stmt := range []string{
		fmt.Sprintf(`UPDATE acct SET bal = bal + %d WHERE id = %d`, 1, id),
		fmt.Sprintf(`UPDATE tell SET bal = bal + %d WHERE id = %d`, 1, id),
		fmt.Sprintf(`UPDATE bran SET bal = bal + %d WHERE id = %d`, 1, id),
		fmt.Sprintf(`INSERT INTO hist VALUES (%d, %d, %d)`, seq, id, 1),
	} {
		t0 := time.Now()
		_, err := pool.Exec(stmt)
		lat.Record(time.Since(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

func e20TxnDCPrepared(stmts *e20Stmts, id, seq int, lat *obs.Histogram) error {
	one, acct := record.Float(1), record.Int(int64(id))
	run := func(st *nsqlclient.Stmt, args ...record.Value) error {
		t0 := time.Now()
		_, err := st.Exec(args...)
		lat.Record(time.Since(t0))
		return err
	}
	for _, st := range []*nsqlclient.Stmt{stmts.upAcct, stmts.upTell, stmts.upBran} {
		if err := run(st, one, acct); err != nil {
			return err
		}
	}
	return run(stmts.insHist, record.Int(int64(seq)), acct, one)
}

// e20TxnPoint issues dcStmtsPerTxn primary-key lookups on hist with
// the key varying every time — each distinct key appears at most twice
// across the phase, so the ad-hoc variant can barely amortize a
// compilation (and not at all once the distinct texts outnumber the
// plan cache's LRU bound).
func e20TxnPoint(pool *nsqlclient.Pool, stmts *e20Stmts, usePrepared bool, clients, id, txns, i, histRows int, lat *obs.Histogram) error {
	for k := 0; k < dcStmtsPerTxn; k++ {
		seq := ((id*txns+i)*dcStmtsPerTxn + k) % histRows
		var res *nonstopsql.Result
		var err error
		t0 := time.Now()
		if usePrepared {
			res, err = stmts.ptQuery.Exec(record.Int(int64(seq)))
		} else {
			res, err = pool.Exec(fmt.Sprintf(`SELECT delta FROM hist WHERE seq = %d`, seq))
		}
		lat.Record(time.Since(t0))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("point query for seq %d found %d rows", seq, len(res.Rows))
		}
	}
	return nil
}
