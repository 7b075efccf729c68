package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql"
	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
)

// The four proofs below hold what the wall-clock harnesses of the served,
// file-backed and replicated paths prove. None of them times anything:
// benchmark/ measures wall clock (txn-file for file-backed batched I/O,
// point-read and mix for the served path). They have no table and no
// golden section, so they are not registry entries; TestExperiments runs
// each under the experiment's ID, and each has its top-level test
// (TestE18FileVolumes …) like every registered experiment.
var heldProofs = []struct {
	ID  string
	Run func(*testing.T)
}{
	{"E18", e18FileVolumes},
	{"E19", e19WireServing},
	{"E20", e20PreparedStatements},
	{"E21", e21ReplicatedTakeover},
}

// e18FileVolumes runs DebitCredit on file-backed volumes under two
// I/O disciplines, same engine and workload. Sync-per-write is the fully
// synchronous world the paper argues against: every block write is its
// own pwrite+fsync and every commit forces its own trail flush (no group
// commit). Batched-async is the full stack: group commit collects commit
// records above, and the scheduler coalesces adjacent blocks into bulk
// pwrites and shares fsyncs below. The test asserts the mechanism, which
// no host changes: equal balances, more than one block per physical
// write, more than one commit per audit fsync, and fewer physical fsyncs
// than the synchronous leg. Which leg is faster follows the host's fsync
// cost and is asserted nowhere.
func e18FileVolumes(t *testing.T) {
	syncLeg := e18Run(t, true)
	batched := e18Run(t, false)
	if batched.checksum != syncLeg.checksum {
		t.Errorf("final balances diverge across modes: %x vs %x", syncLeg.checksum, batched.checksum)
	}
	if batched.blocksPerWrite <= 1 {
		t.Errorf("batched-async coalesced nothing: %.2f blocks/write", batched.blocksPerWrite)
	}
	if batched.commitsPerFsync <= 1 {
		t.Errorf("batched-async shared no audit fsync: %.2f commits/fsync", batched.commitsPerFsync)
	}
	if batched.fsyncs >= syncLeg.fsyncs {
		t.Errorf("batched-async did not reduce physical fsyncs: %d vs %d", batched.fsyncs, syncLeg.fsyncs)
	}
}

// e18Leg is what one I/O discipline did to the disks.
type e18Leg struct {
	blocksPerWrite  float64 // blocks landed per physical write, all volumes
	commitsPerFsync float64 // durable commit records per physical audit fsync
	fsyncs          uint64  // physical fsyncs, all volumes
	checksum        uint64  // order-independent balance hash
}

func e18Run(t *testing.T, syncPerWrite bool) e18Leg {
	const clients, txnsPerClient = 8, 50
	r, err := newRig(cluster.Options{
		CPUsPerNode: 4, DPWorkers: 8, WriteBehind: true, Prefetch: true, CacheSlots: 128,
		DataDir: t.TempDir(), SyncPerWrite: syncPerWrite, DisableGroupCommit: syncPerWrite,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	// One volume: single-participant commits ride group commit. A
	// two-volume bank runs 2PC, whose prepare forces a trail flush per
	// participant and would drown the group-commit signal.
	scale := debitcredit.Scale{Branches: clients, TellersPerBr: 10, AccountsPerBr: 100}
	bank := debitcredit.Defs([]string{"$DATA1"}, true)
	if err := bank.Create(r.fs, scale); err != nil {
		t.Fatal(err)
	}
	data, node := r.c.DP("$DATA1").Volume(), r.c.Nodes[0]
	data.ResetStats()
	node.AuditVol.ResetStats()
	node.Trail.ResetStats()

	together(t, clients, func(id int) error {
		f := r.c.NewFS(0, id%3)
		rng := rand.New(rand.NewSource(int64(1800 + id)))
		for i := 0; i < txnsPerClient; i++ {
			if err := bank.RunSQL(f, debitcredit.Txn{
				AID:   int64(id*scale.AccountsPerBr + rng.Intn(scale.AccountsPerBr)),
				TID:   int64(id*scale.TellersPerBr + rng.Intn(scale.TellersPerBr)),
				BID:   int64(id),
				Delta: float64(rng.Intn(2001) - 1000),
			}); err != nil {
				return err
			}
		}
		return nil
	})

	total, audit := data.Stats(), node.AuditVol.Stats()
	total.Add(audit)
	sum, err := bankChecksum(r.fs, bank)
	if err != nil {
		t.Fatal(err)
	}
	leg := e18Leg{blocksPerWrite: total.BlocksPerWrite(), fsyncs: total.Fsyncs, checksum: sum}
	if audit.Fsyncs > 0 {
		leg.commitsPerFsync = float64(node.Trail.Stats().CommitsFlushed) / float64(audit.Fsyncs)
	}
	return leg
}

// e19WireServing drives 128 concurrent clients through one
// pipelined connection pool against a TCP-served database, three
// autocommit UPDATEs to one SELECT, each client on its own row. Every
// update lands exactly once (a correlation bug would double-apply or
// drop one), every message has its reply, every request frame comes back
// as exactly one reply frame, and the wire sees no error, timeout or
// refusal.
func e19WireServing(t *testing.T) {
	const clients, requestsPerClient = 128, 10
	db, pool := served(t)
	mustExec(t, pool, `CREATE TABLE acct (id INTEGER PRIMARY KEY, hits FLOAT)`)
	for i := 0; i < clients; i++ {
		mustExec(t, pool, fmt.Sprintf(`INSERT INTO acct VALUES (%d, 0)`, i))
	}

	db.ResetStats()
	before := pool.Stats()
	together(t, clients, func(id int) error {
		for i := 0; i < requestsPerClient; i++ {
			q := fmt.Sprintf(`UPDATE acct SET hits = hits + 1 WHERE id = %d`, id)
			if i%4 == 3 {
				q = fmt.Sprintf(`SELECT hits FROM acct WHERE id = %d`, id)
			}
			if _, err := pool.Exec(q); err != nil {
				return err
			}
		}
		return nil
	})
	wireBooks(t, db, pool, before)

	perClient := requestsPerClient - requestsPerClient/4
	if got := mustExec(t, pool, `SELECT SUM(hits) FROM acct`).Rows[0][0].AsFloat(); got != float64(clients*perClient) {
		t.Errorf("%v hits recorded, want %d: updates lost or duplicated on the wire", got, clients*perClient)
	}
	q := fmt.Sprintf(`SELECT COUNT(*) FROM acct WHERE hits = %d`, perClient)
	if whole := mustExec(t, pool, q).Rows[0][0].I; whole != clients || whole < 100 {
		t.Errorf("%d clients had exactly their %d updates applied, want all %d (at least 100)", whole, perClient, clients)
	}
}

// e20PreparedStatements runs DebitCredit (three balance updates and
// a history insert per transaction, autocommit) from 32 clients over
// TCP twice: as ad-hoc text and as prepared statements executed by
// handle. Every update and insert lands exactly once across both runs,
// the books balance, the prepared run hits the plan cache at least 99%
// of the time (its PREPAREs are its only misses), the ad-hoc run's
// varying literals keep recompiling, and an EXECUTE request frame is
// smaller than the text it replaces.
func e20PreparedStatements(t *testing.T) {
	const clients, txnsPerClient = 32, 8
	db, pool := served(t)
	for _, ddl := range []string{
		`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT)`,
		`CREATE TABLE tell (id INTEGER PRIMARY KEY, bal FLOAT)`,
		`CREATE TABLE bran (id INTEGER PRIMARY KEY, bal FLOAT)`,
		`CREATE TABLE hist (seq INTEGER PRIMARY KEY, acct INTEGER, delta FLOAT)`,
	} {
		mustExec(t, pool, ddl)
	}
	// One account, teller and branch row per client: updates never
	// contend on locks.
	for i := 0; i < clients; i++ {
		for _, tbl := range []string{"acct", "tell", "bran"} {
			mustExec(t, pool, fmt.Sprintf(`INSERT INTO %s VALUES (%d, 0)`, tbl, i))
		}
	}

	adhoc := e20Phase(t, db, pool, false, clients, txnsPerClient, 0)
	prep := e20Phase(t, db, pool, true, clients, txnsPerClient, clients*txnsPerClient)

	txns := 2 * clients * txnsPerClient
	for _, tbl := range []string{"acct", "tell", "bran"} {
		if got := mustExec(t, pool, `SELECT SUM(bal) FROM `+tbl).Rows[0][0].AsFloat(); got != float64(txns) {
			t.Errorf("SUM(%s.bal) = %v, want %d: update lost or duplicated", tbl, got, txns)
		}
	}
	if got := mustExec(t, pool, `SELECT COUNT(*) FROM hist`).Rows[0][0].I; got != int64(txns) {
		t.Errorf("%d history rows, want %d", got, txns)
	}
	if hr := prep.cache.HitRate(); hr < 0.99 {
		t.Errorf("prepared hit rate %.4f < 0.99 (%+v)", hr, prep.cache)
	}
	if hr := adhoc.cache.HitRate(); hr > 0.8 {
		t.Errorf("ad-hoc hit rate %.4f > 0.8: varying literals should recompile (%+v)", hr, adhoc.cache)
	}
	if prep.reqBytes >= adhoc.reqBytes {
		t.Errorf("EXECUTE request frames (%.1f B) not smaller than ad-hoc SQL text (%.1f B)", prep.reqBytes, adhoc.reqBytes)
	}
}

// e20Result is one pass's plan-cache counters and request bytes per
// frame.
type e20Result struct {
	cache    nonstopsql.PlanCacheStats
	reqBytes float64
}

// e20Phase runs one DebitCredit pass; seqBase keeps history keys
// disjoint between passes. The plan-cache counters cover the whole
// pass, the PREPAREs included.
func e20Phase(t *testing.T, db *nonstopsql.Database, pool *nsqlclient.Pool, prepared bool, clients, txns, seqBase int) e20Result {
	db.ResetStats()
	texts := []string{
		`UPDATE acct SET bal = bal + ? WHERE id = ?`,
		`UPDATE tell SET bal = bal + ? WHERE id = ?`,
		`UPDATE bran SET bal = bal + ? WHERE id = ?`,
		`INSERT INTO hist VALUES (?, ?, ?)`,
	}
	var stmts []*nsqlclient.Stmt
	if prepared {
		for _, text := range texts {
			st, err := pool.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			stmts = append(stmts, st)
		}
	}
	balances := []string{"acct", "tell", "bran"}
	before := pool.Stats()
	together(t, clients, func(id int) error {
		one, acct := record.Float(1), record.Int(int64(id))
		for i := 0; i < txns; i++ {
			seq := seqBase + id*txns + i
			for k := range texts {
				var err error
				switch {
				case prepared && k < 3:
					_, err = stmts[k].Exec(one, acct)
				case prepared:
					_, err = stmts[k].Exec(record.Int(int64(seq)), acct, one)
				case k < 3:
					_, err = pool.Exec(fmt.Sprintf(`UPDATE %s SET bal = bal + 1 WHERE id = %d`, balances[k], id))
				default:
					_, err = pool.Exec(fmt.Sprintf(`INSERT INTO hist VALUES (%d, %d, 1)`, seq, id))
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	w := wireBooks(t, db, pool, before)
	return e20Result{cache: db.Stats().PlanCache, reqBytes: float64(w.BytesOut) / float64(w.FramesOut)}
}

// e21ReplicatedTakeover kills a replicated partition's primary under
// two-volume DebitCredit load, waits out a simulated failure-detection
// delay and promotes the backup. Clients re-drive a failed transaction
// with the same keys until it commits, so the run does the same logical
// work as a no-crash control with the same seeds, and its end state must
// be the control's key for key: zero committed loss. Both runs conserve
// money across all four files, every transaction commits, the backup is
// promoted, and follower browse reads are answered while the primary's
// name is down.
func e21ReplicatedTakeover(t *testing.T) {
	const txnsPerClient = 40
	crashed := e21Run(t, txnsPerClient, true)
	control := e21Run(t, txnsPerClient, false)
	for i, file := range []string{"ACCOUNT", "TELLER", "BRANCH", "HISTORY"} {
		if !maps.Equal(crashed.state[i], control.state[i]) {
			t.Errorf("%s after takeover (%d rows) differs from the no-crash control (%d rows)",
				file, len(crashed.state[i]), len(control.state[i]))
		}
	}
	for _, run := range []e21Outcome{crashed, control} {
		if run.committed != e21Clients*txnsPerClient {
			t.Errorf("committed %d, want %d: every transaction must commit", run.committed, e21Clients*txnsPerClient)
		}
	}
	if !crashed.shipped.Promoted || crashed.shipped.ShippedRecords == 0 {
		t.Errorf("backup not promoted, or nothing shipped to it: %+v", crashed.shipped)
	}
	if crashed.followerInWindow == 0 {
		t.Error("no follower browse read answered during the takeover window")
	}
}

// e21Clients is sized so a takeover interrupts several in-flight
// two-phase commits at once.
const e21Clients = 8

// e21DetectDelay stands in for failure detection: the window in which
// the primary's name is down and only the backup answers.
const e21DetectDelay = 50 * time.Millisecond

type e21Outcome struct {
	state            [4]map[int64]float64 // ACCOUNT, TELLER, BRANCH, HISTORY: key → balance (delta)
	committed        int
	followerInWindow int // follower reads answered while the primary's name was down
	shipped          cluster.ReplicationStats
}

// e21Run runs one DebitCredit pass on a two-node replicated cluster;
// crash selects the takeover, and the control run differs in nothing
// else. ACCOUNT and BRANCH live on $DATA1, the partition that dies,
// TELLER and HISTORY on $DATA2: every transaction two-phase commits
// across the dying partition and a healthy one.
func e21Run(t *testing.T, txnsPerClient int, crash bool) e21Outcome {
	c, err := cluster.New(cluster.Options{Nodes: 2, CPUsPerNode: 4, DPWorkers: 8, WriteBehind: true, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, name := range []string{"$DATA1", "$DATA2"} {
		if _, err := c.AddVolume(0, i, name); err != nil {
			t.Fatal(err)
		}
	}
	bank := debitcredit.Defs([]string{"$DATA1", "$DATA2"}, true)
	scale := debitcredit.Scale{Branches: 2 * e21Clients, TellersPerBr: 2, AccountsPerBr: 10}
	if err := bank.Create(c.NewFS(0, 0), scale); err != nil {
		t.Fatal(err)
	}

	var (
		out        e21Outcome
		committed  atomic.Int64
		nameDown   atomic.Bool
		stop       atomic.Bool
		follDuring atomic.Int64
	)
	// The client that commits the quarter-mark transaction triggers the
	// kill, so it lands with most of the load still to run. A client that
	// gives up triggers it too, so the fault never waits forever.
	quarter := int64(e21Clients*txnsPerClient) / 4
	crashCh := make(chan struct{})
	var trigger sync.Once
	fire := func() { trigger.Do(func() { close(crashCh) }) }

	// Browse reads against the backup for the whole run, paced: an
	// unthrottled read loop on a small host starves the commit pipeline.
	var follWG sync.WaitGroup
	follWG.Add(1)
	defer func() { stop.Store(true); follWG.Wait() }()
	go func() {
		defer follWG.Done()
		f := c.NewFS(1, 3)
		f.SetFollowerReads(true)
		for i := 0; !stop.Load(); i++ {
			key := record.Int(int64(i % scale.Accounts())).AppendKey(nil)
			if _, err := f.Read(nil, bank.Account, key, false); err == nil && nameDown.Load() {
				follDuring.Add(1)
			}
			if i%16 == 15 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Body e21Clients is the fault: kill the primary once a quarter of
	// the work has committed, wait out detection, promote the backup.
	together(t, e21Clients+1, func(id int) error {
		if id == e21Clients {
			if !crash {
				return nil
			}
			<-crashCh
			if err := c.CrashDP("$DATA1"); err != nil {
				return err
			}
			nameDown.Store(true)
			time.Sleep(e21DetectDelay)
			defer nameDown.Store(false)
			return c.TakeoverReplica("$DATA1")
		}
		f := c.NewFS(0, id%3)
		rng := rand.New(rand.NewSource(int64(4100 + id)))
		for seq := 0; seq < txnsPerClient; seq++ {
			bid := int64(2*id + rng.Intn(2))
			tid := bid*int64(scale.TellersPerBr) + int64(rng.Intn(scale.TellersPerBr))
			aid := bid*int64(scale.AccountsPerBr) + int64(rng.Intn(scale.AccountsPerBr))
			delta := float64(rng.Intn(2001) - 1000)
			hid := int64(id)*1_000_000 + int64(seq)
			for attempt := 0; e21Txn(f, bank, aid, tid, bid, hid, delta) != nil; attempt++ {
				if attempt == 100 {
					fire()
					return fmt.Errorf("txn %d: still failing after %d attempts", seq, attempt)
				}
			}
			if committed.Add(1) == quarter {
				fire()
			}
		}
		return nil
	})
	out.committed = int(committed.Load())
	out.followerInWindow = int(follDuring.Load())
	if crash {
		if out.shipped, err = c.ReplicationStats("$DATA1"); err != nil {
			t.Fatal(err)
		}
	}
	// After a takeover c.DP returns the promoted backup: the dump judges
	// the survivor.
	var sums [4]float64
	for i, loc := range []struct {
		vol, file string
		balField  int
	}{{"$DATA1", "ACCOUNT", 2}, {"$DATA2", "TELLER", 2}, {"$DATA1", "BRANCH", 1}, {"$DATA2", "HISTORY", 4}} {
		rows, err := c.DP(loc.vol).DumpFile(loc.file)
		if err != nil {
			t.Fatal(err)
		}
		out.state[i] = make(map[int64]float64, len(rows))
		for _, row := range rows {
			v := row[loc.balField].AsFloat()
			out.state[i][row[0].I] = v
			sums[i] += v
		}
	}
	if sums[0] != sums[1] || sums[0] != sums[2] || sums[0] != sums[3] {
		t.Errorf("balances not conserved: accounts %v, tellers %v, branches %v, history deltas %v",
			sums[0], sums[1], sums[2], sums[3])
	}
	return out
}

// e21Txn is one DebitCredit transaction: three pushed-down balance
// updates and a history insert, across both partitions.
func e21Txn(f *fs.FS, bank *debitcredit.Bank, aid, tid, bid, hid int64, delta float64) error {
	tx := f.Begin()
	err := f.UpdateFields(tx, bank.Account, e14Key(aid), e14Add(2, "ABALANCE", delta))
	if err == nil {
		err = f.UpdateFields(tx, bank.Teller, e14Key(tid), e14Add(2, "TBALANCE", delta))
	}
	if err == nil {
		err = f.UpdateFields(tx, bank.Branch, e14Key(bid), e14Add(1, "BBALANCE", delta))
	}
	if err == nil {
		err = f.Insert(nil, tx, bank.History, record.Row{
			record.Int(hid), record.Int(aid), record.Int(tid), record.Int(bid),
			record.Float(delta), record.String("e21"),
		})
	}
	if err != nil {
		_ = f.Abort(tx)
		return err
	}
	return f.Commit(tx)
}

// ---- helpers --------------------------------------------------------------

// together runs body once per id in [0, n), concurrently, and fails t
// with the errors they returned.
func together(t *testing.T, n int, body func(id int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := body(id); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		for err := range errs {
			t.Error(err)
		}
		t.FailNow()
	}
}

// served opens a database served over loopback TCP and dials one
// pipelined 8-connection pool at it; both close when t ends.
func served(t *testing.T) (*nonstopsql.Database, *nsqlclient.Pool) {
	db, err := nonstopsql.Open(nonstopsql.Config{Listen: "127.0.0.1:0", ServeWorkers: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: 8, ReplyTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return db, pool
}

func mustExec(t *testing.T, pool *nsqlclient.Pool, q string) *nonstopsql.Result {
	t.Helper()
	res, err := pool.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// wireBooks audits the books since before: the served network answered
// every message, every request frame the pool sent came back as exactly
// one reply frame, and the wire saw no error, timeout or refusal. It
// returns the pool's wire counters since before.
func wireBooks(t *testing.T, db *nonstopsql.Database, pool *nsqlclient.Pool, before obs.WireStats) obs.WireStats {
	t.Helper()
	if st := db.Cluster().Net.Stats(); st.Requests != st.Replies {
		t.Errorf("%d requests vs %d replies", st.Requests, st.Replies)
	}
	w := pool.Stats()
	if w.Errors != 0 || w.Timeouts != 0 || w.Rejected != 0 {
		t.Errorf("wire trouble under load: %+v", w)
	}
	w.BytesOut -= before.BytesOut
	w.FramesIn -= before.FramesIn
	w.FramesOut -= before.FramesOut
	if w.FramesIn != w.FramesOut || w.FramesOut == 0 {
		t.Errorf("frame books don't balance: %d in, %d out", w.FramesIn, w.FramesOut)
	}
	return w
}
