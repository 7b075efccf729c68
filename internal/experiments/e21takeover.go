package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
)

// E21 measures live takeover of a replicated partition group under
// DebitCredit load: mid-run, the ACCOUNT+BRANCH partition's primary
// Disk Process is killed; after a simulated failure-detection delay the
// cluster promotes the backup and repoints the server name. Clients
// ride through on the File System's re-drive window, retrying any
// transaction the crash failed until it commits, so the run finishes
// the same logical work as an undisturbed one. The proof of zero
// committed loss is differential: a control run with identical seeds
// and no crash must end in the bit-identical database state, and both
// must conserve sum(ACCOUNT) = sum(TELLER) = sum(BRANCH) =
// sum(HISTORY deltas). A follower-read client issues lock-free browse
// reads against the partition's backup throughout and must keep being
// answered while the primary's name is down.
type E21Result struct {
	Clients       int
	TxnsPerClient int
	Committed     int // committed transactions (= Clients × TxnsPerClient)
	Retries       int // failed attempts re-driven by clients

	Takeover    time.Duration // TakeoverReplica: catch-up flush + promote + repoint
	Detect      time.Duration // simulated failure-detection delay before it
	Stall       time.Duration // crash → first post-crash commit ack
	FollowerOK  int           // follower browse reads answered while the primary name was down
	FollowerAll int           // follower browse reads over the whole run

	Lat     obs.Snapshot // per committed transaction, crash window included
	Shipped cluster.ReplicationStats
	Sum     float64 // final sum(ACCOUNT) — conserved across all four files
}

// e21Clients is sized so a takeover interrupts several in-flight
// two-phase commits at once.
const e21Clients = 8

// e21DetectDelay stands in for failure detection (the paper's "I'm
// alive" message period): the window in which the primary's name is
// dead and only the backup answers.
const e21DetectDelay = 50 * time.Millisecond

// E21 runs the takeover measurement and the no-crash control, compares
// their end states, and renders the table.
func E21(txnsPerClient int) (*E21Result, *Table, error) {
	res, state, err := e21Run(txnsPerClient, true)
	if err != nil {
		return nil, nil, err
	}
	_, control, err := e21Run(txnsPerClient, false)
	if err != nil {
		return nil, nil, fmt.Errorf("control run: %w", err)
	}

	// Differential audit: the takeover run's database is the control
	// run's database, key for key.
	for fi, file := range []string{"ACCOUNT", "TELLER", "BRANCH", "HISTORY"} {
		got, want := state[fi], control[fi]
		if len(got) != len(want) {
			return nil, nil, fmt.Errorf("E21: %s has %d rows after takeover, control has %d", file, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				return nil, nil, fmt.Errorf("E21: %s key %d: %v after takeover, control %v", file, k, got[k], v)
			}
		}
	}
	if res.FollowerOK == 0 {
		return nil, nil, fmt.Errorf("E21: no follower browse read answered during the takeover window")
	}

	table := &Table{
		ID:    "E21",
		Title: "replicated partition takeover under DebitCredit load: kill the primary, promote the backup, lose nothing",
		Claim: "a partition group survives its primary's death: committed work is on the backup before the client hears 'committed', so takeover loses zero transactions and browse reads never stop",
		Cols: []Col{
			label("clients"), label("txns"), observed("retries"), observed("detect"),
			observed("takeover"), observed("stall"), observed("follower reads (window/total)"),
			observed("shipped recs"), observed("shipped KB"), observed("p50"), observed("p99"),
		},
		Rows: [][]string{{
			d(res.Clients), d(res.Committed), d(res.Retries),
			res.Detect.Round(time.Millisecond).String(),
			res.Takeover.Round(100 * time.Microsecond).String(),
			res.Stall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", res.FollowerOK, res.FollowerAll),
			u(res.Shipped.ShippedRecords),
			f1(float64(res.Shipped.ShippedBytes) / 1024),
			res.Lat.Quantile(0.50).Round(time.Microsecond).String(),
			res.Lat.Quantile(0.99).Round(time.Microsecond).String(),
		}},
		Notes: []string{
			"differential: final ACCOUNT/TELLER/BRANCH/HISTORY state is key-identical to a no-crash control run with the same seeds; balances conserve across all four files",
			"takeover = catch-up flush + promotion (undo/fence in-flight) + server-name repoint; stall = primary death to the first commit acknowledged afterwards (includes the simulated detection delay)",
			"clients re-drive failed transactions until they commit; the retry count is the crash's entire client-visible cost",
			"follower reads are lock-free browse against the partition's backup; the window count is reads answered while the primary's name was down",
		},
	}
	return res, table, nil
}

// e21Run executes one measured run. crash selects the takeover; the
// control run differs in nothing else. Returns per-file end state maps
// (HISTORY as key → delta).
func e21Run(txnsPerClient int, crash bool) (*E21Result, [4]map[int64]float64, error) {
	var state [4]map[int64]float64
	c, err := cluster.New(cluster.Options{Nodes: 2, CPUsPerNode: 4, DPWorkers: 8, WriteBehind: true, Replication: true})
	if err != nil {
		return nil, state, err
	}
	defer c.Close()
	for i, name := range []string{"$DATA1", "$DATA2"} {
		if _, err := c.AddVolume(0, i, name); err != nil {
			return nil, state, err
		}
	}
	// ACCOUNT and BRANCH land on $DATA1 (the partition to kill), TELLER
	// and HISTORY on $DATA2: every transaction two-phase commits across
	// the dying partition and a healthy one.
	bank := debitcredit.Defs([]string{"$DATA1", "$DATA2"}, true)
	scale := debitcredit.Scale{Branches: 2 * e21Clients, TellersPerBr: 2, AccountsPerBr: 10}
	if err := bank.Create(c.NewFS(0, 0), scale); err != nil {
		return nil, state, err
	}

	res := &E21Result{Clients: e21Clients, TxnsPerClient: txnsPerClient}
	var (
		lat        obs.Histogram
		committed  atomic.Int64
		retries    atomic.Int64
		nameDown   atomic.Bool // primary name unregistered (crash → repoint)
		crashedAt  atomic.Int64
		firstAfter atomic.Int64 // first commit ack after the crash (ns since crashedAt)
		stop       atomic.Bool
		follTotal  atomic.Int64
		follDuring atomic.Int64
	)
	// The crash trigger: the client that commits the quarter-mark
	// transaction closes the channel, so the kill always lands with the
	// bulk of the load still to run — no matter how fast the machine.
	quarter := int64(e21Clients*txnsPerClient) / 4
	if quarter < 1 {
		quarter = 1
	}
	crashCh := make(chan struct{})

	// The follower-read client: browse reads on ACCOUNT rows against
	// the backup for the whole run. Paced, not full tilt: an unthrottled
	// read spin loop on a small host keeps the garbage collector
	// permanently active and starves the commit pipeline's group-commit
	// timers, so the stall it induces measures the harness, not the
	// system. ~5k reads/s still lands hundreds of reads inside every
	// takeover window.
	var follWG sync.WaitGroup
	follWG.Add(1)
	go func() {
		defer follWG.Done()
		f := c.NewFS(1, 3)
		f.SetFollowerReads(true)
		for i := 0; !stop.Load(); i++ {
			key := record.Int(int64(i % scale.Accounts())).AppendKey(nil)
			if _, err := f.Read(nil, bank.Account, key, false); err == nil {
				follTotal.Add(1)
				if nameDown.Load() {
					follDuring.Add(1)
				}
			}
			if i%16 == 15 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, e21Clients)
	for cl := 0; cl < e21Clients; cl++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := e21Client(c, bank, scale, id, txnsPerClient, &lat, &committed, &retries, &crashedAt, &firstAfter, quarter, crashCh); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(cl)
	}

	if crash {
		// A quarter of the work done → kill the primary; detect; promote.
		// The crash instant is stamped after CrashDP returns: the message
		// system drains requests already inside the dying server, and
		// those acks belong to the before-times.
		<-crashCh
		if err := c.CrashDP("$DATA1"); err != nil {
			return nil, state, err
		}
		crashedAt.Store(time.Now().UnixNano())
		nameDown.Store(true)
		time.Sleep(e21DetectDelay)
		t0 := time.Now()
		if err := c.TakeoverReplica("$DATA1"); err != nil {
			return nil, state, err
		}
		res.Takeover = time.Since(t0)
		res.Detect = e21DetectDelay
		nameDown.Store(false)
	}

	wg.Wait()
	stop.Store(true)
	follWG.Wait()
	close(errs)
	for err := range errs {
		return nil, state, err
	}

	res.Committed = int(committed.Load())
	res.Retries = int(retries.Load())
	res.Stall = time.Duration(firstAfter.Load())
	res.FollowerOK = int(follDuring.Load())
	res.FollowerAll = int(follTotal.Load())
	res.Lat = lat.Snapshot()
	if crash {
		res.Shipped, err = c.ReplicationStats("$DATA1")
		if err != nil {
			return nil, state, err
		}
	}

	// End-state dump + conservation audit. After a takeover, c.DP
	// returns the promoted backup — the dump judges the survivor.
	sums := [4]float64{}
	for i, loc := range []struct {
		vol, file string
		balField  int
	}{
		{"$DATA1", "ACCOUNT", 2},
		{"$DATA2", "TELLER", 2},
		{"$DATA1", "BRANCH", 1},
		{"$DATA2", "HISTORY", 4},
	} {
		rows, err := c.DP(loc.vol).DumpFile(loc.file)
		if err != nil {
			return nil, state, err
		}
		state[i] = make(map[int64]float64, len(rows))
		for _, row := range rows {
			v := row[loc.balField].AsFloat()
			state[i][row[0].I] = v
			sums[i] += v
		}
	}
	if sums[0] != sums[1] || sums[0] != sums[2] || sums[0] != sums[3] {
		return nil, state, fmt.Errorf("balances not conserved: accounts %v, tellers %v, branches %v, history deltas %v",
			sums[0], sums[1], sums[2], sums[3])
	}
	res.Sum = sums[0]
	return res, state, nil
}

// e21Client commits exactly txnsPerClient transactions, re-driving each
// failed attempt with the same keys and delta until it succeeds. Keys
// come from the client's private branch ranges and the delta from a
// per-client deterministic stream, so the final database state is a
// pure function of (clients, txnsPerClient) — crash or no crash.
func e21Client(c *cluster.Cluster, bank *debitcredit.Bank, scale debitcredit.Scale,
	id, txnsPerClient int, lat *obs.Histogram,
	committed, retries *atomic.Int64, crashedAt, firstAfter *atomic.Int64,
	quarter int64, crashCh chan struct{}) error {
	f := c.NewFS(0, id%3)
	rng := rand.New(rand.NewSource(int64(4100 + id)))
	for seq := 0; seq < txnsPerClient; seq++ {
		bid := int64(2*id + rng.Intn(2))
		tid := bid*int64(scale.TellersPerBr) + int64(rng.Intn(scale.TellersPerBr))
		aid := bid*int64(scale.AccountsPerBr) + int64(rng.Intn(scale.AccountsPerBr))
		delta := float64(rng.Intn(2001) - 1000)
		hid := int64(id)*1_000_000 + int64(seq)
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				retries.Add(1)
			}
			if attempt > 100 {
				return fmt.Errorf("txn %d: still failing after %d attempts", seq, attempt)
			}
			t0 := time.Now()
			err := e21Txn(f, bank, aid, tid, bid, hid, delta)
			if err != nil {
				continue
			}
			lat.Record(time.Since(t0))
			if committed.Add(1) == quarter {
				close(crashCh)
			}
			if at := crashedAt.Load(); at != 0 {
				firstAfter.CompareAndSwap(0, time.Now().UnixNano()-at)
			}
			break
		}
	}
	return nil
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
		err = f.Insert(tx, bank.History, record.Row{
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
