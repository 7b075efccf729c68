package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// E14 is the recovery torture sweep: for every named crash point in the
// storage engine (see fault.Points), run concurrent DebitCredit traffic,
// fire a simulated power failure at that point — every volume freezes,
// in-flight and later writes are lost — then recover from the frozen
// images alone and prove the full set of recovery invariants:
//
//   - every transaction confirmed to a client before the crash has a
//     durable commit record (no lost commits);
//   - the recovered database equals an exact replay of the committed
//     transactions, in commit-LSN order, over the initial state —
//     committed effects present, in-flight and aborted effects absent;
//   - sum(ACCOUNT) = sum(TELLER) = sum(BRANCH) = sum(HISTORY deltas);
//   - every B-tree passes structural validation;
//   - the recovered Disk Processes hold no transactions, Subset Control
//     Blocks, locks, or latches;
//   - the recovered volume accepts and commits new transactions.
//
// The paper's claim is that NonStop SQL inherits TMF's transaction
// guarantees "for free" through low-level integration; this experiment
// is that claim under the harshest light we can shine locally.

// e14Clients is the number of concurrent DebitCredit clients. Each banks
// in its own branch/teller/account ranges, so record-lock contention
// never aborts traffic and the expected state is deterministic.
const e14Clients = 4

// errE14Read is the injected I/O error of the read-error leg.
var errE14Read = errors.New("e14: injected read error")

// E14Result is one crash point's sweep outcome.
type E14Result struct {
	Point     string
	Skip      int    // armed hits let pass before firing
	Hits      uint64 // times the point was reached while enabled
	Committed int    // traffic txns with a durable commit record
	Confirmed int    // txns confirmed to clients before the crash
	Losers    int    // in-flight txns undone by recovery
}

// E14 sweeps every crash point and returns per-point results. Any
// invariant violation at any point is an error.
func E14(txnsPerClient int) ([]E14Result, *Table, error) {
	var results []E14Result
	for i, point := range fault.Points() {
		var res *E14Result
		var err error
		switch point {
		case fault.CheckpointShip, fault.TakeoverPromote:
			// The replication points need the replicated topology: the
			// survivor under test is the partition group's other side.
			res, err = e14ReplicaIteration(point, int64(7300+i*131), txnsPerClient)
		default:
			res, err = e14Iteration(point, int64(7300+i*131), txnsPerClient)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("E14 point %q: %w", point, err)
		}
		results = append(results, *res)
	}
	table := &Table{
		ID:    "E14",
		Title: "recovery torture: crash at every write-path point, recover, check all invariants",
		Claim: "through TMF integration, SQL transactions survive any single failure: committed work is durable, in-flight work vanishes",
		Cols: []Col{
			label("crash point"), label("skip"), observed("hits"), observed("committed"),
			observed("confirmed"), observed("losers"), counted("invariants"),
		},
	}
	for _, res := range results {
		table.Rows = append(table.Rows, []string{
			res.Point, d(res.Skip), u(res.Hits), d(res.Committed), d(res.Confirmed), d(res.Losers), "ok",
		})
	}
	table.Notes = append(table.Notes,
		"crash = freeze every volume at the armed point; recovery sees only the frozen images, like a power failure",
		"committed counts durable commit records of traffic txns; confirmed counts commits acknowledged to a client pre-crash (confirmed ⊆ committed)",
		"invariants: exact replay match, balance conservation, B-tree validation, no leaked txns/SCBs/locks/latches, volume writable again",
	)
	return results, table, nil
}

// e14Op is one logical operation of a recorded client transaction; the
// invariant checker replays these for the committed set.
type e14Op struct {
	kind    byte   // 'a' balance add, 'h' history insert, 'i' scratch insert, 'd' scratch delete
	file    string // balance adds: ACCOUNT / TELLER / BRANCH
	id      int64  // primary key (aid/tid/bid/hid/sid)
	aid     int64  // history inserts
	tid     int64
	bid     int64
	delta   float64
	payload string // scratch inserts
}

// e14Run is the shared state of one sweep iteration's traffic phase.
type e14Run struct {
	crashed atomic.Bool

	mu        sync.Mutex
	attempts  map[uint64][]e14Op // txID → its ops, recorded before commit
	confirmed map[uint64]bool    // commits acknowledged to a client pre-crash
}

func (run *e14Run) record(tx uint64, ops []e14Op) {
	run.mu.Lock()
	run.attempts[tx] = ops
	run.mu.Unlock()
}

func (run *e14Run) confirm(tx uint64) {
	run.mu.Lock()
	run.confirmed[tx] = true
	run.mu.Unlock()
}

// e14Iteration runs traffic against one fresh cluster, crashes at the
// given point, recovers from the frozen volumes, and checks every
// invariant.
func e14Iteration(point string, seed int64, txnsPerClient int) (*E14Result, error) {
	fault.Reset()
	defer fault.Reset()

	// The eviction-path points — and DiskRead, which only fires on cache
	// misses — need cache pressure: a pool smaller than the working set,
	// served by a single worker so concurrent pins can never exhaust the
	// pool and deadlock eviction, with write-behind off so dirty pages
	// are cleaned by the eviction path's single-block write rather than
	// swept up by bulk I/O first. Write-behind's own point needs the same
	// pressure with write-behind on: its passes clean the eviction end of
	// a full pool, and a pool that never fills gives them nothing to
	// claim. A pass that claims nothing does not reach the point, so the
	// crash always lands between a pass's claims and their writes.
	opts := cluster.Options{CPUsPerNode: 4, DPWorkers: 8, WriteBehind: true}
	scale := debitcredit.Scale{Branches: 2 * e14Clients, TellersPerBr: 2, AccountsPerBr: 10}
	switch point {
	case fault.DiskRead, fault.DiskWrite, fault.CacheCleanBeforeWrite, fault.CacheWriteBehind:
		opts.CacheSlots = 8
		opts.DPWorkers = 1
		opts.WriteBehind = point == fault.CacheWriteBehind
		scale.AccountsPerBr = 30
	}
	r, err := newRig(opts, 2)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Two volumes and files round-robined over them: every DebitCredit
	// transaction touches both, so commits go through full two-phase
	// commit and the TMF crash points sit on every transaction's path.
	bank := debitcredit.Defs([]string{"$DATA1", "$DATA2"}, true)
	if err := bank.Create(r.fs, scale); err != nil {
		return nil, err
	}
	scratch := &fs.FileDef{
		Name: "SCRATCH",
		Schema: record.MustSchema("SCRATCH", []record.Field{
			{Name: "SID", Type: record.TypeInt, NotNull: true},
			{Name: "PAYLOAD", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: "$DATA1"}},
		FieldAudit: true,
	}
	if err := r.fs.Create(scratch); err != nil {
		return nil, err
	}

	// Record what a restart would know: file metadata (root blocks never
	// move) and the trail's first block.
	metas := map[string][]dp.FileMeta{}
	vols := map[string]*disk.Volume{}
	for _, name := range []string{"$DATA1", "$DATA2"} {
		d := r.c.DP(name)
		metas[name] = d.Files()
		// E14 always builds simulated clusters: only the simulated volume
		// can Freeze/Clone, so the concrete type is asserted here.
		vols[name] = d.Volume().(*disk.Volume)
	}
	auditVol := r.c.Nodes[0].AuditVol.(*disk.Volume)
	firstBlock := r.c.Nodes[0].Trail.FirstBlock()

	run := &e14Run{attempts: map[uint64][]e14Op{}, confirmed: map[uint64]bool{}}
	// A write-behind crash must land in a pass that claimed pages. A pass
	// counts itself in WriterPasses once it has claimed one, before it
	// reaches the point, so every hit so far has a pass counted since the
	// point was armed; an empty pass that reached it would leave a hit
	// without one.
	pools := [2]*cache.Pool{r.c.DP("$DATA1").Pool(), r.c.DP("$DATA2").Pool()}
	claimingPasses := func() uint64 { return pools[0].Stats().WriterPasses + pools[1].Stats().WriterPasses }
	passesBefore := claimingPasses()
	var emptyPassCrashed atomic.Bool
	// The crash action: set the flag, then freeze every volume — data
	// first, audit last. It runs on whatever goroutine hits the point,
	// possibly under low-level mutexes, so it is strictly lock-free (the
	// write-behind point's check reads atomics and the fault registry,
	// which no point holds while its action runs).
	// Clients confirm a commit only when the flag was still clear after
	// Commit returned; that load ordering guarantees the commit record's
	// flush landed before any freeze (confirmed ⊆ durable).
	crashFn := func() {
		if point == fault.CacheWriteBehind && claimingPasses()-passesBefore < fault.Hits(point) {
			emptyPassCrashed.Store(true)
		}
		run.crashed.Store(true)
		vols["$DATA1"].Freeze()
		vols["$DATA2"].Freeze()
		auditVol.Freeze()
	}
	rng := rand.New(rand.NewSource(seed))
	skip := e14Skip(point, rng)
	fault.Arm(point, skip, crashFn)
	fault.Enable()

	var wg sync.WaitGroup
	errs := make(chan error, e14Clients)
	for cl := 0; cl < e14Clients; cl++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := e14Client(r, run, bank, scratch, scale, id, seed, txnsPerClient); err != nil {
				errs <- fmt.Errorf("client %d: %w", id, err)
			}
		}(cl)
	}
	wg.Wait()
	fault.Disable()
	close(errs)
	for err := range errs {
		return nil, err
	}
	if !fault.Fired(point) {
		return nil, fmt.Errorf("armed point never fired (hits %d, skip %d): workload does not reach this path", fault.Hits(point), skip)
	}
	if emptyPassCrashed.Load() {
		return nil, fmt.Errorf("the crash landed in a write-behind pass that claimed no page")
	}
	hits := fault.Hits(point)

	// ---- Everything below reads only the frozen images. ----

	auditClone := auditVol.Clone(auditVol.Name())

	// The read-error leg: recovery must be exercised against FAILED
	// reads, not just torn writes. A flaky read during the post-crash
	// audit scan has to surface as an error — treating it as end-of-trail
	// would silently truncate the log and lose committed work.
	if point == fault.DiskRead {
		fault.Reset()
		fault.ArmErr(fault.DiskRead, 0, errE14Read)
		fault.Enable()
		if _, serr := wal.Scan(auditClone, firstBlock); !errors.Is(serr, errE14Read) {
			return nil, fmt.Errorf("read-error leg: scan returned %v, want the injected read error", serr)
		}
		fault.Reset() // disarm; the real scan and recovery below run clean
	}

	recs, err := wal.Scan(auditClone, firstBlock)
	if err != nil {
		return nil, fmt.Errorf("audit scan: %w", err)
	}

	committed := map[uint64]bool{}
	abortedIn := map[uint64]bool{}
	dataTx := map[uint64]bool{}
	var commitOrder []uint64
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecCommit:
			if !committed[rec.TxID] {
				committed[rec.TxID] = true
				commitOrder = append(commitOrder, rec.TxID)
			}
		case wal.RecAbort:
			abortedIn[rec.TxID] = true
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			dataTx[rec.TxID] = true
		}
	}

	// Invariant: no lost commits. Every transaction a client confirmed
	// must have its commit record on the frozen trail.
	run.mu.Lock()
	for tx := range run.confirmed {
		if !committed[tx] {
			run.mu.Unlock()
			return nil, fmt.Errorf("lost commit: tx %d was confirmed to a client but has no durable commit record", tx)
		}
	}
	nConfirmed := len(run.confirmed)
	run.mu.Unlock()

	// Expected state: initial bank plus an exact replay of the committed
	// traffic transactions in commit-LSN order. Per-client disjoint keys
	// and integer-dollar deltas make the result bit-exact in float64.
	exp := newE14Expected(scale)
	trafficCommits := 0
	for _, tx := range commitOrder {
		ops, ok := run.attempts[tx]
		if !ok {
			continue // bank loader transactions: their effect IS the initial state
		}
		trafficCommits++
		for _, op := range ops {
			exp.apply(op)
		}
	}
	losers := 0
	for tx := range dataTx {
		if !committed[tx] && !abortedIn[tx] {
			losers++
		}
	}

	// Recover each data volume's clone with a fresh Disk Process, as a
	// restart would, and check the invariants.
	recovered := map[string]*dp.DP{}
	for _, name := range []string{"$DATA1", "$DATA2"} {
		clone := vols[name].Clone(name)
		rAuditVol := disk.NewVolume(name+".R-AUDIT", true)
		rTrail, err := wal.NewTrail(wal.Config{Volume: rAuditVol})
		if err != nil {
			return nil, err
		}
		defer rTrail.Close()
		rd, err := dp.New(dp.Config{Name: name, Volume: clone, Audit: tmf.NewAuditPort(rTrail, nil, "", 0)})
		if err != nil {
			return nil, err
		}
		for _, m := range metas[name] {
			rd.AttachFile(m.Name, m.Schema, m.Check, m.Root, m.FieldAudit)
		}
		if err := rd.Recover(recs); err != nil {
			return nil, fmt.Errorf("recover %s: %w", name, err)
		}
		if err := rd.ValidateFiles(); err != nil {
			return nil, fmt.Errorf("recovered %s: %w", name, err)
		}
		if open := rd.OpenState(); open != (dp.Open{}) {
			return nil, fmt.Errorf("recovered %s leaks state: %+v", name, open)
		}
		recovered[name] = rd
	}

	// Exact-replay comparison, file by file.
	accSum, err := e14CheckBalances(recovered["$DATA1"], "ACCOUNT", 2, exp.account)
	if err != nil {
		return nil, err
	}
	telSum, err := e14CheckBalances(recovered["$DATA2"], "TELLER", 2, exp.teller)
	if err != nil {
		return nil, err
	}
	brSum, err := e14CheckBalances(recovered["$DATA1"], "BRANCH", 1, exp.branch)
	if err != nil {
		return nil, err
	}
	histSum, err := e14CheckHistory(recovered["$DATA2"], exp.hist)
	if err != nil {
		return nil, err
	}
	if err := e14CheckScratch(recovered["$DATA1"], exp.scratch); err != nil {
		return nil, err
	}
	// Conservation: every committed delta hit all three balance files and
	// left one history row. Deltas are integer-valued, so exact.
	if accSum != telSum || accSum != brSum || accSum != histSum {
		return nil, fmt.Errorf("balances not conserved: accounts %v, tellers %v, branches %v, history deltas %v",
			accSum, telSum, brSum, histSum)
	}

	// The recovered volumes must be fully live: run and commit a new
	// transaction on each, then re-validate.
	smoke := []struct {
		vol, file string
		row       record.Row
	}{
		{"$DATA1", "SCRATCH", record.Row{record.Int(99_999_999), record.String("post-recovery")}},
		{"$DATA2", "HISTORY", record.Row{
			record.Int(99_999_999), record.Int(0), record.Int(0), record.Int(0),
			record.Float(0), record.String("post-recovery")}},
	}
	for _, sm := range smoke {
		rd := recovered[sm.vol]
		tx := tmf.NewTxID()
		if reply := rd.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, Tx: tx, File: sm.file, Row: record.Encode(sm.row)}); !reply.OK() {
			return nil, fmt.Errorf("post-recovery insert on %s: %s", sm.vol, reply.Err)
		}
		if reply := rd.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: tx}); !reply.OK() {
			return nil, fmt.Errorf("post-recovery commit on %s: %s", sm.vol, reply.Err)
		}
		if reply := rd.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: sm.file, Key: e14Key(99_999_999)}); !reply.OK() {
			return nil, fmt.Errorf("post-recovery read-back on %s: %s", sm.vol, reply.Err)
		}
		if err := rd.ValidateFiles(); err != nil {
			return nil, fmt.Errorf("post-recovery validation on %s: %w", sm.vol, err)
		}
	}

	return &E14Result{
		Point: point, Skip: skip, Hits: hits,
		Committed: trafficCommits, Confirmed: nConfirmed, Losers: losers,
	}, nil
}

// e14Client drives one client's DebitCredit traffic until the crash (or
// the txn budget runs out). Every 5th transaction deliberately aborts
// after its updates; every 3rd additionally inserts a SCRATCH row and
// deletes the client's previous one, so inserts, updates, and deletes of
// committed data are all in flight when the crash lands.
func e14Client(r *rig, run *e14Run, bank *debitcredit.Bank, scratch *fs.FileDef,
	scale debitcredit.Scale, id int, seed int64, txnsPerClient int) error {
	f := r.c.NewFS(0, id%3)
	rng := rand.New(rand.NewSource(seed + int64(1000+id)))
	lastScratch := int64(-1)
	for seq := 0; seq < txnsPerClient && !run.crashed.Load(); seq++ {
		// Keys from this client's private ranges; integer-dollar deltas.
		bid := int64(2*id + rng.Intn(2))
		tid := bid*int64(scale.TellersPerBr) + int64(rng.Intn(scale.TellersPerBr))
		aid := bid*int64(scale.AccountsPerBr) + int64(rng.Intn(scale.AccountsPerBr))
		delta := float64(rng.Intn(2001) - 1000)
		hid := int64(id)*1_000_000 + int64(seq)

		tx := f.Begin()
		var ops []e14Op
		err := f.UpdateFields(tx, bank.Account, e14Key(aid), e14Add(2, "ABALANCE", delta))
		ops = append(ops, e14Op{kind: 'a', file: "ACCOUNT", id: aid, delta: delta})
		if err == nil {
			err = f.UpdateFields(tx, bank.Teller, e14Key(tid), e14Add(2, "TBALANCE", delta))
			ops = append(ops, e14Op{kind: 'a', file: "TELLER", id: tid, delta: delta})
		}
		if err == nil {
			err = f.UpdateFields(tx, bank.Branch, e14Key(bid), e14Add(1, "BBALANCE", delta))
			ops = append(ops, e14Op{kind: 'a', file: "BRANCH", id: bid, delta: delta})
		}
		if err == nil {
			err = f.Insert(nil, tx, bank.History, record.Row{
				record.Int(hid), record.Int(aid), record.Int(tid), record.Int(bid),
				record.Float(delta), record.String("e14"),
			})
			ops = append(ops, e14Op{kind: 'h', id: hid, aid: aid, tid: tid, bid: bid, delta: delta})
		}
		doScratch := seq%3 == 2
		newScratch := int64(-1)
		if err == nil && doScratch {
			newScratch = hid
			payload := fmt.Sprintf("scratch-%d-%d", id, seq)
			err = f.Insert(nil, tx, scratch, record.Row{record.Int(newScratch), record.String(payload)})
			ops = append(ops, e14Op{kind: 'i', id: newScratch, payload: payload})
			if err == nil && lastScratch >= 0 {
				err = f.Delete(tx, scratch, e14Key(lastScratch))
				ops = append(ops, e14Op{kind: 'd', id: lastScratch})
			}
		}
		if err != nil {
			_ = f.Abort(tx)
			if run.crashed.Load() {
				return nil // post-crash debris, not a bug
			}
			return fmt.Errorf("txn %d: %w", seq, err)
		}
		run.record(tx.ID, ops)
		if seq%5 == 4 {
			_ = f.Abort(tx)
			continue
		}
		if err := f.Commit(tx); err != nil {
			if run.crashed.Load() {
				return nil
			}
			return fmt.Errorf("txn %d commit: %w", seq, err)
		}
		// The commit is confirmed only when the crash flag was still
		// clear AFTER Commit returned: by the atomic ordering, the
		// commit record's disk write then preceded every volume freeze.
		if !run.crashed.Load() {
			run.confirm(tx.ID)
		}
		if doScratch {
			lastScratch = newScratch
		}
	}
	return nil
}

// e14Skip picks how many armed hits to let pass before firing, scaled to
// how often the point is reached so the crash lands mid-traffic.
func e14Skip(point string, rng *rand.Rand) int {
	switch point {
	case fault.DPAbortMidUndo:
		// Only deliberate aborts (every 5th txn) reach it.
		return rng.Intn(6)
	case fault.DPDeleteAfterAudit:
		// Only SCRATCH deletes (every 3rd txn, after warm-up) reach it.
		return rng.Intn(4)
	case fault.DiskRead, fault.DiskWrite, fault.CacheCleanBeforeWrite, fault.CacheWriteBehind:
		return rng.Intn(10)
	default:
		return 3 + rng.Intn(25)
	}
}

// e14Key encodes a one-column INT primary key.
func e14Key(v int64) []byte { return record.Int(v).AppendKey(nil) }

// e14Add builds the SET f = f + delta pushdown assignment.
func e14Add(field int, name string, delta float64) []expr.Assignment {
	return []expr.Assignment{{Field: field, E: expr.Bin(expr.OpAdd, expr.F(field, name), expr.CFloat(delta))}}
}

// e14Expected is the replayed expected database state.
type e14Expected struct {
	account map[int64]float64
	teller  map[int64]float64
	branch  map[int64]float64
	hist    map[int64]e14Hist
	scratch map[int64]string
}

type e14Hist struct {
	aid, tid, bid int64
	delta         float64
}

func newE14Expected(scale debitcredit.Scale) *e14Expected {
	e := &e14Expected{
		account: map[int64]float64{},
		teller:  map[int64]float64{},
		branch:  map[int64]float64{},
		hist:    map[int64]e14Hist{},
		scratch: map[int64]string{},
	}
	for i := 0; i < scale.Accounts(); i++ {
		e.account[int64(i)] = 0
	}
	for i := 0; i < scale.Tellers(); i++ {
		e.teller[int64(i)] = 0
	}
	for i := 0; i < scale.Branches; i++ {
		e.branch[int64(i)] = 0
	}
	return e
}

func (e *e14Expected) apply(op e14Op) {
	switch op.kind {
	case 'a':
		switch op.file {
		case "ACCOUNT":
			e.account[op.id] += op.delta
		case "TELLER":
			e.teller[op.id] += op.delta
		case "BRANCH":
			e.branch[op.id] += op.delta
		}
	case 'h':
		e.hist[op.id] = e14Hist{aid: op.aid, tid: op.tid, bid: op.bid, delta: op.delta}
	case 'i':
		e.scratch[op.id] = op.payload
	case 'd':
		delete(e.scratch, op.id)
	}
}

// e14CheckBalances compares one balance file's recovered contents with
// the expected replay, exactly, and returns the balance sum.
func e14CheckBalances(d *dp.DP, file string, balField int, want map[int64]float64) (float64, error) {
	rows, err := d.DumpFile(file)
	if err != nil {
		return 0, err
	}
	if len(rows) != len(want) {
		return 0, fmt.Errorf("%s: recovered %d rows, want %d", file, len(rows), len(want))
	}
	sum := 0.0
	for _, row := range rows {
		id := row[0].I
		w, ok := want[id]
		if !ok {
			return 0, fmt.Errorf("%s: unexpected key %d after recovery", file, id)
		}
		got := row[balField].AsFloat()
		if got != w {
			return 0, fmt.Errorf("%s %d: recovered balance %v, want %v", file, id, got, w)
		}
		sum += got
	}
	return sum, nil
}

// e14CheckHistory compares the recovered HISTORY file with the expected
// replay and returns the sum of its deltas.
func e14CheckHistory(d *dp.DP, want map[int64]e14Hist) (float64, error) {
	rows, err := d.DumpFile("HISTORY")
	if err != nil {
		return 0, err
	}
	if len(rows) != len(want) {
		return 0, fmt.Errorf("HISTORY: recovered %d rows, want %d", len(rows), len(want))
	}
	sum := 0.0
	for _, row := range rows {
		hid := row[0].I
		w, ok := want[hid]
		if !ok {
			return 0, fmt.Errorf("HISTORY: unexpected hid %d after recovery", hid)
		}
		if row[1].I != w.aid || row[2].I != w.tid || row[3].I != w.bid || row[4].AsFloat() != w.delta {
			return 0, fmt.Errorf("HISTORY %d: recovered (%d,%d,%d,%v), want (%d,%d,%d,%v)",
				hid, row[1].I, row[2].I, row[3].I, row[4].AsFloat(), w.aid, w.tid, w.bid, w.delta)
		}
		sum += w.delta
	}
	return sum, nil
}

// e14CheckScratch compares the recovered SCRATCH file with the expected
// replay.
func e14CheckScratch(d *dp.DP, want map[int64]string) error {
	rows, err := d.DumpFile("SCRATCH")
	if err != nil {
		return err
	}
	if len(rows) != len(want) {
		return fmt.Errorf("SCRATCH: recovered %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		sid := row[0].I
		w, ok := want[sid]
		if !ok {
			return fmt.Errorf("SCRATCH: unexpected sid %d after recovery", sid)
		}
		if row[1].S != w {
			return fmt.Errorf("SCRATCH %d: recovered payload %q, want %q", sid, row[1].S, w)
		}
	}
	return nil
}
