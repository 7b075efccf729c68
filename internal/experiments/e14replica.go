package experiments

import (
	"fmt"
	"math/rand"
	"sync"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// The replication legs of the E14 sweep. The two replication crash
// points cannot use e14Iteration's topology — the thing that must
// survive is not the primary's frozen volume but the OTHER side of the
// partition group — so each gets its own scenario over a replicated
// single-volume bank (primary on node 0, backup with its own volume and
// node 1's audit trail):
//
//   - checkpoint-ship: the primary's node loses power at the instant a
//     stream batch is about to leave. The backup is promoted and must
//     equal an exact replay of the committed transactions — commits the
//     primary acknowledged before dying are all there (confirmed ⊆
//     committed on the BACKUP's trail), in-flight work is fenced.
//
//   - takeover-promote: the primary is already dead and the BACKUP's
//     node loses power mid-promotion, between undo steps of an
//     in-flight transaction. The frozen backup volume + backup trail
//     must then recover on their own, like any primary's — the shipped
//     stream and the promotion's compensation records land on the
//     backup's trail precisely so that this works.

// e14ReplicaIteration dispatches the two replication crash points.
func e14ReplicaIteration(point string, seed int64, txnsPerClient int) (*E14Result, error) {
	fault.Reset()
	defer fault.Reset()

	opts := cluster.Options{Nodes: 2, CPUsPerNode: 4, DPWorkers: 8, WriteBehind: true, Replication: true}
	scale := debitcredit.Scale{Branches: 2 * e14Clients, TellersPerBr: 2, AccountsPerBr: 10}
	r, err := newRig(opts, 1)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// Single-volume bank: every file on $DATA1, the whole database
	// inside one replicated partition group.
	bank := debitcredit.Defs([]string{"$DATA1"}, true)
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

	backup := r.c.DP("$DATA1" + fsdp.BackupSuffix)
	bmetas := backup.Files()
	bvol := backup.Volume().(*disk.Volume)
	pvol := r.c.DP("$DATA1").Volume().(*disk.Volume)
	aud0 := r.c.Nodes[0].AuditVol.(*disk.Volume)
	aud1 := r.c.Nodes[1].AuditVol.(*disk.Volume)
	firstBlock1 := r.c.Nodes[1].Trail.FirstBlock()

	run := &e14Run{attempts: map[uint64][]e14Op{}, confirmed: map[uint64]bool{}}
	rng := rand.New(rand.NewSource(seed))

	// Leg 1 arms before traffic: the primary's node dies at the ship
	// point (its volume and its node's trail freeze; the backup's side
	// stays live). Clients confirm commits only while the flag is clear,
	// and a commit is only acked after the backup has it durable — so
	// confirmed ⊆ committed-on-the-backup-trail must hold.
	skip := 0
	if point == fault.CheckpointShip {
		skip = 3 + rng.Intn(25)
		fault.Arm(point, skip, func() {
			run.crashed.Store(true)
			pvol.Freeze()
			aud0.Freeze()
		})
		fault.Enable()
	}

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
	close(errs)
	for err := range errs {
		return nil, err
	}

	losers := 0
	if point == fault.CheckpointShip {
		fault.Disable()
	} else {
		// Leg 2: traffic ran to completion; now plant deterministic
		// in-flight transactions, kill the primary, and freeze the
		// backup's side mid-promotion — between undo steps.
		losers = 3
		for i := 0; i < losers; i++ {
			tx := r.fs.Begin()
			aid, tid, bid := int64(i), int64(i), int64(i)
			delta := float64(100 + i)
			if err := r.fs.UpdateFields(tx, bank.Account, e14Key(aid), e14Add(2, "ABALANCE", delta)); err != nil {
				return nil, err
			}
			if err := r.fs.UpdateFields(tx, bank.Teller, e14Key(tid), e14Add(2, "TBALANCE", delta)); err != nil {
				return nil, err
			}
			if err := r.fs.UpdateFields(tx, bank.Branch, e14Key(bid), e14Add(1, "BBALANCE", delta)); err != nil {
				return nil, err
			}
			if err := r.fs.Insert(nil, tx, scratch, record.Row{record.Int(int64(60_000_000 + i)), record.String("in-flight")}); err != nil {
				return nil, err
			}
			// Left open: the primary dies before these ever commit.
		}
		skip = rng.Intn(8)
		fault.Arm(point, skip, func() {
			run.crashed.Store(true)
			bvol.Freeze()
			aud1.Freeze()
		})
		fault.Enable()
	}

	if err := r.c.CrashDP("$DATA1"); err != nil {
		return nil, err
	}
	if err := r.c.TakeoverReplica("$DATA1"); err != nil {
		return nil, err
	}
	if point == fault.TakeoverPromote {
		fault.Disable()
	}
	if !fault.Fired(point) {
		return nil, fmt.Errorf("armed point never fired (hits %d, skip %d)", fault.Hits(point), skip)
	}
	hits := fault.Hits(point)

	// The survivor's trail is the source of truth for what committed.
	// For leg 1 it is live (flush so the scan sees everything); for leg
	// 2 it is frozen mid-promotion and the scan sees exactly what a
	// restart would.
	if point == fault.CheckpointShip {
		r.c.Nodes[1].Trail.Flush()
	}
	recs, err := wal.Scan(aud1.Clone(aud1.Name()), firstBlock1)
	if err != nil {
		return nil, fmt.Errorf("backup trail scan: %w", err)
	}
	committed := map[uint64]bool{}
	var commitOrder []uint64
	for _, rec := range recs {
		if rec.Type == wal.RecCommit && !committed[rec.TxID] {
			committed[rec.TxID] = true
			commitOrder = append(commitOrder, rec.TxID)
		}
	}

	// No lost commits: everything a client was told committed is on the
	// backup's own trail.
	run.mu.Lock()
	for tx := range run.confirmed {
		if !committed[tx] {
			run.mu.Unlock()
			return nil, fmt.Errorf("lost commit: tx %d confirmed to a client but absent from the backup trail", tx)
		}
	}
	nConfirmed := len(run.confirmed)
	run.mu.Unlock()

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

	// The database to judge: leg 1 checks the live promoted backup; leg
	// 2 recovers the frozen backup images with a fresh Disk Process, as
	// a restart of the backup's node would.
	var judged *dp.DP
	if point == fault.CheckpointShip {
		judged = backup
		_, _, promoted, indoubt, fenced := backup.ReplicaStats()
		if !promoted || indoubt != 0 {
			return nil, fmt.Errorf("promoted backup state: promoted %v, indoubt %d", promoted, indoubt)
		}
		losers = fenced
	} else {
		clone := bvol.Clone(bvol.Name())
		rAuditVol := disk.NewVolume("$DATA1#B.R-AUDIT", true)
		rTrail, err := wal.NewTrail(wal.Config{Volume: rAuditVol})
		if err != nil {
			return nil, err
		}
		defer rTrail.Close()
		rd, err := dp.New(dp.Config{Name: bvol.Name(), Volume: clone, Audit: tmf.NewAuditPort(rTrail, nil, "", 0)})
		if err != nil {
			return nil, err
		}
		for _, m := range bmetas {
			rd.AttachFile(m.Name, m.Schema, m.Check, m.Root, m.FieldAudit)
		}
		if err := rd.Recover(recs); err != nil {
			return nil, fmt.Errorf("recover backup: %w", err)
		}
		judged = rd
	}

	if err := judged.ValidateFiles(); err != nil {
		return nil, fmt.Errorf("backup: %w", err)
	}
	if txns, scbs := judged.OpenState(); txns != 0 || scbs != 0 {
		return nil, fmt.Errorf("backup leaks state: %d txns, %d SCBs", txns, scbs)
	}
	if n := judged.LiveLatches(); n != 0 {
		return nil, fmt.Errorf("backup leaks %d latches", n)
	}
	if n := judged.Locks().Held(); n != 0 {
		return nil, fmt.Errorf("backup leaks %d locks", n)
	}

	accSum, err := e14CheckBalances(judged, "ACCOUNT", 2, exp.account)
	if err != nil {
		return nil, err
	}
	telSum, err := e14CheckBalances(judged, "TELLER", 2, exp.teller)
	if err != nil {
		return nil, err
	}
	brSum, err := e14CheckBalances(judged, "BRANCH", 1, exp.branch)
	if err != nil {
		return nil, err
	}
	histSum, err := e14CheckHistory(judged, exp.hist)
	if err != nil {
		return nil, err
	}
	if err := e14CheckScratch(judged, exp.scratch); err != nil {
		return nil, err
	}
	if accSum != telSum || accSum != brSum || accSum != histSum {
		return nil, fmt.Errorf("balances not conserved on the backup: accounts %v, tellers %v, branches %v, history deltas %v",
			accSum, telSum, brSum, histSum)
	}

	// The survivor must be fully live: commit and read back a new row.
	tx := tmf.NewTxID()
	smokeRow := record.Row{record.Int(99_999_999), record.String("post-takeover")}
	if reply := judged.Serve(&fsdp.Request{Kind: fsdp.KInsertRecord, Tx: tx, File: "SCRATCH", Row: record.Encode(smokeRow)}); !reply.OK() {
		return nil, fmt.Errorf("post-takeover insert: %s", reply.Err)
	}
	if reply := judged.Serve(&fsdp.Request{Kind: fsdp.KCommit, Tx: tx}); !reply.OK() {
		return nil, fmt.Errorf("post-takeover commit: %s", reply.Err)
	}
	if reply := judged.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "SCRATCH", Key: e14Key(99_999_999)}); !reply.OK() {
		return nil, fmt.Errorf("post-takeover read-back: %s", reply.Err)
	}

	return &E14Result{
		Point: point, Skip: skip, Hits: hits,
		Committed: trafficCommits, Confirmed: nConfirmed, Losers: losers,
	}, nil
}
