package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/record"
)

// E5Result captures group-commit efficiency at one concurrency level.
type E5Result struct {
	Clients      int
	GroupCommit  bool
	Commits      uint64
	LogFlushes   uint64
	CommitsPerIO float64
	Joined       uint64 // force points that rode a flush another session led
}

// E5 reproduces the group commit claim: one bulk audit-trail write
// commits a growing group of transactions as offered load rises, while
// without group commit every commit costs its own log I/O.
func E5(txnsPerClient int, clientCounts []int) ([]E5Result, *Table, error) {
	table := &Table{
		ID:    "E5",
		Title: "Group commit: transactions committed per audit-trail I/O vs offered load",
		Claim: "bulk-write of the audit trail commits a larger group of transactions",
		Cols: []Col{
			label("clients"), label("group commit"), counted("commits"), observed("log flushes"),
			observed("commits/flush"), observed("forces joined"),
		},
	}
	var results []E5Result
	scale := debitcredit.Scale{Branches: 8, TellersPerBr: 10, AccountsPerBr: 100}
	run := func(clients int, group bool) error {
		// Size each Disk Process group so lock waiters cannot starve the
		// commit messages that would release them. All four bank files
		// live on ONE volume so every transaction commits through the
		// single-participant fast path: the commit record rides group
		// commit instead of being forced by 2PC prepares.
		r, err := newRig(cluster.Options{DisableGroupCommit: !group, DPWorkers: clients + 2}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		bank := debitcredit.Defs([]string{"$DATA1"}, true)
		if err := bank.Create(r.fs, scale); err != nil {
			return err
		}
		r.c.Nodes[0].Trail.ResetStats()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				f := r.c.NewFS(0, id%3)
				rng := rand.New(rand.NewSource(int64(id)))
				for i := 0; i < txnsPerClient; i++ {
					if err := bank.RunSQL(f, debitcredit.Generate(rng, scale)); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		ts := r.c.Nodes[0].Trail.Stats()
		res := E5Result{
			Clients:      clients,
			GroupCommit:  group,
			Commits:      ts.CommitRecords,
			LogFlushes:   ts.Flushes,
			CommitsPerIO: ts.CommitsPerFlush(),
			Joined:       ts.Joined,
		}
		results = append(results, res)
		gc := "off"
		if group {
			gc = "on"
		}
		table.Rows = append(table.Rows, []string{
			d(clients), gc, u(res.Commits), u(res.LogFlushes),
			fmt.Sprintf("%.2f", res.CommitsPerIO), u(res.Joined),
		})
		return nil
	}
	for _, clients := range clientCounts {
		for _, group := range []bool{false, true} {
			if err := run(clients, group); err != nil {
				return nil, nil, err
			}
		}
	}
	return results, table, nil
}

// E6Result captures cache-optimization effects.
type E6Result struct {
	Config         string
	DiskReads      uint64
	BlocksRead     uint64
	BlocksPerIO    float64
	DiskWrites     uint64
	BlocksWritten  uint64
	Updates        int    // the keyed-update rows: updates made
	DirtyEvictions uint64 // evictions that had to write their victim first
	WALStalls      uint64 // of those, the ones that waited on the audit trail
}

// E6 reproduces the set-interface cache optimizations: with the key span
// known in advance, a cold-cache range scan reads its blocks with bulk
// I/O and asynchronous pre-fetch (≈7 blocks per physical read), where
// block-at-a-time demand reading costs one I/O per block; write-behind
// coalesces the dirty block strings a subset update leaves; and under
// keyed updates on a pool smaller than the table, write-behind keeps the
// eviction end clean so that no eviction waits on a write.
func E6(n int) ([]E6Result, *Table, error) {
	table := &Table{
		ID:    "E6",
		Title: "Bulk I/O + pre-fetch + write-behind over a subset's key span",
		Claim: "the Disk Process reads the blocks containing the required key span using a minimal number of I/O's (bulk ≤28 KB), pre-fetches asynchronously, and write-behinds dirty strings",
		Cols: []Col{
			label("configuration"), counted("reads"), counted("blocks read"),
			counted("blocks/read"), counted("writes"), counted("blocks written"),
		},
	}
	var results []E6Result
	scan := func(name string, prefetch bool) error {
		r, err := newRig(cluster.Options{Prefetch: prefetch, CacheSlots: 4096}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		def, err := loadEmp(r, n, 200, true)
		if err != nil {
			return err
		}
		d1 := r.c.DP("$DATA1")
		d1.Pool().Crash() // cold cache
		d1.ResetVolumeStats()
		rows := r.fs.Select(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All(), Proj: []int{0}})
		for {
			if _, _, ok := rows.Next(); !ok {
				break
			}
		}
		if err := rows.Err(); err != nil {
			return err
		}
		d1.Pool().WaitPrefetch()
		vs := d1.VolumeStats()
		res := E6Result{Config: name, DiskReads: vs.Reads, BlocksRead: vs.BlocksRead}
		if vs.Reads > 0 {
			res.BlocksPerIO = float64(vs.BlocksRead) / float64(vs.Reads)
		}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			name, u(vs.Reads), u(vs.BlocksRead), f1(res.BlocksPerIO), u(vs.Writes), u(vs.BlocksWritten),
		})
		return nil
	}
	if err := scan("cold scan, demand reads (pre-fetch off)", false); err != nil {
		return nil, nil, err
	}
	if err := scan("cold scan, bulk I/O + async pre-fetch", true); err != nil {
		return nil, nil, err
	}

	// Write-behind: a subset update dirties a string of sequential
	// blocks; with write-behind they reach disk in bulk writes during
	// idle time, without write-behind each page flushes singly at
	// checkpoint.
	wb := func(name string, on bool) error {
		r, err := newRig(cluster.Options{WriteBehind: on, CacheSlots: 4096}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		def, err := loadEmp(r, n, 200, true)
		if err != nil {
			return err
		}
		d1 := r.c.DP("$DATA1")
		// Hold the background writer: a pass that lands between two
		// UPDATE^SUBSET re-drives writes a page the next re-drive dirties
		// again, and "blocks written" then reads 100 or 101 by timing.
		// With no writer running every nudge is a synchronous pass on the
		// Disk Process's own goroutine, so the count is exact.
		d1.Pool().StopWriter()
		d1.ResetVolumeStats()
		tx := r.fs.Begin()
		if _, _, err := r.fs.UpdateSubset(tx, def, keys.All(), nil, []expr.Assignment{
			{Field: 2, E: expr.Bin(expr.OpAdd, expr.F(2, "SALARY"), expr.CInt(1))},
		}); err != nil {
			return err
		}
		if err := r.fs.Commit(tx); err != nil {
			return err
		}
		if on {
			// Write out what the commit aged (bulk-coalesced, never
			// forcing the gate) before reading the I/O counters.
			d1.Pool().DrainWriter()
		} else {
			// Without write-behind the dirty pages flush one by one.
			if err := flushSingly(r); err != nil {
				return err
			}
		}
		vs := d1.VolumeStats()
		res := E6Result{Config: name, DiskWrites: vs.Writes, BlocksWritten: vs.BlocksWritten}
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			name, u(vs.Reads), u(vs.BlocksRead), "-", u(vs.Writes), u(vs.BlocksWritten),
		})
		return nil
	}
	if err := wb("subset update, write-behind ON (bulk strings)", true); err != nil {
		return nil, nil, err
	}
	if err := wb("subset update, write-behind OFF (page-at-a-time)", false); err != nil {
		return nil, nil, err
	}

	// Keyed updates, each its own transaction, at random keys of a table
	// 2.5 times the size of the pool (the demand scan above read every
	// block of it). With write-behind the pass that follows each commit
	// writes the aged dirty pages at the pool's eviction end, so every
	// miss finds a clean victim; without it every dirty victim is
	// written by the miss that evicts it. The writer is held as above:
	// each commit's nudge is a synchronous pass and the counts are exact.
	slots := int(results[0].BlocksRead) * 2 / 5
	keyed := func(on bool) error {
		r, err := newRig(cluster.Options{WriteBehind: on, CacheSlots: slots}, 1)
		if err != nil {
			return err
		}
		defer r.close()
		d1 := r.c.DP("$DATA1")
		d1.Pool().StopWriter()
		def, err := loadEmp(r, n, 200, true)
		if err != nil {
			return err
		}
		d1.ResetVolumeStats()
		d1.Pool().ResetStats()
		updates := n / 2
		rng := rand.New(rand.NewSource(6))
		assigns := []expr.Assignment{{Field: 2, E: expr.Bin(expr.OpAdd, expr.F(2, "SALARY"), expr.CInt(1))}}
		for i := 0; i < updates; i++ {
			tx := r.fs.Begin()
			key := record.Int(int64(rng.Intn(n))).AppendKey(nil)
			if _, err := r.fs.UpdateKey(tx, def, key, nil, assigns); err != nil {
				return err
			}
			if err := r.fs.Commit(tx); err != nil {
				return err
			}
		}
		vs, ps := d1.VolumeStats(), d1.Pool().Stats()
		res := E6Result{DiskReads: vs.Reads, BlocksRead: vs.BlocksRead, DiskWrites: vs.Writes, BlocksWritten: vs.BlocksWritten,
			Updates: updates, DirtyEvictions: ps.DirtyEvictions, WALStalls: ps.WALStalls}
		mode := "OFF"
		if on {
			mode = "ON"
		}
		res.Config = fmt.Sprintf("%d keyed updates, small pool, write-behind %s: %d dirty evictions, %d WAL stalls",
			updates, mode, res.DirtyEvictions, res.WALStalls)
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			res.Config, u(vs.Reads), u(vs.BlocksRead), "-", u(vs.Writes), u(vs.BlocksWritten),
		})
		return nil
	}
	if err := keyed(true); err != nil {
		return nil, nil, err
	}
	if err := keyed(false); err != nil {
		return nil, nil, err
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("keyed updates: one UPDATE^KEY per transaction at uniformly random keys, on a pool of %d slots, 2/5 of the table's %d blocks", slots, results[0].BlocksRead),
		"write-behind ON writes only aged dirty pages in the quarter of the pool nearest eviction, so a miss always finds a clean victim; OFF writes each dirty victim in the miss that evicts it, and its clean-first victim order also evicts the clean B-tree root")
	return results, table, nil
}

// flushSingly writes every dirty page through the single-block path.
func flushSingly(r *rig) error {
	return r.c.DP("$DATA1").Pool().FlushAll()
}

// E7Result compares whole-transaction costs.
type E7Result struct {
	System       string
	Txns         int
	MsgsPerTxn   float64
	BytesPerTxn  float64
	AuditPerTxn  float64
	DiskIOPerTxn float64
	EstMsPerTxn  float64 // msg+disk cost models (1988 hardware)
}

// E7 reproduces the headline claim: the integrated NonStop SQL executes
// DebitCredit with per-transaction costs at or below the pre-existing
// ENSCRIBE DBMS — despite SQL's higher-level interface.
func E7(txns int) ([]E7Result, *Table, error) {
	table := &Table{
		ID:    "E7",
		Title: "DebitCredit per-transaction cost: NonStop SQL vs ENSCRIBE",
		Claim: "an SQL system which matches the performance of the pre-existing DBMS",
		Cols: []Col{
			label("system"), label("txns"), counted("msgs/txn"), counted("KB/txn"),
			counted("audit B/txn"), counted("disk IO/txn"), modeled("est. 1988 ms/txn"),
		},
	}
	scale := debitcredit.Scale{Branches: 5, TellersPerBr: 10, AccountsPerBr: 200}
	var results []E7Result
	run := func(name string, fieldAudit bool, exec func(*rig, *debitcredit.Bank) error) error {
		r, err := newRig(cluster.Options{}, 4)
		if err != nil {
			return err
		}
		defer r.close()
		bank := debitcredit.Defs([]string{"$DATA1", "$DATA2", "$DATA3", "$DATA4"}, fieldAudit)
		if err := bank.Create(r.fs, scale); err != nil {
			return err
		}
		r.c.Net.ResetStats()
		r.c.Nodes[0].Trail.ResetStats()
		for _, v := range []string{"$DATA1", "$DATA2", "$DATA3", "$DATA4"} {
			r.c.DP(v).ResetVolumeStats()
		}
		if err := exec(r, bank); err != nil {
			return err
		}
		ns := r.c.Net.Stats()
		ts := r.c.Nodes[0].Trail.Stats()
		var ios uint64
		var devTime time.Duration
		diskModel := disk.DefaultCostModel()
		for _, v := range []string{"$DATA1", "$DATA2", "$DATA3", "$DATA4"} {
			vs := r.c.DP(v).VolumeStats()
			ios += vs.IOs()
			devTime += diskModel.Estimate(vs)
		}
		estPerTxn := (msg.DefaultCostModel().Estimate(ns) + devTime) / time.Duration(txns)
		res := E7Result{
			System:       name,
			Txns:         txns,
			MsgsPerTxn:   float64(ns.Requests) / float64(txns),
			BytesPerTxn:  float64(ns.Bytes()) / float64(txns) / 1024,
			AuditPerTxn:  float64(ts.BytesAppended) / float64(txns),
			DiskIOPerTxn: float64(ios) / float64(txns),
		}
		res.EstMsPerTxn = float64(estPerTxn) / 1e6
		results = append(results, res)
		table.Rows = append(table.Rows, []string{
			name, d(txns),
			fmt.Sprintf("%.1f", res.MsgsPerTxn),
			fmt.Sprintf("%.2f", res.BytesPerTxn),
			fmt.Sprintf("%.0f", res.AuditPerTxn),
			fmt.Sprintf("%.2f", res.DiskIOPerTxn),
			fmt.Sprintf("%.1f", res.EstMsPerTxn),
		})
		return nil
	}
	if err := run("ENSCRIBE (read+rewrite, full-image audit)", false, func(r *rig, bank *debitcredit.Bank) error {
		files := bank.OpenEnscribe(r.fs)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < txns; i++ {
			if err := bank.RunEnscribe(r.fs, files, debitcredit.Generate(rng, scale)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if err := run("NonStop SQL (pushdown, field-compressed audit)", true, func(r *rig, bank *debitcredit.Bank) error {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < txns; i++ {
			if err := bank.RunSQL(r.fs, debitcredit.Generate(rng, scale)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	table.Notes = append(table.Notes,
		"SQL meets/beats ENSCRIBE on every counter: the integration savings pay for the higher-level language")
	return results, table, nil
}
