package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/record"
)

// E13Result is one DPWorkers row of the intra-DP concurrency
// experiment.
type E13Result struct {
	Workers     int
	Clients     int
	Txns        int
	Commits     uint64
	EffConc     float64 // measured effective concurrency inside the DP
	MaxInFlight int     // high-water mark of requests in service at once
	LatchWaits  uint64  // page-latch grants that had to block
	Checksum    uint64  // order-independent hash of ACCOUNT+TELLER+BRANCH
	Modeled     time.Duration
	TPS         float64
	Speedup     float64 // TPS / TPS(Workers=1)
}

// E13 measures what per-page latching buys the Disk Process's process
// group: DebitCredit with eight concurrent clients against a SINGLE
// data volume, sweeping the group's worker count 1→8. With a tree-wide
// lock the group was a group in name only — every request serialized at
// the root. With latch crabbing, requests overlap except where they
// truly touch the same page, so effective concurrency (and with it
// modeled TPS) scales with the workers. Each client banks at its own
// branch, so transactions never contend on record locks and the final
// database is independent of interleaving: the balance files must hash
// byte-identically at every worker count.
func E13(txnsPerClient int) ([]E13Result, *Table, error) {
	const clients = 8
	scale := debitcredit.Scale{Branches: clients, TellersPerBr: 10, AccountsPerBr: 100}
	diskModel := disk.DefaultCostModel()
	netModel := msg.DefaultCostModel()

	var results []E13Result
	for _, workers := range []int{1, 2, 4, 8} {
		r, err := newRig(cluster.Options{CPUsPerNode: 4, DPWorkers: workers}, 1)
		if err != nil {
			return nil, nil, err
		}
		bank := debitcredit.Defs([]string{"$DATA1"}, true)
		if err := bank.Create(r.fs, scale); err != nil {
			r.close()
			return nil, nil, err
		}
		d := r.c.DP("$DATA1")
		r.c.Net.ResetStats()
		r.c.Nodes[0].Trail.ResetStats()
		d.ResetVolumeStats()
		d.ResetStats()

		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				f := r.c.NewFS(0, id%3)
				// Client id banks only at branch id, with integer-dollar
				// deltas: balances stay exact in float64 and the final
				// state is a pure set-sum, independent of interleaving.
				rng := rand.New(rand.NewSource(int64(1000 + id)))
				for i := 0; i < txnsPerClient; i++ {
					t := debitcredit.Txn{
						AID:   int64(id*scale.AccountsPerBr + rng.Intn(scale.AccountsPerBr)),
						TID:   int64(id*scale.TellersPerBr + rng.Intn(scale.TellersPerBr)),
						BID:   int64(id),
						Delta: float64(rng.Intn(2001) - 1000),
					}
					if err := bank.RunSQL(f, t); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			r.close()
			return nil, nil, err
		}

		eff, _ := d.Concurrency()
		if eff < 1 {
			eff = 1
		}
		st := d.Stats()
		sum, err := bankChecksum(r.fs, bank)
		if err != nil {
			r.close()
			return nil, nil, err
		}
		// The serial cost is the counted work — every message and every
		// data-volume I/O priced by the standard models. The process
		// group overlaps that work by the measured effective
		// concurrency; what it cannot overlap (waiting behind a latched
		// page) the meter has already excluded.
		serial := netModel.Estimate(r.c.Net.Stats()) + diskModel.Estimate(d.VolumeStats())
		modeled := time.Duration(float64(serial) / eff)
		txns := clients * txnsPerClient
		res := E13Result{
			Workers: workers, Clients: clients, Txns: txns,
			Commits:     r.c.Nodes[0].Trail.Stats().CommitRecords,
			EffConc:     eff,
			MaxInFlight: st.MaxInFlight,
			LatchWaits:  st.LatchWaits,
			Checksum:    sum,
			Modeled:     modeled,
			TPS:         float64(txns) / modeled.Seconds(),
		}
		results = append(results, res)
		r.close()
	}

	base := results[0]
	for i := range results {
		res := &results[i]
		res.Speedup = res.TPS / base.TPS
		if res.Checksum != base.Checksum {
			return nil, nil, fmt.Errorf("E13: workers=%d changed the database (checksum %x vs %x)",
				res.Workers, res.Checksum, base.Checksum)
		}
		if res.Commits != base.Commits {
			return nil, nil, fmt.Errorf("E13: workers=%d committed %d txns, want %d",
				res.Workers, res.Commits, base.Commits)
		}
	}
	for i := 1; i < len(results); i++ {
		if results[i].Workers <= 4 && results[i].TPS <= results[i-1].TPS {
			return nil, nil, fmt.Errorf("E13: modeled TPS did not improve from %d to %d workers (%.0f vs %.0f)",
				results[i-1].Workers, results[i].Workers, results[i-1].TPS, results[i].TPS)
		}
	}

	table := &Table{
		ID:    "E13",
		Title: "intra-DP concurrency: DebitCredit TPS vs Disk Process group size (1 volume, 8 clients)",
		Claim: "the Disk Process is implemented as a process group so multiple requests can be served in parallel on one volume",
		Cols: []Col{
			label("workers"), label("clients"), counted("txns"), observed("eff. conc"),
			observed("max in-flight"), observed("latch waits"), observed("modeled ms"),
			observed("TPS"), observed("speedup"),
		},
	}
	for _, res := range results {
		table.Rows = append(table.Rows, []string{
			d(res.Workers), d(res.Clients), d(res.Txns),
			fmt.Sprintf("%.2f", res.EffConc), d(res.MaxInFlight), u(res.LatchWaits),
			fmt.Sprintf("%.1f", float64(res.Modeled)/float64(time.Millisecond)),
			fmt.Sprintf("%.0f", res.TPS), f1(res.Speedup) + "x",
		})
	}
	table.Notes = append(table.Notes,
		"identical balance-file checksums and commit counts at every worker count: concurrency must not change results",
		"eff. conc is measured request overlap inside the DP with latch-wait time excluded; modeled ms = (msg+disk cost)/overlap",
		"one client per branch: contention is page latches and the audit trail, never record locks",
	)
	return results, table, nil
}

// bankChecksum hashes the three balance files (ACCOUNT, TELLER, BRANCH)
// into one order-independent sum. HISTORY is excluded: its HID sequence
// depends on commit interleaving, while the balance files are a pure
// set-sum of the applied transactions.
func bankChecksum(f *fs.FS, bank *debitcredit.Bank) (uint64, error) {
	var sum uint64
	for _, def := range []*fs.FileDef{bank.Account, bank.Teller, bank.Branch} {
		rows := f.Select(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Range: keys.All()})
		for {
			row, _, ok := rows.Next()
			if !ok {
				break
			}
			h := fnv.New64a()
			h.Write([]byte(def.Name))
			h.Write(record.Encode(row))
			sum += h.Sum64()
		}
		if err := rows.Err(); err != nil {
			return 0, err
		}
	}
	return sum, nil
}
