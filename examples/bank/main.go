// Bank: the DebitCredit workload of the NonStop SQL Benchmark Workbook,
// driven concurrently through both interfaces the paper compares —
// NonStop SQL (update expressions pushed to the Disk Processes,
// field-compressed audit) and ENSCRIBE (read + rewrite, full-record
// audit) — then a consistency audit, and finally a Disk Process crash
// with takeover-style recovery from the shared audit trail.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"nonstopsql"
	"nonstopsql/internal/debitcredit"
)

func main() {
	db, err := nonstopsql.Open(nonstopsql.Config{VolumesPerNode: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	scale := debitcredit.Scale{Branches: 10, TellersPerBr: 10, AccountsPerBr: 500}
	bank := debitcredit.Defs(db.Volumes(), true)
	loader := db.FileSystem(0, 0)
	if err := bank.Create(loader, scale); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bank loaded: %d branches, %d tellers, %d accounts\n",
		scale.Branches, scale.Tellers(), scale.Accounts())

	// Concurrent SQL tellers.
	const tellers, txnsEach = 8, 250
	db.ResetStats()
	var wg sync.WaitGroup
	errCh := make(chan error, tellers)
	for t := 0; t < tellers; t++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f := db.FileSystem(0, id%4)
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < txnsEach; i++ {
				if err := bank.RunSQL(f, debitcredit.Generate(rng, scale)); err != nil {
					errCh <- err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		log.Fatal(err)
	}
	st := db.Stats()
	total := tellers * txnsEach
	fmt.Printf("%d SQL transactions: %.1f msgs/txn, %.0f audit B/txn, %.2f commits/log-flush\n",
		total,
		float64(st.Messages)/float64(total),
		float64(st.AuditBytes)/float64(total),
		float64(st.Commits)/float64(st.AuditFlushes))

	// Consistency: sum(account) == sum(teller) == sum(branch).
	acc, tel, br, err := bank.Audit(loader)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consistency audit: accounts=%.2f tellers=%.2f branches=%.2f\n", acc, tel, br)

	// Crash the account volume's Disk Process mid-service and recover.
	accountVol := bank.Account.Partitions[0].Server
	fmt.Printf("\ncrashing %s (processor failure)...\n", accountVol)
	if err := db.CrashVolume(accountVol); err != nil {
		log.Fatal(err)
	}
	if err := db.RestartVolume(accountVol, 3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s recovered from the audit trail on CPU 3 (restart on another processor)\n", accountVol)

	acc2, _, br2, err := bank.Audit(loader)
	if err != nil {
		log.Fatal(err)
	}
	if acc2 != acc || br2 != br {
		log.Fatalf("recovery changed balances: %.2f vs %.2f", acc2, acc)
	}
	fmt.Printf("post-recovery audit matches: accounts=%.2f branches=%.2f\n", acc2, br2)
}
