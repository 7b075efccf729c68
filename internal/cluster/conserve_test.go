package cluster_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// TestMoneyConservedUnderEviction is the wall-clock benchmark's txn-file
// shape as a correctness test: sessions move one unit between accounts
// on two volumes (two-phase commit) and write a history row, each on its
// own key stripe so no two sessions ever touch one row, against a buffer
// pool several times smaller than the table, with pre-fetch and the
// background writer on. Every miss evicts, most evictions clean a dirty
// page through the WAL gate with the shard mutex dropped — the window in
// which a second loader of the same block used to install a second Page
// and lose whichever update landed on the orphan. The books must balance
// and every acknowledged commit must have left exactly one history row.
//
// Two seconds of the sync-per-commit leg failed nine runs in ten before
// the fix (with the group-commit timer of the time every commit parked
// for 10 ms and the window never opened; device-paced group commit opens
// it just as wide, so that leg runs too). Under the race detector
// (-short: half a second) the timing shifts and the window all but
// closes; that run is for the detector, not for the books.
func TestMoneyConservedUnderEviction(t *testing.T) {
	t.Run("sync-per-commit", func(t *testing.T) { moneyConserved(t, true) })
	t.Run("group-commit", func(t *testing.T) { moneyConserved(t, false) })
}

func moneyConserved(t *testing.T, disableGroupCommit bool) {
	const (
		vols     = 4
		sessions = 24
		rows     = 24000 // 6000 per volume: ~150 leaf pages against 32 slots
		stride   = 1000000
	)
	run := 2 * time.Second
	if testing.Short() {
		run = 500 * time.Millisecond
	}
	c, err := cluster.New(cluster.Options{
		Prefetch: true, WriteBehind: true, CacheSlots: 32, DisableGroupCommit: disableGroupCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var names []string
	for v := 0; v < vols; v++ {
		name := fmt.Sprintf("$DATA%d", v+1)
		if _, err := c.AddVolume(0, v, name); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	atRest(t, c, names...)
	catalog := sql.NewCatalog(names)
	sess := make([]*sql.Session, sessions)
	for i := range sess {
		sess[i] = sql.NewSession(catalog, c.NewFS(0, i%vols))
	}
	part := func(per int) string {
		return fmt.Sprintf(`PARTITION ON ("$DATA1", "$DATA2" FROM %d, "$DATA3" FROM %d, "$DATA4" FROM %d)`, per, 2*per, 3*per)
	}
	step := rows / vols
	mustExec(t, sess[0], `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT, pad CHAR(64)) `+part(step))
	mustExec(t, sess[0], `CREATE TABLE hist (seq INTEGER PRIMARY KEY, acct INTEGER) `+part(sessions*stride/vols))
	acct, err := catalog.Table("acct")
	if err != nil {
		t.Fatal(err)
	}
	for p, pt := range acct.Partitions {
		batch := make([]record.Row, 0, step)
		for id := p * step; id < (p+1)*step; id++ {
			batch = append(batch, record.Row{record.Int(int64(id)), record.Float(0), record.String("................................................................")})
		}
		if err := c.DP(pt.Server).BulkLoad(acct.Name, batch); err != nil {
			t.Fatal(err)
		}
	}
	prep := func(q string) *sql.Prepared {
		p, err := sess[0].Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	debit := prep(`UPDATE acct SET bal = bal - 1 WHERE id = ?`)
	credit := prep(`UPDATE acct SET bal = bal + 1 WHERE id = ?`)
	hist := prep(`INSERT INTO hist VALUES (?, ?)`)

	var acked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	deadline := time.Now().Add(run)
	for i := range sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, r := sess[i], rand.New(rand.NewSource(int64(i)+1))
			pick := func(vol int) int64 {
				return int64(vol*step + i + sessions*r.Intn(step/sessions))
			}
			for seq := int64(i) * stride; time.Now().Before(deadline); seq++ {
				from := r.Intn(vols)
				a, b := pick(from), pick((from+1+r.Intn(vols-1))%vols)
				if _, err := s.Exec("BEGIN"); err != nil {
					errs <- err
					return
				}
				for _, st := range []struct {
					p    *sql.Prepared
					args []record.Value
				}{
					{debit, []record.Value{record.Int(a)}},
					{credit, []record.Value{record.Int(b)}},
					{hist, []record.Value{record.Int(seq), record.Int(a)}},
				} {
					if res, err := s.ExecPrepared(st.p, st.args...); err != nil || res.Affected != 1 {
						errs <- fmt.Errorf("transfer %d->%d: affected %v, err %v", a, b, res, err)
						return
					}
				}
				if _, err := s.Exec("COMMIT"); err != nil {
					errs <- err
					return
				}
				acked.Add(1)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, sess[0], `SELECT SUM(bal) FROM acct`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 0 {
		t.Errorf("SUM(bal) = %v after %d transfers, want 0", res.Rows, acked.Load())
	}
	res = mustExec(t, sess[0], `SELECT COUNT(*) FROM hist`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != acked.Load() {
		t.Errorf("COUNT(hist) = %v, want %d acknowledged commits", res.Rows, acked.Load())
	}
	if acked.Load() == 0 {
		t.Error("no transfer committed")
	}
}

func mustExec(t *testing.T, s *sql.Session, q string) *sql.Result {
	t.Helper()
	res, err := s.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}
