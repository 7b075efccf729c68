package sql_test

import (
	"testing"

	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// TestTransactionAllocationCeilings pins what transaction control and the
// DebitCredit transaction cost in allocations in process, every layer
// under the session included: File System, message system, Disk Process,
// locks, audit and commit. BEGIN and COMMIT are served from the plan cache
// like any other statement, so an empty pair is the transaction's own
// state and the two results: 5 allocations, 15 while both were lexed and
// parsed on every Exec. The transaction — BEGIN, a debit and a credit on
// two volumes by unique key (UPDATE^KEY), a history INSERT, COMMIT by
// two-phase commit — measured 147 while, besides, each keyed write read
// its record before it rewrote it and the Disk Process copied every write
// request whole, and 116 while every write and commit message, its reply,
// the coordinator's requests, the Disk Process's decoded requests, SET
// lists, rows, images, audit records and transaction states, and every
// lock grant were allocated afresh. Each has an owner that reuses it now
// (DESIGN.md §7.4), and 18 are left: the test's own argument lists, the
// transaction and the results, the INSERT's row and substituted
// parameters, a unique key's plan, and the file name a service slot
// decodes when its last request named another file. A regression here is
// a buffer that lost its owner, a parse, a second descent or a copy of a
// request that crept back onto the write path.
func TestTransactionAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := newDB(t)
	d.exec(t, `CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT) PARTITION ON ("$DATA1", "$DATA2" FROM 100)`)
	d.exec(t, `CREATE TABLE hist (seq INTEGER PRIMARY KEY, acct INTEGER, delta FLOAT)`)
	d.exec(t, "BEGIN")
	for i := 0; i < 200; i++ {
		d.exec(t, "INSERT INTO acct VALUES ("+itoa(i)+", 0)")
	}
	d.exec(t, "COMMIT")
	prepare := func(text string) *sql.Prepared {
		p, err := d.s.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	debit := prepare("UPDATE acct SET bal = bal - 1 WHERE id = ?")
	credit := prepare("UPDATE acct SET bal = bal + 1 WHERE id = ?")
	hist := prepare("INSERT INTO hist VALUES (?, ?, ?)")

	pair := testing.AllocsPerRun(200, func() {
		d.exec(t, "BEGIN")
		d.exec(t, "COMMIT")
	})
	seq := 0
	transfer := func() {
		seq++
		from, to := seq%100, 100+seq%100
		d.exec(t, "BEGIN")
		for _, st := range []struct {
			p    *sql.Prepared
			args []record.Value
		}{
			{debit, []record.Value{record.Int(int64(from))}},
			{credit, []record.Value{record.Int(int64(to))}},
			{hist, []record.Value{record.Int(int64(seq)), record.Int(int64(from)), record.Float(-1)}},
		} {
			if res, err := d.s.ExecPrepared(st.p, st.args...); err != nil || res.Affected != 1 {
				t.Fatalf("transfer %d: %v, %v", seq, res, err)
			}
		}
		d.exec(t, "COMMIT")
	}
	transfer()
	txn := testing.AllocsPerRun(200, transfer)
	t.Logf("empty BEGIN/COMMIT pair: %.0f allocations; DebitCredit transaction: %.0f", pair, txn)
	const pairCeiling, txnCeiling = 5, 19
	if pair > pairCeiling {
		t.Errorf("an empty BEGIN/COMMIT pair allocates %.0f times, ceiling %d", pair, pairCeiling)
	}
	if txn > txnCeiling {
		t.Errorf("a DebitCredit transaction allocates %.0f times, ceiling %d", txn, txnCeiling)
	}
}
