package debitcredit_test

import (
	"math"
	"math/rand"
	"testing"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/debitcredit"
	"nonstopsql/internal/fs"
)

func newBankRig(t testing.TB, fieldAudit bool) (*cluster.Cluster, *fs.FS, *debitcredit.Bank) {
	t.Helper()
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	vols := []string{"$B1", "$B2", "$B3", "$B4"}
	for i, v := range vols {
		if _, err := c.AddVolume(0, i%3, v); err != nil {
			t.Fatal(err)
		}
	}
	f := c.NewFS(0, 3)
	bank := debitcredit.Defs(vols, fieldAudit)
	scale := debitcredit.Scale{Branches: 3, TellersPerBr: 3, AccountsPerBr: 20}
	if err := bank.Create(f, scale); err != nil {
		t.Fatal(err)
	}
	return c, f, bank
}

func TestSQLTransactionsBalance(t *testing.T) {
	c, f, bank := newBankRig(t, true)
	_ = c
	scale := debitcredit.Scale{Branches: 3, TellersPerBr: 3, AccountsPerBr: 20}
	rng := rand.New(rand.NewSource(7))
	var want float64
	for i := 0; i < 100; i++ {
		txn := debitcredit.Generate(rng, scale)
		if err := bank.RunSQL(f, txn); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		want += txn.Delta
	}
	acc, tel, br, err := bank.Audit(f)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	if math.Abs(acc-want) > eps || math.Abs(tel-want) > eps || math.Abs(br-want) > eps {
		t.Errorf("balances diverged: accounts=%v tellers=%v branches=%v want=%v", acc, tel, br, want)
	}
}

func TestEnscribeTransactionsBalance(t *testing.T) {
	_, f, bank := newBankRig(t, false)
	files := bank.OpenEnscribe(f)
	scale := debitcredit.Scale{Branches: 3, TellersPerBr: 3, AccountsPerBr: 20}
	rng := rand.New(rand.NewSource(7))
	var want float64
	for i := 0; i < 100; i++ {
		txn := debitcredit.Generate(rng, scale)
		if err := bank.RunEnscribe(f, files, txn); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		want += txn.Delta
	}
	acc, _, br, err := bank.Audit(f)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-want) > 1e-6 || math.Abs(br-want) > 1e-6 {
		t.Errorf("balances diverged: %v %v want %v", acc, br, want)
	}
}

func TestSQLUsesFewerMessagesThanEnscribe(t *testing.T) {
	// The E7 shape: per-transaction message counts. SQL pushes the three
	// balance updates as expressions (1 message each); ENSCRIBE needs
	// read + rewrite (2 each). Both add a history insert and commit.
	scale := debitcredit.Scale{Branches: 3, TellersPerBr: 3, AccountsPerBr: 20}
	run := func(fieldAudit bool, exec func(f *fs.FS, bank *debitcredit.Bank, txn debitcredit.Txn) error) uint64 {
		c, f, bank := newBankRig(t, fieldAudit)
		rng := rand.New(rand.NewSource(3))
		c.Net.ResetStats()
		for i := 0; i < 50; i++ {
			if err := exec(f, bank, debitcredit.Generate(rng, scale)); err != nil {
				t.Fatal(err)
			}
		}
		return c.Net.Stats().Requests
	}
	sqlMsgs := run(true, func(f *fs.FS, bank *debitcredit.Bank, txn debitcredit.Txn) error {
		return bank.RunSQL(f, txn)
	})
	var files map[string]*fs.FileDef
	_ = files
	enscribeMsgs := run(false, func(f *fs.FS, bank *debitcredit.Bank, txn debitcredit.Txn) error {
		return bank.RunEnscribe(f, bank.OpenEnscribe(f), txn)
	})
	if sqlMsgs >= enscribeMsgs {
		t.Errorf("SQL %d messages, ENSCRIBE %d — SQL should use fewer", sqlMsgs, enscribeMsgs)
	}
	t.Logf("messages per 50 txns: SQL=%d ENSCRIBE=%d", sqlMsgs, enscribeMsgs)
}

func TestGenerateWithinScale(t *testing.T) {
	scale := debitcredit.Scale{Branches: 10, TellersPerBr: 10, AccountsPerBr: 1000}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		txn := debitcredit.Generate(rng, scale)
		if txn.BID < 0 || txn.BID >= int64(scale.Branches) {
			t.Fatalf("bad bid %d", txn.BID)
		}
		// Teller and account belong to the branch.
		if txn.TID/int64(scale.TellersPerBr) != txn.BID {
			t.Fatalf("teller %d not in branch %d", txn.TID, txn.BID)
		}
		if txn.AID/int64(scale.AccountsPerBr) != txn.BID {
			t.Fatalf("account %d not in branch %d", txn.AID, txn.BID)
		}
	}
}
