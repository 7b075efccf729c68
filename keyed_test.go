package nonstopsql_test

import (
	"fmt"
	"strings"
	"testing"

	"nonstopsql"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// vals spells a parameter vector: nil is NULL.
func vals(vs ...any) []record.Value {
	out := make([]record.Value, len(vs))
	for i, v := range vs {
		switch v := v.(type) {
		case int:
			out[i] = record.Int(int64(v))
		case float64:
			out[i] = record.Float(v)
		case string:
			out[i] = record.String(v)
		}
	}
	return out
}

// keyedWriteCases pairs a write that pins the whole primary key with its
// oracle, the same key written as a one-key range, which takes the subset
// path (or, where the write stays in the requester, the same requester-side
// path). msgs is what the keyed form costs inside a transaction: one
// request, none for a key value no key equals, -1 for the requester-side
// forms. The cases run in order and leave their changes behind.
var keyedWriteCases = []struct {
	name          string
	keyed, oracle string
	args, rngArgs []record.Value
	msgs          int
	err           string
}{
	{"update", "UPDATE acct SET bal = bal + ? WHERE id = ?", "UPDATE acct SET bal = bal + ? WHERE id >= ? AND id <= ?",
		vals(10.5, 5), vals(10.5, 5, 5), 1, ""},
	{"update, literal", "UPDATE acct SET bal = bal * 2 WHERE id = 13", "UPDATE acct SET bal = bal * 2 WHERE id >= 13 AND id <= 13",
		nil, nil, 1, ""},
	{"update, key not there", "UPDATE acct SET bal = bal + ? WHERE id = ?", "UPDATE acct SET bal = bal + ? WHERE id >= ? AND id <= ?",
		vals(10.5, 999), vals(10.5, 999, 999), 1, ""},
	{"update, NULL key", "UPDATE acct SET bal = bal + ? WHERE id = ?", "UPDATE acct SET bal = bal + ? WHERE id >= ? AND id <= ?",
		vals(10.5, nil), vals(10.5, nil, nil), 0, ""},
	{"update, fraction on the INTEGER key", "UPDATE acct SET bal = bal + ? WHERE id = ?", "UPDATE acct SET bal = bal + ? WHERE id >= ? AND id <= ?",
		vals(10.5, 1.5), vals(10.5, 1.5, 1.5), 0, ""},
	{"update, integral FLOAT key", "UPDATE acct SET bal = bal + ? WHERE id = ?", "UPDATE acct SET bal = bal + ? WHERE id >= ? AND id <= ?",
		vals(10.5, 7.0), vals(10.5, 7.0, 7.0), 1, ""},
	{"update, residual true", "UPDATE acct SET bal = bal * 2, name = ? WHERE id = ? AND name = ?",
		"UPDATE acct SET bal = bal * 2, name = ? WHERE id >= ? AND id <= ? AND name = ?",
		vals("x6", 6, "n6"), vals("x6", 6, 6, "n6"), 1, ""},
	{"update, residual false", "UPDATE acct SET bal = bal * 2, name = ? WHERE id = ? AND name = ?",
		"UPDATE acct SET bal = bal * 2, name = ? WHERE id >= ? AND id <= ? AND name = ?",
		vals("x7", 7, "nope"), vals("x7", 7, 7, "nope"), 1, ""},
	{"update, CHECK violated", "UPDATE acct SET bal = bal - ? WHERE id = ?", "UPDATE acct SET bal = bal - ? WHERE id >= ? AND id <= ?",
		vals(1e9, 9), vals(1e9, 9, 9), 1, "CHECK constraint violated"},
	{"update of the key", "UPDATE acct SET id = id + 1000 WHERE id = ?", "UPDATE acct SET id = id + 1000 WHERE id >= ? AND id <= ?",
		vals(10), vals(10, 10), -1, ""},
	{"update of an indexed column", "UPDATE ix SET grp = grp + 1 WHERE id = ?", "UPDATE ix SET grp = grp + 1 WHERE id >= ? AND id <= ?",
		vals(3), vals(3, 3), -1, ""},
	{"update of a column no index covers", "UPDATE ix SET bal = bal + 1 WHERE id = ?", "UPDATE ix SET bal = bal + 1 WHERE id >= ? AND id <= ?",
		vals(4), vals(4, 4), 1, ""},
	{"delete", "DELETE FROM acct WHERE id = ?", "DELETE FROM acct WHERE id >= ? AND id <= ?",
		vals(8), vals(8, 8), 1, ""},
	{"delete, residual false", "DELETE FROM acct WHERE id = ? AND bal < ?", "DELETE FROM acct WHERE id >= ? AND id <= ? AND bal < ?",
		vals(11, 0), vals(11, 11, 0), 1, ""},
	{"delete, residual true", "DELETE FROM acct WHERE id = ? AND bal >= ?", "DELETE FROM acct WHERE id >= ? AND id <= ? AND bal >= ?",
		vals(12, 0), vals(12, 12, 0), 1, ""},
	{"delete, key not there", "DELETE FROM acct WHERE id = ?", "DELETE FROM acct WHERE id >= ? AND id <= ?",
		vals(999), vals(999, 999), 1, ""},
	{"delete, NULL key", "DELETE FROM acct WHERE id = ?", "DELETE FROM acct WHERE id >= ? AND id <= ?",
		vals(nil), vals(nil, nil), 0, ""},
	{"delete from an indexed table", "DELETE FROM ix WHERE id = ?", "DELETE FROM ix WHERE id >= ? AND id <= ?",
		vals(5), vals(5, 5), -1, ""},
}

// auditedWrites renders the data records on the trail past the first from,
// as images only: the transaction and its LSNs differ between databases.
func auditedWrites(t *testing.T, db *nonstopsql.Database, from int) (images []string, n int) {
	t.Helper()
	node := db.Cluster().Nodes[0]
	node.Trail.Flush()
	recs, err := wal.Scan(node.AuditVol, node.Trail.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[from:] {
		switch r.Type {
		case wal.RecInsert, wal.RecUpdate, wal.RecDelete:
			images = append(images, fmt.Sprintf("%s %s %s %x before=%x after=%x field-compressed=%v compensation=%v",
				r.Type, r.Volume, r.File, r.Key, r.Before, r.After, r.FieldCompressed, r.Compensation))
		}
	}
	return images, len(recs)
}

// TestKeyedWriteDifferential holds the keyed write to the subset path it
// replaced. Every case runs as its keyed form on one database and as its
// oracle on another, identically loaded: the statements must affect the
// same rows, fail the same way, leave the same tables, and audit the same
// field-compressed images byte for byte — in the process with autocommit,
// in the process inside an explicit transaction (where the keyed form's
// messages are counted: one, or none for a key value no key equals), and
// over TCP.
func TestKeyedWriteDifferential(t *testing.T) {
	type leg struct {
		name string
		tx   bool
		tcp  bool
	}
	for _, l := range []leg{{"in process, autocommit", false, false}, {"in process, transaction", true, false}, {"TCP", false, true}} {
		t.Run(l.name, func(t *testing.T) {
			type side struct {
				db   *nonstopsql.Database
				s    *nonstopsql.Session
				pool *nsqlclient.Pool
				from int
			}
			open := func() *side {
				db, s, _, pool := served(t, nonstopsql.Config{})
				for _, stmt := range []string{
					`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT, name VARCHAR(20), CHECK (bal >= 0))
						PARTITION ON ("$DATA1", "$DATA2" FROM 10)`,
					`CREATE TABLE ix (id INTEGER PRIMARY KEY, grp INTEGER, bal FLOAT)`,
					`CREATE INDEX ix_grp ON ix (grp)`,
				} {
					s.MustExec(stmt)
				}
				for i := 0; i < 20; i++ {
					s.MustExec(fmt.Sprintf("INSERT INTO acct VALUES (%d, %d.5, 'n%d')", i, 100*i, i))
					if i < 10 {
						s.MustExec(fmt.Sprintf("INSERT INTO ix VALUES (%d, %d, %d.0)", i, i%3, i))
					}
				}
				sd := &side{db: db, s: s, pool: pool}
				_, sd.from = auditedWrites(t, db, 0)
				return sd
			}
			keyed, oracle := open(), open()
			// exec runs one statement on one side, and counts the messages
			// it sent when it ran inside a transaction of its own.
			exec := func(sd *side, text string, args []record.Value) (res *nonstopsql.Result, msgs uint64, err error) {
				if l.tcp {
					st, err := sd.pool.Prepare(text)
					if err != nil {
						return nil, 0, err
					}
					res, err = st.Exec(args...)
					return res, 0, err
				}
				p, err := sd.s.Prepare(text)
				if err != nil {
					return nil, 0, err
				}
				if l.tx {
					sd.s.MustExec("BEGIN WORK")
				}
				net0 := sd.db.Cluster().Net.Stats().Requests
				res, err = sd.s.ExecPrepared(p, args...)
				msgs = sd.db.Cluster().Net.Stats().Requests - net0
				if l.tx {
					end := "COMMIT WORK"
					if err != nil {
						end = "ROLLBACK WORK"
					}
					sd.s.MustExec(end)
				}
				return res, msgs, err
			}
			for _, c := range keyedWriteCases {
				kres, msgs, kerr := exec(keyed, c.keyed, c.args)
				ores, _, oerr := exec(oracle, c.oracle, c.rngArgs)
				if (kerr == nil) != (c.err == "") || (oerr == nil) != (c.err == "") ||
					kerr != nil && (!strings.Contains(kerr.Error(), c.err) || !strings.Contains(oerr.Error(), c.err)) {
					t.Fatalf("%s: keyed form: %v; oracle: %v; want error %q", c.name, kerr, oerr, c.err)
				}
				if kerr == nil && kres.Affected != ores.Affected {
					t.Errorf("%s: keyed form affected %d rows, the oracle %d", c.name, kres.Affected, ores.Affected)
				}
				if l.tx && c.msgs >= 0 && msgs != uint64(c.msgs) {
					t.Errorf("%s: the keyed form sent %d messages, want %d", c.name, msgs, c.msgs)
				}
				plan, err := keyed.s.Explain(c.keyed)
				if err != nil {
					t.Fatal(err)
				}
				if keyedPath := strings.Contains(plan, "^KEY"); keyedPath != (c.msgs >= 0) || strings.Contains(plan, "^SUBSET") {
					t.Errorf("%s: the keyed form's plan:\n%s", c.name, plan)
				}
				for _, table := range []string{"acct", "ix"} {
					q := "SELECT * FROM " + table + " ORDER BY id"
					if got, want := nonstopsql.FormatResult(keyed.s.MustExec(q)), nonstopsql.FormatResult(oracle.s.MustExec(q)); got != want {
						t.Fatalf("%s: %s differs\nkeyed form:\n%s\noracle:\n%s", c.name, table, got, want)
					}
				}
				var kimg, oimg []string
				kimg, keyed.from = auditedWrites(t, keyed.db, keyed.from)
				oimg, oracle.from = auditedWrites(t, oracle.db, oracle.from)
				if strings.Join(kimg, "\n") != strings.Join(oimg, "\n") {
					t.Errorf("%s: audit differs\nkeyed form:\n%s\noracle:\n%s", c.name, strings.Join(kimg, "\n"), strings.Join(oimg, "\n"))
				}
			}
		})
	}
}
