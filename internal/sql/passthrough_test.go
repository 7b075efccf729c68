package sql_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// passThroughCases are single-table SELECTs beside a twin that returns
// the same rows and cannot be pass-through: the same statement with ORDER
// BY the primary key, which a key-ordered scan already satisfies, so the
// twin fetches the same records and then decodes, re-inflates, sorts and
// projects them — the materialised path. forward says whether stmt itself
// is pass-through; the ones that are not (the whole record out of order, a
// repeated column, an expression) are here to show they still answer the
// same. Tables: M (three partitions, the third empty; NULLs in dept and
// bonus), CK (composite key, two partitions) and INNR (indexed on label,
// whose probe returns the records in key order).
var passThroughCases = []struct {
	stmt    string
	orderBy string // the twin is stmt + " ORDER BY " + orderBy, before any LIMIT
	args    []record.Value
	forward bool
}{
	// The select list in schema order, permuted, with NULL-bearing columns.
	{"SELECT id, pay FROM m WHERE id >= 20 AND id < 140", "id", nil, true},
	{"SELECT pay, id FROM m WHERE id >= 20 AND id < 140", "id", nil, true},
	{"SELECT bonus, dept, id FROM m", "id", nil, true},
	{"SELECT dept FROM m WHERE grade = 1", "id", nil, true},
	{"SELECT pay, id FROM m WHERE id >= ? AND id < ? AND grade < ?", "id",
		[]record.Value{record.Int(20), record.Int(140), record.Int(2)}, true},
	// The whole record: SELECT *, and every column named in order.
	{"SELECT * FROM m", "id", nil, true},
	{"SELECT * FROM m WHERE bonus > 3", "id", nil, true},
	{"SELECT id, dept, grade, pay, bonus FROM m WHERE id < 50", "id", nil, true},
	{"SELECT a, b, v FROM ck WHERE a >= 2", "a, b", nil, true},
	{"SELECT v, b FROM ck WHERE a = 4", "a, b", nil, true},
	// Nothing qualifies; nothing is asked for.
	{"SELECT pay, id FROM m WHERE id >= 200", "id", nil, true},
	{"SELECT pay, id FROM m WHERE pay < -1", "id", nil, true},
	// LIMIT truncates.
	{"SELECT pay, id FROM m WHERE id >= 20 LIMIT 7", "id", nil, true},
	{"SELECT * FROM m LIMIT 120", "id", nil, true},
	{"SELECT pay, id FROM m LIMIT 0", "id", nil, true},
	// A READ: hit, miss, a residual predicate that keeps and one that
	// rejects, the whole record.
	{"SELECT pay, dept FROM m WHERE id = 42", "id", nil, true},
	{"SELECT pay, dept FROM m WHERE id = ?", "id", []record.Value{record.Int(1000)}, true},
	{"SELECT pay, id FROM m WHERE id = ? AND dept = 'ENG'", "id", []record.Value{record.Int(41)}, true},
	{"SELECT pay, id FROM m WHERE id = ? AND dept = 'ENG'", "id", []record.Value{record.Int(42)}, true},
	{"SELECT * FROM m WHERE id = 7", "id", nil, true},
	{"SELECT v FROM ck WHERE a = ? AND b = ?", "a, b", []record.Value{record.Int(2), record.Int(3)}, true},
	// An index probe: permuted, the whole record, a residual predicate that
	// keeps and one that rejects, a LIMIT. The requester checks and cuts the
	// records as it does a READ's.
	{"SELECT wt, k FROM innr WHERE label = 'L3'", "k", nil, true},
	{"SELECT * FROM innr WHERE label = 'L4'", "k", nil, true},
	{"SELECT wt, k FROM innr WHERE label = ? AND wt > ?", "k", []record.Value{record.String("L5"), record.Int(30)}, true},
	{"SELECT wt, k FROM innr WHERE label = 'L5' AND wt > 100", "k", nil, true},
	{"SELECT k, label FROM innr WHERE label = 'L6' LIMIT 3", "k", nil, true},
	{"SELECT label, wt + 1 FROM innr WHERE label = 'L7'", "k", nil, false},
	// Not pass-through, same answer: every column out of order (the plan
	// asks for the whole record, which comes in schema order), a column
	// twice (the plan asks for it once), an expression, a constant.
	{"SELECT bonus, pay, grade, dept, id FROM m WHERE id < 50", "id", nil, false},
	{"SELECT pay, pay FROM m WHERE id < 50", "id", nil, false},
	{"SELECT v, v FROM ck WHERE a = 2 AND b = 3", "a, b", nil, false},
	{"SELECT id, pay + 1 FROM m WHERE id < 50", "id", nil, false},
	{"SELECT id, 7 FROM m WHERE id < 5", "id", nil, false},
}

// twin is the case's statement forced down the materialised path.
func twin(stmt, orderBy string) string {
	body, limit, hasLimit := strings.Cut(stmt, " LIMIT ")
	body += " ORDER BY " + orderBy
	if hasLimit {
		body += " LIMIT " + limit
	}
	return body
}

// sameFetch reports whether a case's twin fetches exactly what the case
// does, so that their messages, bytes and locks must agree. It does not
// when the ORDER BY names a column the select list lacks (the twin asks
// the Disk Process for one column more), nor for a LIMIT with pushdown
// off (the case stops reading early, the twin's sort reads everything).
func sameFetch(stmt, orderBy string, pushdown bool) bool {
	list, _, _ := strings.Cut(strings.TrimPrefix(stmt, "SELECT "), " FROM ")
	for _, col := range strings.Split(orderBy, ", ") {
		if list != "*" && !strings.Contains(", "+list+",", ", "+col+",") {
			return false
		}
	}
	return pushdown || !strings.Contains(stmt, " LIMIT ")
}

// heldLocks counts the locks held at the test volumes' Disk Processes.
func heldLocks(d *db) (n int) {
	for _, v := range testVolumes {
		n += d.c.DP(v).Locks().Held()
	}
	return n
}

// TestPassThroughDifferential holds the pass-through path to the
// materialised one. Every case runs prepared and — without arguments — ad
// hoc, with pushdown on and off, outside a transaction, inside one, and
// inside one FOR BROWSE ACCESS; its twin runs beside it. Required: the
// same rows, value for value, everywhere; a pass-through statement's
// serving-entry result is encoded rows that are byte for byte the
// encoding of those values, and nothing else's is; the statement and its
// twin cost the same FS-DP messages and bytes; and a transaction that ran
// the statement holds the locks one that ran the twin holds.
func TestPassThroughDifferential(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)

	type traffic struct{ msgs, bytes uint64 }
	run := func(text string, args []record.Value) (*sql.Result, traffic) {
		t.Helper()
		p, err := d.s.Prepare(text)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", text, err)
		}
		before := d.c.Net.Stats()
		res, err := d.s.ExecPrepared(p, args...)
		if err != nil {
			t.Fatalf("ExecPrepared(%q, %v): %v", text, args, err)
		}
		after := d.c.Net.Stats()
		if res.Encoded != nil {
			t.Fatalf("%q: ExecPrepared returned %d rows still encoded", text, len(res.Encoded))
		}
		if len(args) == 0 {
			if adhoc := d.exec(t, text); !reflect.DeepEqual(adhoc, res) {
				t.Errorf("%q: prepared and ad hoc diverge\nprepared:\n%s\nad hoc:\n%s", text, sql.FormatResult(res), sql.FormatResult(adhoc))
			}
		}
		return res, traffic{after.Requests - before.Requests, after.Bytes() - before.Bytes()}
	}

	for _, c := range passThroughCases {
		var first *sql.Result
		for _, push := range []bool{true, false} {
			d.s.SetPushdown(push)
			for _, mode := range []string{"autocommit", "transaction", "browse in transaction"} {
				stmt, twinStmt := c.stmt, twin(c.stmt, c.orderBy)
				if mode == "browse in transaction" {
					stmt, twinStmt = stmt+" FOR BROWSE ACCESS", twinStmt+" FOR BROWSE ACCESS"
				}
				where := "pushdown=" + map[bool]string{true: "on", false: "off"}[push] + ", " + mode + ": " + stmt

				var held, twinHeld int
				if mode != "autocommit" {
					d.exec(t, "BEGIN WORK")
				}
				res, cost := run(stmt, c.args)
				if mode != "autocommit" {
					held = heldLocks(d)
					d.exec(t, "COMMIT WORK")
					d.exec(t, "BEGIN WORK")
				}
				want, twinCost := run(twinStmt, c.args)
				if mode != "autocommit" {
					twinHeld = heldLocks(d)
					d.exec(t, "COMMIT WORK")
				}

				if !reflect.DeepEqual(res, want) {
					t.Errorf("%s: diverges from its materialised twin\ngot:\n%s\ntwin:\n%s", where, sql.FormatResult(res), sql.FormatResult(want))
				}
				if first == nil {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Errorf("%s: diverges from its first run\ngot:\n%s\nfirst:\n%s", where, sql.FormatResult(res), sql.FormatResult(first))
				}
				if sameFetch(c.stmt, c.orderBy, push) {
					if cost != twinCost {
						t.Errorf("%s: %d messages and %d bytes, the twin %d and %d", where, cost.msgs, cost.bytes, twinCost.msgs, twinCost.bytes)
					}
					if held != twinHeld {
						t.Errorf("%s: %d locks held after it, %d after the twin", where, held, twinHeld)
					}
				}
				if mode == "browse in transaction" && held != 0 {
					t.Errorf("%s: %d locks held after a browse", where, held)
				}
				if mode == "transaction" && len(res.Rows) > 0 && held == 0 {
					t.Errorf("%s: no lock held after reading %d rows in a transaction", where, len(res.Rows))
				}

				// The serving entry point: encoded rows for a pass-through
				// statement, and they are these rows.
				p, err := d.s.Prepare(stmt)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := d.s.ExecPreparedEncoded(p, c.args...)
				if err != nil {
					t.Fatalf("%s: ExecPreparedEncoded: %v", where, err)
				}
				if forwarded := enc.Rows == nil && (enc.Encoded != nil || len(res.Rows) == 0); forwarded != c.forward {
					t.Errorf("%s: pass-through %v, want %v (%d rows, %d encoded)", where, forwarded, c.forward, len(enc.Rows), len(enc.Encoded))
				}
				if c.forward {
					if len(enc.Encoded) != len(res.Rows) || enc.Affected != res.Affected || !reflect.DeepEqual(enc.Columns, res.Columns) {
						t.Fatalf("%s: %d encoded rows (affected %d, columns %v) for a result of %d (%d, %v)", where,
							len(enc.Encoded), enc.Affected, enc.Columns, len(res.Rows), res.Affected, res.Columns)
					}
					for i, row := range res.Rows {
						if !bytes.Equal(enc.Encoded[i], record.Encode(row)) {
							t.Errorf("%s: row %d travels as %x, its values encode to %x", where, i, enc.Encoded[i], record.Encode(row))
						}
					}
				}
			}
		}
	}
	d.s.SetPushdown(true)
	if n := heldLocks(d); n != 0 {
		t.Errorf("%d locks left behind", n)
	}

	// The twin of each pass-through statement is not pass-through: the
	// comparison above is between two paths.
	for _, c := range passThroughCases {
		p, err := d.s.Prepare(twin(c.stmt, c.orderBy))
		if err != nil {
			t.Fatal(err)
		}
		if enc, err := d.s.ExecPreparedEncoded(p, c.args...); err != nil || enc.Encoded != nil {
			t.Errorf("%q: the twin came back with %d encoded rows, %v", p.SQL, len(enc.Encoded), err)
		}
	}
}

// TestPassThroughProjectionFollowsTheSelectList: what EXPLAIN prints for a
// pass-through statement is what travels — the Disk Process is asked for
// the select list's columns in the select list's order — and a statement
// that is not pass-through keeps schema order.
func TestPassThroughProjectionFollowsTheSelectList(t *testing.T) {
	d := newDB(t)
	loadMatrix(t, d)
	for _, c := range []struct{ stmt, proj string }{
		{"SELECT pay, id FROM m WHERE grade = 1", "projection at Disk Process: PAY, ID\n"},
		{"SELECT bonus, dept, id FROM m", "projection at Disk Process: BONUS, DEPT, ID\n"},
		{"SELECT pay, id FROM m WHERE grade = 1 ORDER BY id", "projection at Disk Process: ID, PAY\n"},
		{"SELECT pay, pay FROM m WHERE grade = 1", "projection at Disk Process: PAY\n"},
		{"SELECT pay + 1, id FROM m WHERE grade = 1", "projection at Disk Process: ID, PAY\n"},
	} {
		plan, err := d.s.Explain(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, c.proj) {
			t.Errorf("%q: want %q in\n%s", c.stmt, strings.TrimSpace(c.proj), plan)
		}
	}
	for _, whole := range []string{"SELECT * FROM m WHERE grade = 1", "SELECT bonus, pay, grade, dept, id FROM m WHERE grade = 1"} {
		plan, err := d.s.Explain(whole)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "projection at Disk Process") {
			t.Errorf("%q asks for the whole record, yet the plan projects:\n%s", whole, plan)
		}
	}
}
