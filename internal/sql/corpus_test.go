package sql_test

import (
	"math"
	"testing"

	"nonstopsql/internal/record"
)

// The statement corpora the differential tests share. Each differential
// runs its corpus two ways and compares the results; TestExplainIsThePlan
// runs all of them a third way and compares what EXPLAIN says with what
// executed.

// aggDiffQueries covers the edge semantics that make aggregates easy to
// get wrong at a distance: empty inputs (MIN/MAX/SUM go NULL, COUNT goes
// 0), NULLs in both group keys and aggregated columns, partitions
// contributing zero rows to a group, and shapes that fold in the
// requester (DISTINCT, an expression argument), where HAVING and ORDER BY
// must find a DISTINCT aggregate by its own name.
var aggDiffQueries = []string{
	"SELECT COUNT(*) FROM m",
	"SELECT COUNT(bonus) FROM m",
	"SELECT SUM(bonus) FROM m",
	"SELECT MIN(pay), MAX(pay) FROM m",
	"SELECT AVG(pay) FROM m",
	"SELECT dept, COUNT(*) FROM m GROUP BY dept",
	"SELECT dept, COUNT(bonus), SUM(bonus) FROM m GROUP BY dept",
	"SELECT dept, MIN(pay), MAX(dept) FROM m GROUP BY dept",
	"SELECT dept, AVG(pay) FROM m GROUP BY dept",
	"SELECT dept, grade, COUNT(*), SUM(bonus) FROM m GROUP BY dept, grade",
	"SELECT dept, COUNT(*) FROM m WHERE pay > 50 GROUP BY dept",
	"SELECT dept, COUNT(*) FROM m WHERE pay < -1000 GROUP BY dept", // empty subset
	"SELECT SUM(bonus), MIN(bonus), MAX(bonus), COUNT(*) FROM m WHERE pay < -1000",
	"SELECT dept, SUM(pay) FROM m GROUP BY dept HAVING COUNT(*) > 20",
	"SELECT dept, COUNT(*) FROM m GROUP BY dept ORDER BY dept DESC",
	"SELECT dept, COUNT(*) FROM m GROUP BY dept ORDER BY COUNT(*) DESC LIMIT 2",
	"SELECT grade, MAX(pay) FROM m WHERE id >= 150 AND id < 250 GROUP BY grade",
	"SELECT bonus, COUNT(*), SUM(pay) FROM m GROUP BY bonus", // groups cycling in key order
	"SELECT id, COUNT(*), MAX(dept) FROM m GROUP BY id",      // every record a group
	"SELECT COUNT(DISTINCT dept) FROM m",                     // not decomposable: must fall back
	"SELECT dept, COUNT(DISTINCT grade) FROM m GROUP BY dept",
	"SELECT dept, COUNT(dept) FROM m GROUP BY dept HAVING COUNT(DISTINCT dept) = 1",
	"SELECT grade, COUNT(grade), COUNT(DISTINCT grade) FROM m WHERE id < 10 GROUP BY grade ORDER BY COUNT(DISTINCT grade), grade",
	"SELECT dept, SUM(pay + 1) FROM m GROUP BY dept",
	// The Disk Process finds a group two ways: a lone INTEGER key by its
	// value, any other key by its key bytes. GK holds NULLs, both signs
	// and the INTEGER extremes in every key column.
	"SELECT n, COUNT(*), SUM(f), MIN(s) FROM gk GROUP BY n",
	"SELECT n, COUNT(*), MAX(id) FROM gk WHERE n < 1 GROUP BY n",
	"SELECT n, s, COUNT(*), MAX(f) FROM gk GROUP BY n, s",
	"SELECT f, COUNT(*), SUM(id), MIN(n) FROM gk GROUP BY f",
	"SELECT s, COUNT(n), MIN(n), MAX(n) FROM gk GROUP BY s",
}

var joinDiffQueries = []string{
	// PK probe route (duplicated fk values: probes deduplicate).
	"SELECT o.id, i.label FROM outr o, innr i WHERE o.fk = i.k ORDER BY o.id",
	"SELECT COUNT(*) FROM outr o, innr i WHERE o.fk = i.k",
	"SELECT o.id, i.wt FROM outr o, innr i WHERE o.fk = i.k AND i.wt > 40 ORDER BY o.id",
	// Secondary-index probe route.
	"SELECT o.id, i.k FROM outr o, innr i WHERE o.tag = i.label ORDER BY o.id, i.k",
	"SELECT COUNT(*) FROM outr o, innr i WHERE o.tag = i.label AND i.wt < 30",
	// Two join conjuncts: not batchable, same answer both ways.
	"SELECT o.id FROM outr o, innr i WHERE o.fk = i.k AND o.id = i.wt ORDER BY o.id",
	// A GROUP BY over a join folds the combined rows in the requester.
	"SELECT i.label, COUNT(*), SUM(o.id), MAX(i.wt) FROM outr o, innr i WHERE o.fk = i.k GROUP BY i.label",
}

// matrixQueries is the prepared-vs-ad-hoc corpus: both suites above plus
// a key-range scan, a Top-N, and the pass-through shapes (a permuted
// select list, the whole record, a LIMIT, a READ — passthrough_test.go
// holds them to the materialised path; here they meet the plan cache).
func matrixQueries() []string {
	qs := append([]string(nil), aggDiffQueries...)
	qs = append(qs, joinDiffQueries...)
	return append(qs,
		"SELECT id, pay FROM m WHERE id >= 20 AND id < 40 ORDER BY id",
		"SELECT id FROM m ORDER BY id LIMIT 7",
		"SELECT pay, id FROM m WHERE id >= 20 AND id < 140",
		"SELECT * FROM m WHERE bonus > 3",
		"SELECT bonus, dept, id FROM m LIMIT 7",
		"SELECT pay, dept FROM m WHERE id = 42")
}

// matrixParamCases pairs a literal statement with its parameterized twin.
var matrixParamCases = []struct {
	adhoc string
	prep  string
	args  []record.Value
}{
	{"SELECT dept, COUNT(*) FROM m WHERE pay > 50 GROUP BY dept",
		"SELECT dept, COUNT(*) FROM m WHERE pay > ? GROUP BY dept",
		[]record.Value{record.Int(50)}},
	{"SELECT grade, MAX(pay) FROM m WHERE id >= 150 AND id < 250 GROUP BY grade",
		"SELECT grade, MAX(pay) FROM m WHERE id >= ? AND id < ? GROUP BY grade",
		[]record.Value{record.Int(150), record.Int(250)}},
	{"SELECT dept, SUM(pay) FROM m GROUP BY dept HAVING COUNT(*) > 20",
		"SELECT dept, SUM(pay) FROM m GROUP BY dept HAVING COUNT(*) > ?",
		[]record.Value{record.Int(20)}},
	{"SELECT id, pay FROM m WHERE id >= 20 AND id < 40 ORDER BY id",
		"SELECT id, pay FROM m WHERE id >= ? AND id < ? ORDER BY id",
		[]record.Value{record.Int(20), record.Int(40)}},
	{"SELECT o.id, i.wt FROM outr o, innr i WHERE o.fk = i.k AND i.wt > 40 ORDER BY o.id",
		"SELECT o.id, i.wt FROM outr o, innr i WHERE o.fk = i.k AND i.wt > ? ORDER BY o.id",
		[]record.Value{record.Int(40)}},
	{"SELECT id FROM m WHERE dept = 'ENG' AND pay > 100.5 ORDER BY id",
		"SELECT id FROM m WHERE dept = ? AND pay > ? ORDER BY id",
		[]record.Value{record.String("ENG"), record.Float(100.5)}},
	{"SELECT pay, id FROM m WHERE id >= 20 AND id < 140 AND grade < 2",
		"SELECT pay, id FROM m WHERE id >= ? AND id < ? AND grade < ?",
		[]record.Value{record.Int(20), record.Int(140), record.Int(2)}},
	// Markers outside WHERE/HAVING: the select list (the header is the
	// value, as in the literal twin), an aggregate argument, GROUP BY
	// and ORDER BY expressions, and a join's select list.
	{"SELECT id, 7 FROM m WHERE id < 5 ORDER BY id",
		"SELECT id, ? FROM m WHERE id < 5 ORDER BY id",
		[]record.Value{record.Int(7)}},
	{"SELECT id, pay + 7 FROM m WHERE id < 5 ORDER BY id",
		"SELECT id, pay + ? FROM m WHERE id < ? ORDER BY id",
		[]record.Value{record.Int(7), record.Int(5)}},
	{"SELECT dept, SUM(pay * 2) FROM m GROUP BY dept",
		"SELECT dept, SUM(pay * ?) FROM m GROUP BY dept",
		[]record.Value{record.Int(2)}},
	{"SELECT COUNT(*), MAX(pay) FROM m GROUP BY grade + 1",
		"SELECT COUNT(*), MAX(pay) FROM m GROUP BY grade + ?",
		[]record.Value{record.Int(1)}},
	{"SELECT id FROM m WHERE id < 10 ORDER BY pay * -1",
		"SELECT id FROM m WHERE id < 10 ORDER BY pay * ?",
		[]record.Value{record.Int(-1)}},
	{"SELECT o.id, i.wt + 5 FROM outr o, innr i WHERE o.fk = i.k AND o.id < 30 ORDER BY o.id",
		"SELECT o.id, i.wt + ? FROM outr o, innr i WHERE o.fk = i.k AND o.id < ? ORDER BY o.id",
		[]record.Value{record.Int(5), record.Int(30)}},
}

// pointReadCases is the unique-key corpus: a SELECT whose predicate pins
// the whole primary key (prep, with markers; adhoc, its literal twin), and
// the same record named by a range the compiler cannot turn into a READ
// (rng: k >= v AND k <= v). All three must return the same bytes. via is
// the access EXPLAIN ANALYZE of prep must name ("" = not the point of the
// case, or it varies with pushdown).
var pointReadCases = []struct {
	prep  string
	args  []record.Value
	adhoc string
	rng   string
	via   string
}{
	// Hit; miss before the first record, past the last, and in a partition
	// with no records at all.
	{"SELECT id, dept, pay FROM m WHERE id = ?", []record.Value{record.Int(42)},
		"SELECT id, dept, pay FROM m WHERE id = 42",
		"SELECT id, dept, pay FROM m WHERE id >= 42 AND id <= 42", "] via READ"},
	{"SELECT * FROM m WHERE ? = id", []record.Value{record.Int(7)},
		"SELECT * FROM m WHERE 7 = id",
		"SELECT * FROM m WHERE id >= 7 AND id <= 7", "] via READ"},
	{"SELECT id FROM m WHERE id = ?", []record.Value{record.Int(-5)},
		"SELECT id FROM m WHERE id = -5",
		"SELECT id FROM m WHERE id >= -5 AND id <= -5", "] via READ"},
	{"SELECT id FROM m WHERE id = ?", []record.Value{record.Int(190)},
		"SELECT id FROM m WHERE id = 190",
		"SELECT id FROM m WHERE id >= 190 AND id <= 190", "] via READ"},
	{"SELECT id FROM m WHERE id = ?", []record.Value{record.Int(1000)},
		"SELECT id FROM m WHERE id = 1000",
		"SELECT id FROM m WHERE id >= 1000 AND id <= 1000", "] via READ"},
	// A NULL key value equals nothing; an integral FLOAT value on the
	// INTEGER key narrows to the integer on every path and finds the record
	// (it used to encode as a FLOAT key and miss; TestFloatBoundOnIntegerKey).
	{"SELECT id FROM m WHERE id = ?", []record.Value{record.Null},
		"SELECT id FROM m WHERE id = NULL",
		"SELECT id FROM m WHERE id >= NULL AND id <= NULL", "a NULL key value equals nothing"},
	{"SELECT id, pay FROM m WHERE id = ?", []record.Value{record.Float(42)},
		"SELECT id, pay FROM m WHERE id = 42.0",
		"SELECT id, pay FROM m WHERE id >= 42.0 AND id <= 42.0", "] via READ"},
	// Composite key: every column pinned is a record, in any order; a
	// prefix is a subset and stays a scan.
	{"SELECT v FROM ck WHERE a = ? AND b = ?", []record.Value{record.Int(2), record.Int(3)},
		"SELECT v FROM ck WHERE a = 2 AND b = 3",
		"SELECT v FROM ck WHERE a = 2 AND b >= 3 AND b <= 3", "] via READ"},
	{"SELECT a, b, v FROM ck WHERE b = ? AND ? = a", []record.Value{record.Int(9), record.Int(5)},
		"SELECT a, b, v FROM ck WHERE b = 9 AND 5 = a",
		"SELECT a, b, v FROM ck WHERE a = 5 AND b >= 9 AND b <= 9", "] via READ"},
	{"SELECT v FROM ck WHERE a = ? AND b = ?", []record.Value{record.Int(2), record.Null},
		"SELECT v FROM ck WHERE a = 2 AND b = NULL",
		"SELECT v FROM ck WHERE a = 2 AND b >= NULL AND b <= NULL", "a NULL key value equals nothing"},
	{"SELECT b, v FROM ck WHERE a = ? ORDER BY b", []record.Value{record.Int(2)},
		"SELECT b, v FROM ck WHERE a = 2 ORDER BY b",
		"SELECT b, v FROM ck WHERE a >= 2 AND a <= 2 ORDER BY b", "via GET^FIRST/NEXT"},
	// A residual predicate, true and false, literal and marker.
	{"SELECT id FROM m WHERE id = ? AND dept = 'ENG'", []record.Value{record.Int(41)},
		"SELECT id FROM m WHERE id = 41 AND dept = 'ENG'",
		"SELECT id FROM m WHERE id >= 41 AND id <= 41 AND dept = 'ENG'", "requester filter"},
	{"SELECT id FROM m WHERE id = ? AND dept = 'ENG'", []record.Value{record.Int(42)},
		"SELECT id FROM m WHERE id = 42 AND dept = 'ENG'",
		"SELECT id FROM m WHERE id >= 42 AND id <= 42 AND dept = 'ENG'", "requester filter"},
	{"SELECT id, pay FROM m WHERE pay > ? AND id = ?", []record.Value{record.Float(10), record.Int(42)},
		"SELECT id, pay FROM m WHERE pay > 10.0 AND id = 42",
		"SELECT id, pay FROM m WHERE pay > 10.0 AND id >= 42 AND id <= 42", "requester filter"},
	{"SELECT id, pay FROM m WHERE pay > ? AND id = ?", []record.Value{record.Float(100), record.Int(42)},
		"SELECT id, pay FROM m WHERE pay > 100.0 AND id = 42",
		"SELECT id, pay FROM m WHERE pay > 100.0 AND id >= 42 AND id <= 42", "requester filter"},
	// A second bound on the key column is residual, not dropped.
	{"SELECT id FROM m WHERE id = ? AND id = ?", []record.Value{record.Int(5), record.Int(7)},
		"SELECT id FROM m WHERE id = 5 AND id = 7",
		"SELECT id FROM m WHERE id >= 5 AND id <= 5 AND id >= 7 AND id <= 7", "] via READ"},
	{"SELECT id FROM m WHERE id = ? AND id <= ?", []record.Value{record.Int(5), record.Int(5)},
		"SELECT id FROM m WHERE id = 5 AND id <= 5",
		"SELECT id FROM m WHERE id >= 5 AND id <= 5", "] via READ"},
	// LIMIT and ORDER BY over one record.
	{"SELECT id FROM m WHERE id = ? LIMIT 0", []record.Value{record.Int(42)},
		"SELECT id FROM m WHERE id = 42 LIMIT 0",
		"SELECT id FROM m WHERE id >= 42 AND id <= 42 LIMIT 0", "LIMIT 0 is answered"},
	{"SELECT id FROM m WHERE id = ? LIMIT 1", []record.Value{record.Int(42)},
		"SELECT id FROM m WHERE id = 42 LIMIT 1",
		"SELECT id FROM m WHERE id >= 42 AND id <= 42 LIMIT 1", "] via READ"},
	{"SELECT id, pay FROM m WHERE id = ? ORDER BY pay DESC", []record.Value{record.Int(42)},
		"SELECT id, pay FROM m WHERE id = 42 ORDER BY pay DESC",
		"SELECT id, pay FROM m WHERE id >= 42 AND id <= 42 ORDER BY pay DESC", "] via READ"},
	{"SELECT id FROM m WHERE id = ? ORDER BY id LIMIT 1", []record.Value{record.Int(42)},
		"SELECT id FROM m WHERE id = 42 ORDER BY id LIMIT 1",
		"SELECT id FROM m WHERE id >= 42 AND id <= 42 ORDER BY id LIMIT 1", "] via READ"},
	// Aggregates over one record: COUNT(*) keeps its own protocol; the
	// others fold the READ's row in the requester when not pushed down.
	{"SELECT COUNT(*) FROM m WHERE id = ?", []record.Value{record.Int(42)},
		"SELECT COUNT(*) FROM m WHERE id = 42",
		"SELECT COUNT(*) FROM m WHERE id >= 42 AND id <= 42", "via COUNT^FIRST/NEXT"},
	{"SELECT MAX(pay), COUNT(bonus) FROM m WHERE id = ?", []record.Value{record.Int(40)},
		"SELECT MAX(pay), COUNT(bonus) FROM m WHERE id = 40",
		"SELECT MAX(pay), COUNT(bonus) FROM m WHERE id >= 40 AND id <= 40", ""},
	// Joins: the outer side by unique key; the inner side by unique key
	// per outer row (two join conjuncts are not batchable, and with
	// pushdown off nothing is).
	{"SELECT o.id, i.label FROM outr o, innr i WHERE o.id = ? AND o.fk = i.k", []record.Value{record.Int(8)},
		"SELECT o.id, i.label FROM outr o, innr i WHERE o.id = 8 AND o.fk = i.k",
		"SELECT o.id, i.label FROM outr o, innr i WHERE o.id >= 8 AND o.id <= 8 AND o.fk = i.k", "access OUTR: unique key ["},
	{"SELECT o.id, i.label FROM outr o, innr i WHERE o.fk = i.k AND o.id = i.wt AND o.id < ? ORDER BY o.id", []record.Value{record.Int(50)},
		"SELECT o.id, i.label FROM outr o, innr i WHERE o.fk = i.k AND o.id = i.wt AND o.id < 50 ORDER BY o.id",
		"SELECT o.id, i.label FROM outr o, innr i WHERE o.fk >= i.k AND o.fk <= i.k AND o.id = i.wt AND o.id < 50 ORDER BY o.id",
		"access INNR: unique key (K = "},
}

// loadJoinTables creates and fills OUTR (60 rows, NULL and duplicated
// foreign keys) and INNR (80 rows over two partitions, indexed on label).
func loadJoinTables(t testing.TB, d *db) {
	t.Helper()
	d.exec(t, `CREATE TABLE outr (id INTEGER PRIMARY KEY, fk INTEGER, tag VARCHAR(10))`)
	d.exec(t, `CREATE TABLE innr (k INTEGER PRIMARY KEY, label VARCHAR(10), wt INTEGER)
		PARTITION ON ("$DATA1", "$DATA2" FROM 40)`)
	d.exec(t, "CREATE INDEX innr_label ON innr (label)")
	d.exec(t, "BEGIN WORK")
	for i := 0; i < 80; i++ {
		d.exec(t, "INSERT INTO innr VALUES ("+itoa(i)+", 'L"+itoa(i%10)+"', "+itoa(i)+")")
	}
	for i := 0; i < 60; i++ {
		fk := itoa((i * 7) % 80)
		if i%9 == 0 {
			fk = "NULL" // NULL probe values never match
		}
		d.exec(t, "INSERT INTO outr VALUES ("+itoa(i)+", "+fk+", 'L"+itoa(i%10)+"')")
	}
	d.exec(t, "COMMIT WORK")
}

const createM = `CREATE TABLE m (
	id INTEGER PRIMARY KEY,
	dept VARCHAR(10),
	grade INTEGER,
	pay FLOAT,
	bonus INTEGER) PARTITION ON ("$DATA1", "$DATA2" FROM 100, "$DATA3" FROM 200)`

// loadM fills M with NULL group keys, NULL aggregate inputs, and
// $DATA3's key range left empty. Pay values are halves, so float sums
// are exact regardless of merge order.
func loadM(t testing.TB, d *db) {
	t.Helper()
	d.exec(t, "BEGIN WORK")
	for i := 0; i < 180; i++ {
		dept := []string{"'SALES'", "'ENG'", "'HR'", "NULL"}[i%4]
		bonus := itoa(i % 7)
		if i%5 == 0 {
			bonus = "NULL"
		}
		d.exec(t, "INSERT INTO m VALUES ("+itoa(i)+", "+dept+", "+itoa(i%3)+", "+itoa(i)+".5, "+bonus+")")
	}
	d.exec(t, "COMMIT WORK")
}

// createGK is the group-key table: an INTEGER, a FLOAT and a VARCHAR
// column to group by, over two partitions.
const createGK = `CREATE TABLE gk (id INTEGER PRIMARY KEY, n INTEGER, f FLOAT, s VARCHAR(10))
	PARTITION ON ("$DATA1", "$DATA2" FROM 50)`

// loadGK fills GK with 100 records: N cycles through gkInts, F through
// halves of both signs — zero both +0 and −0, which are one group — and S
// through four strings, the empty one included; F and S are NULL now and
// then.
func loadGK(t testing.TB, d *db) {
	t.Helper()
	ins, err := d.s.Prepare("INSERT INTO gk VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := d.s.ExecPrepared(ins, gkRow(i)...); err != nil {
			t.Fatalf("insert gk %d: %v", i, err)
		}
	}
}

// gkInts are GK's N values, in the order its keys meet them.
var gkInts = []record.Value{record.Null, record.Int(0), record.Int(-1), record.Int(math.MinInt64), record.Int(math.MaxInt64),
	record.Int(7), record.Int(-7), record.Int(1 << 40), record.Int(-(1 << 40)), record.Int(12), record.Int(math.MinInt64 + 1)}

// gkRow is GK's record i.
func gkRow(i int) []record.Value {
	f, s := record.Float(float64(i%6-3)/2), record.String([]string{"a", "b", "", "zz"}[i%4])
	if i%12 == 9 {
		f = record.Float(math.Copysign(0, -1))
	}
	if i%7 == 0 {
		f = record.Null
	}
	if i%9 == 0 {
		s = record.Null
	}
	return []record.Value{record.Int(int64(i)), gkInts[i%len(gkInts)], f, s}
}

// loadCK fills CK, the composite-key table: (a, b) for a in 0..5, b in
// 0..9, over two partitions.
func loadCK(t testing.TB, d *db) {
	t.Helper()
	d.exec(t, `CREATE TABLE ck (a INTEGER, b INTEGER, v VARCHAR(10), PRIMARY KEY (a, b))
		PARTITION ON ("$DATA1", "$DATA2" FROM 3)`)
	d.exec(t, "BEGIN WORK")
	for a := 0; a < 6; a++ {
		for b := 0; b < 10; b++ {
			d.exec(t, "INSERT INTO ck VALUES ("+itoa(a)+", "+itoa(b)+", 'v"+itoa(a)+"."+itoa(b)+"')")
		}
	}
	d.exec(t, "COMMIT WORK")
}

// loadMatrix builds all five tables.
func loadMatrix(t testing.TB, d *db) {
	t.Helper()
	d.exec(t, createM)
	loadM(t, d)
	d.exec(t, createGK)
	loadGK(t, d)
	loadJoinTables(t, d)
	loadCK(t, d)
}
