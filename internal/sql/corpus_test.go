package sql_test

import (
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
// contributing zero rows to a group, and shapes that must fall back
// (DISTINCT).
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
}

// matrixQueries is the prepared-vs-ad-hoc corpus: both suites above plus
// a key-range scan and a Top-N.
func matrixQueries() []string {
	qs := append([]string(nil), aggDiffQueries...)
	qs = append(qs, joinDiffQueries...)
	return append(qs,
		"SELECT id, pay FROM m WHERE id >= 20 AND id < 40 ORDER BY id",
		"SELECT id FROM m ORDER BY id LIMIT 7")
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

// loadMatrix builds all three tables.
func loadMatrix(t testing.TB, d *db) {
	t.Helper()
	d.exec(t, createM)
	loadM(t, d)
	loadJoinTables(t, d)
}
