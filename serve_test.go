package nonstopsql_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"nonstopsql"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/nsqlwire"
)

func TestServeSQLOverTCP(t *testing.T) {
	db, err := nonstopsql.Open(nonstopsql.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Addr() == "" {
		t.Fatal("no listen address")
	}

	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: 2, ReplyTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Exec(`CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), salary FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := pool.Exec(fmt.Sprintf(`INSERT INTO emp VALUES (%d, 'e%d', %d)`, i, i, 1000*i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := pool.Exec(`SELECT name FROM emp WHERE salary > 7500 ORDER BY empno`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3:\n%s", len(res.Rows), nonstopsql.FormatResult(res))
	}

	// Statement errors are application-level: they travel inside the
	// reply, not as transport failures, and the pool stays usable.
	if _, err := pool.Exec(`SELECT * FROM nothere`); err == nil {
		t.Fatal("query on a missing table succeeded")
	}
	if err := pool.Ping(); err != nil {
		t.Fatalf("pool unusable after a statement error: %v", err)
	}

	// Transaction control is refused over the wire: sessions are pooled
	// per request.
	if _, err := pool.Exec(`BEGIN`); err == nil || !strings.Contains(err.Error(), "autocommit") {
		t.Fatalf("BEGIN over the wire: %v", err)
	}

	// Text ops work remotely.
	tables, err := nsqlclient.Tables(pool)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(tables), "emp") {
		t.Fatalf("tables: %q", tables)
	}
	plan, err := pool.Explain(`SELECT name FROM emp WHERE empno = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}

	// Every remote conversation crossed a node boundary: network-distance
	// traffic was counted, every conversation has a latency sample, and
	// requests reconcile.
	st := db.Cluster().Net.Stats()
	if st.Requests != st.Replies {
		t.Fatalf("requests %d != replies %d", st.Requests, st.Replies)
	}
	if st.Network == 0 || db.Cluster().Net.LatencyAll().Count() != st.Requests {
		t.Fatalf("%d DistNetwork messages, %d latency samples for %d requests", st.Network, db.Cluster().Net.LatencyAll().Count(), st.Requests)
	}
	if ws := db.WireStats(); ws.FramesIn == 0 || ws.FramesIn != ws.FramesOut {
		t.Fatalf("wire stats: %+v", ws)
	}
}

func TestServeSQLDrain(t *testing.T) {
	db, err := nonstopsql.Open(nonstopsql.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.Ping(); err != nil {
		t.Fatal(err)
	}

	if err := db.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// After the drain the front door is gone: new work fails cleanly.
	if err := pool.Ping(); err == nil {
		t.Fatal("ping succeeded after drain")
	}
}

// workload is the differential-test statement list: DDL, writes, reads,
// deletes — deterministic results (ordered reads, no timings).
var workload = []string{
	`CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), dept VARCHAR(10), salary FLOAT)`,
	`INSERT INTO emp VALUES (1, 'alice', 'eng', 40000)`,
	`INSERT INTO emp VALUES (2, 'bob', 'eng', 32000)`,
	`INSERT INTO emp VALUES (3, 'carol', 'mfg', 36000)`,
	`INSERT INTO emp VALUES (4, 'dave', 'mfg', 30000)`,
	`INSERT INTO emp VALUES (5, 'erin', 'hq', 52000)`,
	`SELECT empno, name, salary FROM emp WHERE salary > 31000 ORDER BY empno`,
	`SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept ORDER BY dept`,
	`UPDATE emp SET salary = salary * 1.1 WHERE dept = 'eng'`,
	`SELECT name, salary FROM emp WHERE dept = 'eng' ORDER BY empno`,
	`DELETE FROM emp WHERE empno = 4`,
	`SELECT COUNT(*) FROM emp`,
	// Unique-key SELECTs (READ): hit, deleted, never there, with a filter.
	`SELECT * FROM emp WHERE empno = 3`,
	`SELECT name FROM emp WHERE empno = 4`,
	`SELECT name FROM emp WHERE empno = 99`,
	`SELECT name, salary FROM emp WHERE empno = 5 AND dept = 'hq'`,
}

// The AGG^FIRST/NEXT conversation past its first block: 300 rows whose grp
// cycles through 100 values in key order (the groups ride the re-drives
// and ship once), then a GROUP BY on the unique key (more groups than a
// reply block holds: it ships full blocks and re-drives in between).
func init() {
	rows := make([]string, 300)
	for i := range rows {
		rows[i] = fmt.Sprintf(`(%d, %d, %d.5)`, i, i%100, i)
	}
	workload = append(workload,
		`CREATE TABLE cyc (id INTEGER PRIMARY KEY, grp INTEGER, v FLOAT)`,
		`INSERT INTO cyc VALUES `+strings.Join(rows, ", "),
		`SELECT grp, COUNT(*), SUM(v) FROM cyc GROUP BY grp`,
		`SELECT id, COUNT(*), SUM(v), MAX(grp) FROM cyc GROUP BY id`)
}

// TestDifferentialTransport runs the same workload over the in-process
// transport and over TCP, against identically configured databases, and
// demands byte-identical replies, identical message-network accounting,
// and wire bytes bounded by payload plus framing overhead. The
// in-process transport is the deterministic test double; anything the
// TCP path does differently is a transport bug.
func TestDifferentialTransport(t *testing.T) {
	// In-process: a msg.Client conversing with "$SQL" from the same
	// ingress processor the wire server uses.
	dbA, err := nonstopsql.Open(nonstopsql.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dbA.Close()
	if err := dbA.ServeSQL(4); err != nil {
		t.Fatal(err)
	}
	inproc := dbA.Cluster().Net.NewClient(msg.ProcessorID{Node: -1, CPU: 0})

	// TCP: the client pool against a served twin.
	dbB, err := nonstopsql.Open(nonstopsql.Config{Listen: "127.0.0.1:0", ServeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer dbB.Close()
	pool, err := nsqlclient.Dial(dbB.Addr(), nsqlclient.Options{Conns: 2, ReplyTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var payloadBytes, frames int
	for _, stmt := range workload {
		payload := nsqlwire.EncodeRequest(&nsqlwire.Request{Op: nsqlwire.OpExec, Arg: stmt})
		a, errA := inproc.Send(nsqlwire.ServerName, payload)
		b, errB := pool.Send(nsqlwire.ServerName, payload)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%q: transport disagreement: inproc err=%v, tcp err=%v", stmt, errA, errB)
		}
		if errA != nil {
			t.Fatalf("%q: %v", stmt, errA)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%q: replies differ:\ninproc: %x\ntcp:    %x", stmt, a, b)
		}
		payloadBytes += len(payload) + len(b)
		frames += 2
	}

	// Same conversations, same distances, same payload bytes: the two
	// message networks must have booked identical traffic.
	stA, stB := dbA.Cluster().Net.Stats(), dbB.Cluster().Net.Stats()
	if stA != stB {
		t.Fatalf("message accounting diverged:\ninproc: %+v\ntcp:    %+v", stA, stB)
	}
	if stA.Requests != stA.Replies {
		t.Fatalf("requests %d != replies %d", stA.Requests, stA.Replies)
	}

	// The TCP wire moved exactly the payloads plus bounded per-frame
	// framing (4B length + 1B kind + 8B corr + server-name prefix).
	ws := pool.Stats()
	total := int(ws.BytesIn + ws.BytesOut)
	const perFrame = 4 + 1 + 8 + 1 + len(nsqlwire.ServerName)
	if total < payloadBytes || total > payloadBytes+frames*perFrame {
		t.Fatalf("wire bytes %d outside [%d, %d]", total, payloadBytes, payloadBytes+frames*perFrame)
	}
	if int(ws.FramesIn+ws.FramesOut) != frames {
		t.Fatalf("wire frames %d, want %d", ws.FramesIn+ws.FramesOut, frames)
	}
}
