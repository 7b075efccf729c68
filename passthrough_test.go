package nonstopsql_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/record"
)

// served opens a database on a TCP listener and returns it with the three
// ways in: a session in the process, a message client conversing with
// "$SQL" on the in-process transport, and a connection pool over TCP.
func served(t testing.TB, cfg nonstopsql.Config) (*nonstopsql.Database, *nonstopsql.Session, *msg.Client, *nsqlclient.Pool) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	db, err := nonstopsql.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	pool, err := nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: 1, ReplyTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return db, db.Session(0, 0), db.Cluster().Net.NewClient(msg.ProcessorID{Node: -1, CPU: 0}), pool
}

// TestPassThroughTransports: a statement whose rows the endpoint forwards
// untouched answers with the same reply bytes as the same statement run in
// the process and encoded value by value — through a session, through
// "$SQL" on the in-process transport and over TCP, ad hoc and prepared —
// over a table of four partitions scanned one partition at a time, by one
// pipelining scanner and by four concurrent ones. Statements that are not
// pass-through ride along: the two kinds of row share one reply format.
func TestPassThroughTransports(t *testing.T) {
	cases := []struct {
		stmt string
		args []record.Value
	}{
		{"SELECT id, bal FROM acct WHERE id >= 50 AND id < 350 AND grp < 10", nil},
		{"SELECT bal, id FROM acct WHERE id >= ? AND id < ? AND grp < ?", []record.Value{record.Int(50), record.Int(350), record.Int(10)}},
		{"SELECT note, bal FROM acct WHERE id >= 90 AND id < 310", nil},
		{"SELECT * FROM acct", nil},
		{"SELECT * FROM acct WHERE note = 'n7'", nil},
		{"SELECT id, grp, bal, pad, note FROM acct WHERE id < 120", nil},
		{"SELECT bal, id FROM acct WHERE id >= 50 LIMIT 120", nil},
		{"SELECT bal, id FROM acct LIMIT 0", nil},
		{"SELECT bal, id FROM acct WHERE id >= 1000", nil},
		{"SELECT bal, pad FROM acct WHERE id = ?", []record.Value{record.Int(242)}},
		{"SELECT bal, pad FROM acct WHERE id = ?", []record.Value{record.Int(4242)}},
		{"SELECT bal, id FROM acct WHERE id = ? AND grp = 2", []record.Value{record.Int(242)}},
		{"SELECT bal, id FROM acct WHERE id = ? AND grp = 3", []record.Value{record.Int(242)}},
		{"SELECT * FROM acct WHERE id = 399", nil},
		{"SELECT bal, id FROM acct WHERE id >= 50 AND id < 350 FOR BROWSE ACCESS", nil},
		// Materialised: out of order, repeated, computed, sorted, folded.
		{"SELECT note, pad, bal, grp, id FROM acct WHERE id < 120", nil},
		{"SELECT bal, bal FROM acct WHERE id >= 90 AND id < 110", nil},
		{"SELECT id, bal * 2 FROM acct WHERE id >= 90 AND id < 110", nil},
		{"SELECT bal, id FROM acct WHERE id >= 50 AND id < 350 ORDER BY id", nil},
		{"SELECT grp, COUNT(*), SUM(bal) FROM acct GROUP BY grp", nil},
	}
	var replies [][]byte // per case, from the first configuration
	for ci, dop := range []int{0, 1, 4} {
		_, sess, inproc, pool := served(t, nonstopsql.Config{ScanParallel: dop})
		sess.MustExec(`CREATE TABLE acct (id INTEGER PRIMARY KEY, grp INTEGER, bal FLOAT, pad VARCHAR(40), note VARCHAR(10))
			PARTITION ON ("$DATA1", "$DATA2" FROM 100, "$DATA3" FROM 200, "$DATA4" FROM 300)`)
		rows := make([]string, 400)
		for i := range rows {
			note := fmt.Sprintf("'n%d'", i%9)
			if i%4 == 0 {
				note = "NULL"
			}
			rows[i] = fmt.Sprintf("(%d, %d, %d.25, '%s', %s)", i, i%20, i, strings.Repeat("p", i%40), note)
		}
		sess.MustExec("INSERT INTO acct VALUES " + strings.Join(rows, ", "))

		for i, c := range cases {
			where := fmt.Sprintf("ScanParallel %d: %q %v", dop, c.stmt, c.args)
			p, err := sess.Prepare(c.stmt)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			res, err := sess.ExecPrepared(p, c.args...)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			want := nsqlwire.EncodeReply(&nsqlwire.Reply{Columns: res.Columns, Rows: res.Rows, Affected: uint64(res.Affected)})
			if ci == 0 {
				replies = append(replies, want)
			} else if !bytes.Equal(want, replies[i]) {
				t.Errorf("%s: the reply differs from ScanParallel 0's", where)
			}
			for name, tr := range map[string]msg.Transport{"$SQL in process": inproc, "TCP": pool} {
				handle, _, err := nsqlclient.Prepare(tr, c.stmt)
				if err != nil {
					t.Fatalf("%s: PREPARE over %s: %v", where, name, err)
				}
				got, err := tr.Send(nsqlwire.ServerName, nsqlwire.EncodeRequest(&nsqlwire.Request{Op: nsqlwire.OpExecute, Handle: handle, Params: c.args}))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: EXECUTE over %s: %v\n%x, the session's result encodes to\n%x", where, name, err, got, want)
				}
				if len(c.args) > 0 {
					continue
				}
				got, err = tr.Send(nsqlwire.ServerName, nsqlwire.EncodeRequest(&nsqlwire.Request{Op: nsqlwire.OpExec, Arg: c.stmt}))
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: EXEC over %s: %v\n%x, the session's result encodes to\n%x", where, name, err, got, want)
				}
			}
		}
	}
}

// TestHostileRowsStopAtTheDecoder: a pass-through SELECT carries a Disk
// Process's reply rows to the client without reading them, so a reply row
// that is not a record travels further than it used to. It must stop at
// the first decoder it meets — the in-process edge with a "record:" error,
// the client's DecodeReply with "nsqlwire: row N: record: …" — and never
// as a panic, a short row or a damaged connection: the next statement on
// the same session, the same message client and the same TCP connection
// answers. A READ, and an index probe's base-record READs, are validated
// by the requester (View.Reset) before it cuts a field from them, so there
// the refusal is the server's, in the reply — although the probe's SELECT
// is pass-through. The rows are damaged by a relay process standing
// between the File System and a real Disk Process.
func TestHostileRowsStopAtTheDecoder(t *testing.T) {
	db, sess, inproc, pool := served(t, nonstopsql.Config{})
	// $EVIL relays every message to $DATA1 and, when armed, rewrites the
	// rows of the reply.
	var damage atomic.Pointer[func(row []byte) []byte]
	relay := db.Cluster().Net.NewClient(msg.ProcessorID{Node: 0, CPU: 1})
	if _, err := db.Cluster().Net.StartServer("$EVIL", msg.ProcessorID{Node: 0, CPU: 1}, 2, func(req []byte) []byte {
		raw, err := relay.Send("$DATA1", req)
		if err != nil {
			return fsdp.EncodeReply(&fsdp.Reply{Code: fsdp.ErrGeneral, Err: err.Error()})
		}
		f := damage.Load()
		reply, err := fsdp.DecodeReply(raw)
		if f == nil || err != nil || len(reply.Rows) == 0 {
			return raw
		}
		last := len(reply.Rows) - 1
		reply.Rows[last] = (*f)(reply.Rows[last])
		return fsdp.EncodeReply(reply)
	}); err != nil {
		t.Fatal(err)
	}
	sess.MustExec(`CREATE TABLE h (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR(20)) PARTITION ON ("$EVIL")`)
	sess.MustExec(`INSERT INTO h VALUES (1, 10, 'one'), (2, 20, 'two'), (3, 30, 'three')`)
	// The index lies beside, not behind, the relay: only the base record is
	// damaged.
	sess.MustExec(`CREATE INDEX h_v ON h (v) ON "$DATA2"`)

	const scan, read, sane = "SELECT s, id FROM h WHERE id >= 1", "SELECT s, v FROM h WHERE id = 3", "SELECT v, id FROM h WHERE id = 2"
	const probe = "SELECT s, id FROM h WHERE v = 30"
	handles := map[msg.Transport]uint64{}
	for _, tr := range []msg.Transport{inproc, pool} {
		h, _, err := nsqlclient.Prepare(tr, scan)
		if err != nil {
			t.Fatal(err)
		}
		handles[tr] = h
	}
	for name, f := range map[string]func([]byte) []byte{
		"a truncated varint":                      func(row []byte) []byte { return append(row[:len(row)-3:len(row)-3], 1, 0x80) },
		"trailing bytes":                          func(row []byte) []byte { return append(row[:len(row):len(row)], 0, 0) },
		"a field count larger than what follows":  func(row []byte) []byte { return append([]byte{200, 1}, row[1:]...) },
		"a string longer than the row":            func(row []byte) []byte { return []byte{2, 3, 40, 'x', 0} },
		"an unknown tag":                          func(row []byte) []byte { return []byte{2, 9, 0} },
		"nothing at all":                          func([]byte) []byte { return nil },
		"a length prefix of its own in the bytes": func(row []byte) []byte { return append([]byte{byte(len(row))}, row...) },
	} {
		damage.Store(&f)
		check := func(how string, err error, wantPrefix string) {
			t.Helper()
			if err == nil || !strings.HasPrefix(err.Error(), wantPrefix) {
				t.Errorf("%s, %s: error %v, want %q…", name, how, err, wantPrefix)
			}
		}
		_, err := sess.Exec(scan)
		check("session scan", err, "record: ")
		_, err = sess.Exec(read)
		check("session READ", err, "record: ")
		_, err = sess.Exec(probe)
		check("session index probe", err, "record: ")
		for trName, tr := range map[string]msg.Transport{"$SQL in process": inproc, "TCP": pool} {
			_, err = nsqlclient.Exec(tr, scan)
			check(trName+" scan", err, "nsqlwire: row 2: record: ")
			_, err = nsqlclient.Execute(tr, handles[tr], nil...)
			check(trName+" prepared scan", err, "nsqlwire: row 2: record: ")
			_, err = nsqlclient.Exec(tr, read)
			check(trName+" READ", err, "record: ") // refused by View.Reset at the server, before any field is cut
			_, err = nsqlclient.Exec(tr, probe)
			check(trName+" index probe", err, "record: ")
		}

		// Nothing is poisoned: the same session, message client and TCP
		// connection (the pool has one) answer the next statement.
		damage.Store(nil)
		want := func(res *nonstopsql.Result) bool {
			return len(res.Rows) == 1 && len(res.Rows[0]) == 2 && res.Rows[0][0].I == 20 && res.Rows[0][1].I == 2
		}
		if res, err := sess.Exec(sane); err != nil || !want(res) {
			t.Errorf("%s: the session's next statement: %v, %v", name, res, err)
		}
		for trName, tr := range map[string]msg.Transport{"$SQL in process": inproc, "TCP": pool} {
			if res, err := nsqlclient.Exec(tr, sane); err != nil || !want(res) {
				t.Errorf("%s: the next statement over %s: %v, %v", name, trName, res, err)
			}
			if res, err := nsqlclient.Execute(tr, handles[tr]); err != nil || len(res.Rows) != 3 || len(res.Rows[2]) != 2 {
				t.Errorf("%s: the prepared scan over %s, undamaged: %v, %v", name, trName, res, err)
			}
		}
	}
	// A well-formed record of the wrong width on the materialised path,
	// which re-inflates projected rows by ordinal: refused, not a panic.
	narrow := func([]byte) []byte { return record.Encode(record.Row{record.Int(1)}) }
	damage.Store(&narrow)
	if _, err := sess.Exec(scan + " ORDER BY id"); err == nil || !strings.Contains(err.Error(), "protocol violation") {
		t.Errorf("a one-field row for a two-column projection: %v", err)
	}
	damage.Store(nil)
	if ws := pool.Stats(); ws.Conns != 1 || ws.Disconnects != 0 {
		t.Errorf("the TCP connection did not survive: %+v", ws)
	}
}

// TestAllocationCeilings: one served EXECUTE of the benchmark's point
// read, client and server together — request encoded, decoded, the READ,
// the projected row cut from the record's bytes, the reply encoded from
// those bytes and decoded — over "$SQL" on the in-process transport. The
// parent of the change that made the row pass-through measured 44 here
// (50 for the benchmark's whole process per point-read); that change
// measured 41, and 30 once messages were calls and their reply channels
// pooled. Since every hop writes into a buffer its consumer owns — the
// client's pooled request and reply buffer, the statement arena the READ
// and its reply land in, the Disk Process's service slot, the pooled
// "$SQL" Request — it measures 7, and all of them are what the client
// keeps or its Result points at: the Result and the server's, Columns and
// the one string its names are cut from, Rows, the row's values and the
// pad's string. The endpoint alone, handed the EXECUTE's bytes and a
// reply buffer it can reuse, allocates only the Result of the statement
// it runs: 1, ceiling 3.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, sess, inproc, _ := served(t, nonstopsql.Config{})
	sess.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, grp INTEGER, bal FLOAT, pad VARCHAR(100))")
	rows := make([]string, 200)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, %d.5, '%s')", i, i%100, i, strings.Repeat("p", 100))
	}
	sess.MustExec("INSERT INTO acct VALUES " + strings.Join(rows, ", "))
	handle, _, err := nsqlclient.Prepare(inproc, "SELECT bal, pad FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	execute := func() {
		res, err := nsqlclient.Execute(inproc, handle, record.Int(42))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].F != 42.5 || len(res.Rows[0][1].S) != 100 {
			t.Fatalf("EXECUTE: %+v, %v", res, err)
		}
	}
	execute()
	const ceiling = 12
	if got := testing.AllocsPerRun(500, execute); got > ceiling {
		t.Errorf("one served point read allocates %.1f objects, client and server together; ceiling %d", got, ceiling)
	} else {
		t.Logf("one served point read: %.1f allocations, ceiling %d", got, ceiling)
	}

	// The endpoint alone, through a message hop that allocates nothing
	// (internal/msg's ceiling).
	req := nsqlwire.EncodeRequest(&nsqlwire.Request{Op: nsqlwire.OpExecute, Handle: handle, Params: record.Row{record.Int(42)}})
	var out []byte
	serve := func() {
		if out, err = inproc.SendAppend(nsqlwire.ServerName, req, out[:0]); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	if reply, err := nsqlwire.DecodeReply(out); err != nil || reply.Err != "" || len(reply.Rows) != 1 || reply.Rows[0][0].F != 42.5 {
		t.Fatalf("EXECUTE served into a reused buffer: %+v, %v", reply, err)
	}
	const endpointCeiling = 3
	if got := testing.AllocsPerRun(500, serve); got > endpointCeiling {
		t.Errorf("\"$SQL\" serving the point read allocates %.1f objects, ceiling %d", got, endpointCeiling)
	} else {
		t.Logf("\"$SQL\" serving the point read: %.1f allocations, ceiling %d", got, endpointCeiling)
	}
}
