package nonstopsql_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nonstopsql"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
)

// TestHeldResultsOutliveLaterStatements: a statement's READ, its reply
// and the row it cuts live in the session's statement arena, a scan's or
// an aggregate's conversations run in its conversation arenas, its rows
// are listed in its row list and its groups merged into its group table,
// the Disk Processes serve them from slots and Subset Control Blocks they
// reuse, and the client receives replies in pooled buffers — so a result
// the caller holds must share no byte with any of them. One held result
// per shape (a pass-through point read, a materialised one, a range scan
// under a LIMIT, a pushed-down GROUP BY of a VARCHAR key with MIN and MAX
// of it, a pass-through scan of many messages), in the process
// (Session.ExecPrepared) and over TCP (a Stmt on a one-connection pool),
// must stay equal to a deep copy taken when it arrived while 1 000 further
// statements run on the same session and the same connection. Under the
// race detector every buffer taken back is poisoned, so a held row that
// aliased one would read 0xDB.
func TestHeldResultsOutliveLaterStatements(t *testing.T) {
	db, sess, _, pool := served(t, nonstopsql.Config{})
	sess.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal FLOAT, pad VARCHAR(100))")
	rows := make([]string, 200)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d.5, '%s%d')", i, i, strings.Repeat("p", 60), i)
	}
	sess.MustExec("INSERT INTO acct VALUES " + strings.Join(rows, ", "))
	shapes := []string{
		"SELECT bal, pad FROM acct WHERE id = ?",
		"SELECT bal * 2, pad FROM acct WHERE id = ?",
		"SELECT id, pad FROM acct WHERE id >= ? LIMIT 3",
		"SELECT pad, COUNT(*), MIN(pad), MAX(bal) FROM acct WHERE id >= ? GROUP BY pad",
		"SELECT id, pad FROM acct WHERE id >= ?",
	}
	type held struct {
		where string
		res   *nonstopsql.Result
		copy  *nonstopsql.Result
	}
	var holds []held
	keep := func(where string, res *nonstopsql.Result, err error) {
		t.Helper()
		if err != nil || len(res.Rows) == 0 {
			t.Fatalf("%s: %+v, %v", where, res, err)
		}
		holds = append(holds, held{where, res, deepCopy(res)})
	}
	local := db.Session(0, 1)
	for _, text := range shapes {
		p, err := local.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := local.ExecPrepared(p, record.Int(42))
		keep("in process: "+text, res, err)
		st, err := pool.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err = st.Exec(record.Int(42))
		keep("over TCP: "+text, res, err)
	}
	for i := 0; i < 1000; i++ {
		text := shapes[i%len(shapes)]
		id := record.Int(int64(i*7) % 200)
		p, err := local.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := local.ExecPrepared(p, id); err != nil {
			t.Fatal(err)
		}
		st, err := pool.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Exec(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range holds {
		if !reflect.DeepEqual(h.res, h.copy) {
			t.Errorf("%s: the held result changed under later statements\nnow:  %+v\nwas:  %+v", h.where, h.res, h.copy)
		}
	}
}

// deepCopy copies a result so that it shares no memory with the original,
// strings included.
func deepCopy(res *nonstopsql.Result) *nonstopsql.Result {
	out := &nonstopsql.Result{Affected: res.Affected}
	for _, c := range res.Columns {
		out.Columns = append(out.Columns, strings.Clone(c))
	}
	for _, row := range res.Rows {
		cp := make(record.Row, len(row))
		for i, v := range row {
			v.S = strings.Clone(v.S)
			cp[i] = v
		}
		out.Rows = append(out.Rows, cp)
	}
	return out
}

// TestRepliesAreEncodedBeforeTheSessionIsReused: a pass-through point
// read's row lies in its session's statement arena until that session's
// next statement starts, so "$SQL" must encode the reply before it gives
// the session back. Eight clients read different keys at once through
// two pooled sessions — with one, the endpoint's one service slot would
// order its statements whatever the handler did — so a session given
// back early is taken by the next request while its last reply is still
// being encoded, which then carries another statement's row or, under
// the race detector, poison. (With the reply encoded after the session
// went back, five runs of this test under -race failed three times.)
func TestRepliesAreEncodedBeforeTheSessionIsReused(t *testing.T) {
	_, sess, inproc, pool := served(t, nonstopsql.Config{ServeWorkers: 2})
	sess.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, pad VARCHAR(100))")
	rows := make([]string, 200)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, 'pad-%d')", i, i)
	}
	sess.MustExec("INSERT INTO acct VALUES " + strings.Join(rows, ", "))
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := pool.Prepare("SELECT pad FROM acct WHERE id = ?")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				id := (c*31 + i) % 200
				var res *nonstopsql.Result
				if c%2 == 0 {
					res, err = st.Exec(record.Int(int64(id)))
				} else {
					res, err = nsqlclient.Exec(inproc, fmt.Sprintf("SELECT pad FROM acct WHERE id = %d", id))
				}
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("pad-%d", id) {
					t.Errorf("client %d, id %d: %+v, %v", c, id, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
