package nonstopsql_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nonstopsql"
)

func openDB(t testing.TB, cfg nonstopsql.Config) *nonstopsql.Database {
	t.Helper()
	db, err := nonstopsql.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openDB(t, nonstopsql.Config{})
	if got := len(db.Volumes()); got != 4 {
		t.Errorf("volumes %d", got)
	}
	if db.Catalog() == nil {
		t.Error("nil catalog")
	}
}

func TestEndToEndSQL(t *testing.T) {
	db := openDB(t, nonstopsql.Config{})
	s := db.Session(0, 0)
	s.MustExec("CREATE TABLE t (k INTEGER PRIMARY KEY, v VARCHAR(10), x FLOAT)")
	s.MustExec("INSERT INTO t VALUES (1, 'a', 1.5), (2, 'b', 2.5)")
	res, err := s.Exec("SELECT v FROM t WHERE x > 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "b" {
		t.Fatalf("%+v", res.Rows)
	}
	out := nonstopsql.FormatResult(res)
	if !strings.Contains(out, "b") {
		t.Errorf("format: %s", out)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	db := openDB(t, nonstopsql.Config{})
	s := db.Session(0, 0)
	s.MustExec("CREATE TABLE t (k INTEGER PRIMARY KEY)")
	db.ResetStats()
	s.MustExec("INSERT INTO t VALUES (1)")
	st := db.Stats()
	if st.Messages == 0 || st.AuditBytes == 0 || st.Commits != 1 {
		t.Errorf("stats %+v", st)
	}
	db.ResetStats()
	if st := db.Stats(); st.Messages != 0 || st.Commits != 0 {
		t.Errorf("reset failed: %+v", st)
	}
}

func TestCrashRecoverPublicAPI(t *testing.T) {
	db := openDB(t, nonstopsql.Config{})
	s := db.Session(0, 1)
	s.MustExec(`CREATE TABLE r (k INTEGER PRIMARY KEY, v INTEGER) PARTITION ON ("$DATA2")`)
	s.MustExec("INSERT INTO r VALUES (1, 10), (2, 20)")
	if err := db.CrashVolume("$DATA2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELECT * FROM r"); err == nil {
		t.Fatal("crashed volume served a query")
	}
	if err := db.RestartVolume("$DATA2", 2); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT COUNT(*) FROM r")
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("after recovery: %v %v", res, err)
	}
}

func TestMultiNode(t *testing.T) {
	db := openDB(t, nonstopsql.Config{Nodes: 2, VolumesPerNode: 1})
	s := db.Session(0, 0)
	s.MustExec(`CREATE TABLE m (k INTEGER PRIMARY KEY, v INTEGER)
		PARTITION ON ("$DATA1", "$DATA2" FROM 100)`)
	s.MustExec("BEGIN")
	for i := 0; i < 200; i += 20 {
		s.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %d)", i, i))
	}
	s.MustExec("COMMIT")
	db.ResetStats()
	res := s.MustExec("SELECT COUNT(*) FROM m")
	if res.Rows[0][0].I != 10 {
		t.Fatalf("count %v", res.Rows[0][0])
	}
	if db.Stats().RemoteMsgs == 0 {
		t.Error("no remote messages for cross-node table")
	}
}

// TestCrossNodeRestartKeepsACommit: a committed transaction over two
// nodes keeps its rows on the second node when that volume restarts. Its
// PREPARE is on the second node's trail and its commit record on the
// coordinator's, the first node's; recovery must read the outcome there.
func TestCrossNodeRestartKeepsACommit(t *testing.T) {
	db := openDB(t, nonstopsql.Config{Nodes: 2, VolumesPerNode: 1})
	s := db.Session(0, 0)
	s.MustExec(`CREATE TABLE m (k INTEGER PRIMARY KEY, v INTEGER)
		PARTITION ON ("$DATA1", "$DATA2" FROM 100)`)
	s.MustExec("BEGIN")
	for i := 0; i < 200; i += 20 {
		s.MustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %d)", i, i))
	}
	s.MustExec("COMMIT")
	if err := db.CrashVolume("$DATA2"); err != nil {
		t.Fatal(err)
	}
	if err := db.RestartVolume("$DATA2", 0); err != nil {
		t.Fatal(err)
	}
	if res := s.MustExec("SELECT COUNT(*) FROM m"); res.Rows[0][0].I != 10 {
		t.Fatalf("count %v after $DATA2 restarted, want 10", res.Rows[0][0])
	}
}

func TestConcurrentSessionsPublicAPI(t *testing.T) {
	db := openDB(t, nonstopsql.Config{})
	s := db.Session(0, 0)
	s.MustExec("CREATE TABLE c (k INTEGER PRIMARY KEY)")
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(base int) {
			sess := db.Session(0, base%4)
			for i := 0; i < 20; i++ {
				if _, err := sess.Exec(fmt.Sprintf("INSERT INTO c VALUES (%d)", base*100+i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	res := s.MustExec("SELECT COUNT(*) FROM c")
	if res.Rows[0][0].I != 80 {
		t.Fatalf("count %v", res.Rows[0][0])
	}
}

// TestCrashVolumeMidTraffic crashes a volume while autocommit writers
// are hammering it, then restarts it from the audit trail. Every INSERT
// whose Exec returned success was durably committed, so it must survive
// the restart; the count must also be internally consistent (no
// half-applied transactions).
func TestCrashVolumeMidTraffic(t *testing.T) {
	db := openDB(t, nonstopsql.Config{})
	s := db.Session(0, 1)
	s.MustExec(`CREATE TABLE w (k INTEGER PRIMARY KEY, v INTEGER) PARTITION ON ("$DATA3")`)

	var mu sync.Mutex
	confirmed := map[int]bool{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.Session(0, g%4)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := g*100000 + i
				if _, err := sess.Exec(fmt.Sprintf("INSERT INTO w VALUES (%d, %d)", k, k)); err != nil {
					return // the crash reached this writer
				}
				mu.Lock()
				confirmed[k] = true
				mu.Unlock()
			}
		}(g)
	}
	time.Sleep(2 * time.Millisecond)
	if err := db.CrashVolume("$DATA3"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if err := db.RestartVolume("$DATA3", -1); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT COUNT(*) FROM w")
	if err != nil {
		t.Fatal(err)
	}
	count := int(res.Rows[0][0].I)
	if count < len(confirmed) {
		t.Errorf("recovered %d rows, but %d inserts were confirmed committed", count, len(confirmed))
	}
	for k := range confirmed {
		r, err := s.Exec(fmt.Sprintf("SELECT v FROM w WHERE k = %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 || int(r.Rows[0][0].I) != k {
			t.Errorf("confirmed insert %d lost across crash+restart: %+v", k, r.Rows)
		}
	}
}
