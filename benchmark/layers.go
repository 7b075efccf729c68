package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nonstopsql"
	"nonstopsql/internal/btree"
	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/msg/wire"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/record"
	"nonstopsql/internal/wal"
)

// The per-layer numbers come from three sources, all read from outside
// the program through its public functions: counter deltas across a
// workload's measured phase (this file, top), a ladder that times the
// same statement at successive entry points (middle), and short timed
// loops on each layer's hot call (bottom).

// ---- counters ----------------------------------------------------------

// counters is the running totals the per-operation ratios are deltas of.
type counters struct {
	wireFrames, wireBytes                 uint64
	planHits, planMisses                  uint64
	msgs, msgBytes                        uint64
	queueWaitOps, queueWaitNanos          uint64
	dpRequests, dpServiceOps, dpServiceNs uint64
	redrives, rowsScanned, rowsReturned   uint64
	latchGrants, latchWaits               uint64
	lockWaits                             uint64
	cacheHits, cacheMisses, shardWaitNs   uint64
	blocksRead                            uint64 // physical block reads behind the buffer pools
	walFlushes, walCommitsFlushed         uint64
	auditBytes                            uint64
	diskReads, diskWrites, blocksWritten  uint64
	fsyncs, syncWaits                     uint64
	allocBytes, allocs                    uint64
	gcCycles                              uint64
	stealTicks, cpuTicks                  uint64
}

func snapshot(s *system) counters {
	var c counters
	if s.pool != nil {
		ws := s.pool.Stats()
		c.wireFrames = ws.FramesIn + ws.FramesOut
		c.wireBytes = ws.BytesIn + ws.BytesOut
	}
	pc := s.catalog.Plans().Stats()
	c.planHits, c.planMisses = pc.Hits, pc.Misses
	ns := s.cluster.Net.Stats()
	c.msgs, c.msgBytes = ns.Messages(), ns.Bytes()
	addDisk := func(ds disk.Stats) {
		c.diskWrites += ds.Writes
		c.blocksWritten += ds.BlocksWritten
		c.fsyncs += ds.Fsyncs
		c.syncWaits += ds.SyncWaits
	}
	for v := 1; v <= partitions; v++ {
		d := s.cluster.DP(fmt.Sprintf("$DATA%d", v))
		st := d.Stats()
		c.queueWaitOps += st.QueueWaitOps
		c.queueWaitNanos += st.QueueWaitNanos
		c.dpRequests += st.Requests
		c.dpServiceOps += st.ServiceOps
		c.dpServiceNs += st.ServiceNanos
		c.redrives += st.Redrives
		c.rowsScanned += st.RowsScanned
		c.rowsReturned += st.RowsReturned
		c.latchGrants += st.LatchShared + st.LatchExclusive
		c.latchWaits += st.LatchWaits
		c.lockWaits += d.Locks().Stats().Waits
		c.cacheHits += st.CacheHits
		c.cacheMisses += st.CacheMisses
		c.shardWaitNs += st.CacheShardWaitNanos
		vs := d.VolumeStats()
		c.diskReads += vs.Reads
		c.blocksRead += vs.BlocksRead
		addDisk(vs)
	}
	for _, n := range s.cluster.Nodes {
		ts := n.Trail.Stats()
		c.walFlushes += ts.Flushes
		c.walCommitsFlushed += ts.CommitsFlushed
		c.auditBytes += ts.BytesAppended
		addDisk(n.AuditVol.Stats())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.allocs, c.gcCycles = ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC)
	c.stealTicks, c.cpuTicks = procStat()
	return c
}

// procStat reads the machine-wide steal and total CPU ticks, so a run
// that disagrees with its neighbours can be told from a machine whose
// hypervisor took the cores away. Zeroes when /proc is not readable.
func procStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	for i, fld := range fields[1:] {
		v, _ := strconv.ParseUint(fld, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounters turns two snapshots into the per-operation counter
// metrics of one workload's measured phase.
func layerCounters(a, b counters, ops int64) map[string]metric {
	n := uint64(max(ops, 1))
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a zero peak is the visible failure
	per := func(x, y uint64) float64 { return ratio(y-x, n) }
	return map[string]metric{
		"wire.frames_per_op":               {per(a.wireFrames, b.wireFrames), "count"},
		"wire.bytes_per_op":                {per(a.wireBytes, b.wireBytes), "B"},
		"sql.plan_cache_hit_ratio":         {ratio(b.planHits-a.planHits, b.planHits-a.planHits+b.planMisses-a.planMisses), "ratio"},
		"msg.msgs_per_op":                  {per(a.msgs, b.msgs), "count"},
		"msg.bytes_per_op":                 {per(a.msgBytes, b.msgBytes), "B"},
		"msg.queue_wait_us_per_req":        {ratio(b.queueWaitNanos-a.queueWaitNanos, b.queueWaitOps-a.queueWaitOps) / 1e3, "us"},
		"dp.requests_per_op":               {per(a.dpRequests, b.dpRequests), "count"},
		"dp.service_us_per_req":            {ratio(b.dpServiceNs-a.dpServiceNs, b.dpServiceOps-a.dpServiceOps) / 1e3, "us"},
		"dp.redrives_per_op":               {per(a.redrives, b.redrives), "count"},
		"dp.rows_scanned_per_row_returned": {ratio(b.rowsScanned-a.rowsScanned, b.rowsReturned-a.rowsReturned), "ratio"},
		"btree.latch_wait_ratio":           {ratio(b.latchWaits-a.latchWaits, b.latchGrants-a.latchGrants), "ratio"},
		"lock.waits_per_op":                {per(a.lockWaits, b.lockWaits), "count"},
		// Page requests served without a physical block read. The pool's
		// own Misses counts demand reads only, and a keyed lookup's leaf
		// is brought in by pre-fetch just before it is asked for and so
		// arrives as a hit: on txn-file hits/(hits+misses) reads 0.998
		// beside 1.3 physical reads per transaction. The volumes' reads
		// are the honest numerator.
		"cache.hit_ratio":            {1 - ratio(b.blocksRead-a.blocksRead, b.cacheHits-a.cacheHits+b.cacheMisses-a.cacheMisses), "ratio"},
		"cache.shard_wait_us_per_op": {per(a.shardWaitNs, b.shardWaitNs) / 1e3, "us"},
		"wal.commits_per_flush":      {ratio(b.walCommitsFlushed-a.walCommitsFlushed, b.walFlushes-a.walFlushes), "count"},
		"wal.flushes_per_op":         {per(a.walFlushes, b.walFlushes), "count"},
		"wal.audit_bytes_per_op":     {per(a.auditBytes, b.auditBytes), "B"},
		"disk.reads_per_op":          {per(a.diskReads, b.diskReads), "count"},
		"disk.write_bytes_per_op":    {per(a.blocksWritten, b.blocksWritten) * disk.BlockSize, "B"},
		"disk.blocks_per_write":      {ratio(b.blocksWritten-a.blocksWritten, b.diskWrites-a.diskWrites), "count"},
		"disk.fsyncs_per_op":         {per(a.fsyncs, b.fsyncs), "count"},
		"disk.syncs_per_fsync":       {ratio(b.syncWaits-a.syncWaits, b.fsyncs-a.fsyncs), "count"},
		"runtime.alloc_bytes_per_op": {per(a.allocBytes, b.allocBytes), "B"},
		"runtime.allocs_per_op":      {per(a.allocs, b.allocs), "count"},
		"runtime.gc_cycles_per_kop":  {per(a.gcCycles, b.gcCycles) * 1e3, "count"},
		"runtime.peak_rss_mb":        {float64(ru.Maxrss) / 1024, "MB"},
		"host.steal_pct":             {100 * ratio(b.stealTicks-a.stealTicks, b.cpuTicks-a.cpuTicks), "%"},
	}
}

var sink uint64 // keeps timed loops from being optimised away

// calibrate times a fixed arithmetic loop: the machine's speed at this
// moment, in ns per iteration, independent of the program under test.
func calibrate() float64 {
	const iters = 20_000_000
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(t0)
	sink += x
	return float64(el.Nanoseconds()) / iters
}

// ---- spans -------------------------------------------------------------

// A span is one timed call made by the benchmark into a layer.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // sequence number among spans of this name
	Start  int64  `json:"start"`  // ns since the trace began
	End    int64  `json:"end"`    // ns since the trace began
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
}

// A tracer keeps spans in memory until write. A nil tracer records
// nothing, which is how untraced runs go through the same code.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Start: int64(time.Since(t.base)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// addOps files the workload operations a phase recorded under its span.
func (t *tracer) addOps(name string, parent int, perClient [][]opSpan) {
	if t == nil {
		return
	}
	origin := t.spans[parent].Start
	n := 0
	for _, ops := range perClient {
		for _, op := range ops {
			t.spans = append(t.spans, span{Name: name, Op: n, Start: origin + op.start, End: origin + op.end, Parent: parent})
			n++
		}
	}
}

func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(t.spans)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// ---- ladder ------------------------------------------------------------

const (
	ladderCalls  = 10000           // calls per rung; write rungs stop at the budget first
	ladderBudget = 2 * time.Second // per rung: a commit waits ~10 ms, so writes get ~200 calls
)

// rung times call sequentially, one span per call under a span of its
// own, and returns the median call in microseconds. call is told its
// number and its span, so it can hang spans of its own underneath.
func (t *tracer) rung(name string, st settings, call func(i, span int) error) (float64, error) {
	parent := t.begin(name, 0, -1)
	defer t.end(parent)
	calls := max(int(float64(ladderCalls)*st.scale), 20)
	budget := time.Duration(float64(ladderBudget) * st.scale)
	durs := make([]float64, 0, calls)
	start := time.Now()
	for i := 0; i < calls && (i < 20 || time.Since(start) < budget); i++ {
		id := t.begin(name+".call", i, parent)
		err := call(i, id)
		t.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s call %d: %w", name, i, err)
		}
		durs = append(durs, float64(t.spans[id].End-t.spans[id].Start)/1e3)
	}
	return median(durs), nil
}

// ladder runs one sequential caller down the stack: the same point read
// at five public entry points and the same single-row update at four,
// on a served database of its own (default configuration, table fits in
// cache). Each rung's time contains every rung below it, so successive
// differences are the self time of the layer in between.
func ladder(st settings, tr *tracer) (map[string]metric, error) {
	r, err := openServed("point-read", st.rows, 1, nonstopsql.Config{})
	if err != nil {
		return nil, fmt.Errorf("ladder: setup: %w", err)
	}
	defer r.close()
	s := r.(*served)
	db := s.db
	def, err := s.catalog.Table("acct")
	if err != nil {
		return nil, err
	}
	inproc := db.Cluster().Net.NewClient(msg.ProcessorID{Node: 0, CPU: 0})
	const readSQL, writeSQL = `SELECT bal, pad FROM acct WHERE id = ?`, `UPDATE acct SET bal = bal + 1 WHERE id = ?`
	readHandle, _, err := nsqlclient.Prepare(inproc, readSQL)
	if err != nil {
		return nil, err
	}
	sess := db.Session(0, 0)
	readPlan, err := sess.Prepare(readSQL)
	if err != nil {
		return nil, err
	}
	writePlan, err := sess.Prepare(writeSQL)
	if err != nil {
		return nil, err
	}
	fsys := db.FileSystem(0, 0)
	balField := def.Schema.FieldIndex("bal")
	assigns := []expr.Assignment{{Field: balField, E: expr.Bin(expr.OpAdd, expr.F(balField, "bal"), expr.CFloat(1))}}
	dpFor := func(id int64) string { return def.Partitions[min(int(id)/(st.rows/partitions), partitions-1)].Server }

	rng := rand.New(rand.NewSource(st.seed))
	id := func() int64 { return rng.Int63n(int64(st.rows)) }
	oneRow := func(n int, err error) error {
		if err == nil && n != 1 {
			err = fmt.Errorf("%d rows, want 1", n)
		}
		return err
	}
	us := map[string]float64{}
	rungs := []struct {
		name string
		call func() error
	}{
		{"ladder.read.tcp", func() error {
			res, err := s.read.Exec(record.Int(id()))
			if err != nil {
				return err
			}
			return oneRow(len(res.Rows), nil)
		}},
		{"ladder.read.inproc", func() error {
			res, err := nsqlclient.Execute(inproc, readHandle, record.Int(id()))
			if err != nil {
				return err
			}
			return oneRow(len(res.Rows), nil)
		}},
		{"ladder.read.session", func() error {
			res, err := sess.ExecPrepared(readPlan, record.Int(id()))
			if err != nil {
				return err
			}
			return oneRow(len(res.Rows), nil)
		}},
		{"ladder.read.fs", func() error {
			_, err := fsys.Read(nil, def, def.Schema.KeyOf(record.Int(id())), false)
			return err
		}},
		{"ladder.read.dp", func() error {
			k := id()
			reply := db.Cluster().DP(dpFor(k)).Serve(&fsdp.Request{
				Kind: fsdp.KReadRecord, File: def.Name, Key: def.Schema.KeyOf(record.Int(k)),
			})
			if !reply.OK() {
				return fmt.Errorf("dp read: %s", reply.Err)
			}
			return oneRow(len(reply.Rows), nil)
		}},
		{"ladder.write.tcp", func() error {
			res, err := s.update.Exec(record.Int(id()))
			if err != nil {
				return err
			}
			return oneRow(res.Affected, nil)
		}},
		{"ladder.write.session", func() error {
			res, err := sess.ExecPrepared(writePlan, record.Int(id()))
			if err != nil {
				return err
			}
			return oneRow(res.Affected, nil)
		}},
	}
	for _, rg := range rungs {
		if us[rg.name], err = tr.rung(rg.name, st, func(int, int) error { return rg.call() }); err != nil {
			return nil, err
		}
	}
	// The last write rung is one File System transaction split in two:
	// applying the update at the Disk Process, then the commit (audit
	// flush, group-commit wait, phase two). Both halves get a span under
	// the call's span.
	var apply, commit []float64
	_, err = tr.rung("ladder.write.fs", st, func(i, call int) error {
		tx := fsys.Begin()
		a := tr.begin("ladder.write.fs_apply", i, call)
		err := fsys.UpdateFields(tx, def, def.Schema.KeyOf(record.Int(id())), assigns)
		tr.end(a)
		if err != nil {
			_ = fsys.Abort(tx) // the update's error is the one reported
			return err
		}
		c := tr.begin("ladder.write.commit", i, call)
		err = fsys.Commit(tx)
		tr.end(c)
		apply = append(apply, float64(tr.spans[a].End-tr.spans[a].Start)/1e3)
		commit = append(commit, float64(tr.spans[c].End-tr.spans[c].Start)/1e3)
		return err
	})
	if err != nil {
		return nil, err
	}
	us["ladder.write.fs_apply"], us["ladder.write.commit"] = median(apply), median(commit)

	m := map[string]metric{}
	for name, v := range us {
		m[name+"_us"] = metric{v, "us"}
	}
	self := func(name string, v float64) { m[name] = metric{v, "us"} }
	self("wire.read_self_us", us["ladder.read.tcp"]-us["ladder.read.inproc"])
	self("serve.read_self_us", us["ladder.read.inproc"]-us["ladder.read.session"])
	self("sql.read_self_us", us["ladder.read.session"]-us["ladder.read.fs"])
	self("fs.read_self_us", us["ladder.read.fs"]-us["ladder.read.dp"])
	self("dp.read_self_us", us["ladder.read.dp"])
	self("wire.write_self_us", us["ladder.write.tcp"]-us["ladder.write.session"])
	self("sql.write_self_us", us["ladder.write.session"]-us["ladder.write.fs_apply"]-us["ladder.write.commit"])
	self("tmf.commit_wait_us", us["ladder.write.commit"])

	if err := sqlKernels(st, s, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ---- kernels -----------------------------------------------------------

const kernelBudget = 250 * time.Millisecond

// timeLoop calls fn in batches until the budget is spent and returns
// the mean time of one call in ns.
func timeLoop(st settings, batch int, fn func(i int)) float64 {
	budget := time.Duration(float64(kernelBudget) * st.scale)
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		for j := 0; j < batch; j++ {
			fn(n)
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sqlKernels times compilation against the ladder's database: a fresh
// statement text every call (parse, bind, plan) and the same text every
// call (a plan-cache hit).
func sqlKernels(st settings, s *served, m map[string]metric) error {
	sess := s.db.Session(0, 1)
	var err error
	prepare := func(text string) {
		if _, e := sess.Prepare(text); e != nil && err == nil {
			err = e
		}
	}
	m["sql.compile_us"] = metric{timeLoop(st, 16, func(i int) {
		prepare("SELECT bal, pad FROM acct WHERE id = " + strconv.Itoa(i))
	}) / 1e3, "us"}
	m["sql.cache_hit_ns"] = metric{timeLoop(st, 256, func(int) {
		prepare("SELECT bal, pad FROM acct WHERE id = 7")
	}), "ns"}
	return err
}

// kernels times each layer's hot public call on its own, away from the
// database: small fixed inputs shaped like the workloads' rows.
func kernels(st settings, tr *tracer) (map[string]metric, error) {
	m := map[string]metric{}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	run := func(name, unit string, div float64, batch int, fn func(i int)) {
		id := tr.begin("kernel."+name, 0, -1)
		m[name] = metric{timeLoop(st, batch, fn) / div, unit}
		tr.end(id)
	}

	var pad [64]byte
	rowOf := func(id int64) record.Row {
		return record.Row{record.Int(id), record.Int(grpOf(id)), record.Float(balOf(id)), record.String(string(padOf(&pad, id)))}
	}
	row := rowOf(4242)
	enc := record.Encode(row)
	keyA, keyB := keys.AppendInt64(nil, 4242), keys.AppendInt64(nil, 4243)

	kbuf := make([]byte, 0, 16)
	run("keys.encode_ns", "ns", 1, 4096, func(i int) { kbuf = keys.AppendInt64(kbuf[:0], int64(i)); sink += uint64(kbuf[8]) })
	run("keys.compare_ns", "ns", 1, 4096, func(int) { sink += uint64(keys.Compare(keyA, keyB) + 1) })
	run("record.encode_ns", "ns", 1, 1024, func(int) { sink += uint64(len(record.Encode(row))) })
	run("record.decode_ns", "ns", 1, 1024, func(int) {
		r, err := record.Decode(enc)
		fail(err)
		sink += uint64(len(r))
	})
	pred := expr.And(expr.Bin(expr.OpLT, expr.F(1, "grp"), expr.CInt(10)), expr.Bin(expr.OpGE, expr.F(2, "bal"), expr.CFloat(0)))
	run("expr.eval_ns", "ns", 1, 1024, func(int) {
		ok, err := expr.Satisfied(pred, row)
		fail(err)
		if ok {
			sink++
		}
	})

	// A private tree over a simulated volume, every page resident.
	const treeRows = 20000
	vol := disk.NewVolume("$KERNEL", false)
	pool := cache.NewPool(vol, 1024, nil)
	tree, err := btree.New(pool, vol, "K", nil)
	if err != nil {
		return nil, err
	}
	kvs := make([]btree.KV, treeRows)
	for i := range kvs {
		// Even keys only, so the insert kernel has gaps to fill.
		kvs[i] = btree.KV{Key: keys.AppendInt64(nil, int64(2*i)), Val: record.Encode(rowOf(int64(2 * i)))}
	}
	if err := tree.BulkLoad(kvs, 0); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(st.seed))
	run("btree.get_ns", "ns", 1, 256, func(int) {
		v, err := tree.Get(kvs[rng.Intn(treeRows)].Key)
		fail(err)
		sink += uint64(len(v))
	})
	scanned := 0
	run("btree.scan_row_ns", "ns", 1, 1, func(int) {
		fail(tree.Scan(keys.All(), false, func(k, v []byte) (bool, error) { scanned++; return true, nil }))
	})
	m["btree.scan_row_ns"] = metric{m["btree.scan_row_ns"].Value / treeRows, "ns"}
	sink += uint64(scanned)
	odd := rng.Perm(treeRows)
	next := 0
	run("btree.insert_ns", "ns", 1, 64, func(int) {
		if next == len(odd) { // gaps used up: the rest of the batch is not an insert
			return
		}
		fail(tree.Insert(keys.AppendInt64(nil, int64(2*odd[next]+1)), enc, 0))
		next++
	})

	var hitBlock disk.BlockNum = tree.Root()
	run("cache.get_hit_ns", "ns", 1, 1024, func(int) {
		pg, err := pool.Get(hitBlock)
		fail(err)
		if pg != nil {
			pg.Release()
		}
	})
	// Eight slots cycled over 64 blocks: every Get evicts and reads.
	missVol := disk.NewVolume("$MISS", false)
	blocks := make([]disk.BlockNum, 64)
	for i := range blocks {
		blocks[i] = missVol.Allocate()
		fail(missVol.Write(blocks[i], make([]byte, disk.BlockSize)))
	}
	missPool := cache.NewPool(missVol, 8, nil)
	run("cache.get_miss_ns", "ns", 1, 256, func(i int) {
		pg, err := missPool.Get(blocks[i%len(blocks)])
		fail(err)
		if pg != nil {
			pg.Release()
		}
	})

	locks := lock.NewManager()
	run("lock.acquire_release_ns", "ns", 1, 1024, func(i int) {
		tx := lock.TxID(i + 1)
		fail(locks.LockRecord(tx, "acct", keyA, lock.Exclusive))
		locks.ReleaseTx(tx)
	})

	trail, err := wal.NewTrail(wal.Config{Volume: disk.NewVolume("$KAUDIT", false), GroupCommit: true})
	if err != nil {
		return nil, err
	}
	rec := func(i int) *wal.Record {
		return &wal.Record{Type: wal.RecUpdate, TxID: uint64(i), Volume: "$DATA1", File: "acct", Key: keyA, Before: enc[:16], After: enc[:16], FieldCompressed: true}
	}
	run("wal.append_ns", "ns", 1, 256, func(i int) { sink += uint64(trail.Append(rec(i))) })
	run("wal.flush_us", "us", 1e3, 16, func(i int) {
		trail.Append(rec(i))
		trail.Flush()
	})
	trail.Close()

	// One echo process behind the in-process message system, then the
	// same process behind a loopback socket.
	net := msg.NewNetwork()
	if _, err := net.StartServer("$ECHO", msg.ProcessorID{Node: 0, CPU: 1}, 2, func(b []byte) []byte { return b }); err != nil {
		return nil, err
	}
	defer net.StopServer("$ECHO")
	client := net.NewClient(msg.ProcessorID{Node: 0, CPU: 0})
	payload := make([]byte, 32)
	run("msg.send_rtt_ns", "ns", 1, 256, func(int) {
		b, err := client.Send("$ECHO", payload)
		fail(err)
		sink += uint64(len(b))
	})
	srv, err := wire.Listen("127.0.0.1:0", net, wire.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	echoPool, err := nsqlclient.Dial(srv.Addr(), nsqlclient.Options{Conns: 1, ReplyTimeout: time.Minute})
	if err != nil {
		return nil, err
	}
	defer echoPool.Close()
	run("wire.frame_rtt_us", "us", 1e3, 64, func(int) {
		b, err := echoPool.Send("$ECHO", payload)
		fail(err)
		sink += uint64(len(b))
	})

	execReq := &nsqlwire.Request{Op: nsqlwire.OpExecute, Handle: 3, Params: record.Row{record.Int(4242)}}
	run("nsqlwire.request_codec_ns", "ns", 1, 1024, func(int) {
		q, err := nsqlwire.DecodeRequest(nsqlwire.EncodeRequest(execReq))
		fail(err)
		sink += q.Handle
	})
	oneRow := &nsqlwire.Reply{Columns: []string{"bal", "pad"}, Rows: []record.Row{{row[2], row[3]}}}
	run("nsqlwire.reply_codec_ns", "ns", 1, 1024, func(int) {
		r, err := nsqlwire.DecodeReply(nsqlwire.EncodeReply(oneRow))
		fail(err)
		sink += uint64(len(r.Rows))
	})
	const replyRows = 1000
	many := &nsqlwire.Reply{Columns: []string{"id", "bal"}}
	for i := int64(0); i < replyRows; i++ {
		many.Rows = append(many.Rows, record.Row{record.Int(i), record.Float(balOf(i))})
	}
	run("nsqlwire.reply_row_ns", "ns", replyRows, 4, func(int) {
		r, err := nsqlwire.DecodeReply(nsqlwire.EncodeReply(many))
		fail(err)
		sink += uint64(len(r.Rows))
	})
	readReq := &fsdp.Request{Kind: fsdp.KReadRecord, File: "acct", Key: keyA}
	run("fsdp.request_codec_ns", "ns", 1, 1024, func(int) {
		q, err := fsdp.DecodeRequest(fsdp.EncodeRequest(readReq))
		fail(err)
		sink += uint64(len(q.Key))
	})
	readReply := &fsdp.Reply{Rows: [][]byte{enc}, Done: true, Examined: 1, CacheHits: 3}
	run("fsdp.reply_codec_ns", "ns", 1, 1024, func(int) {
		r, err := fsdp.DecodeReply(fsdp.EncodeReply(readReply))
		fail(err)
		sink += uint64(len(r.Rows))
	})
	return m, firstErr
}

// sortedNames returns m's keys in order, for stable printing.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
