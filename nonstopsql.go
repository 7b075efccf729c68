// Package nonstopsql is a from-scratch reproduction of the system
// described in A. Borr & F. Putzolu, "High Performance SQL Through
// Low-Level System Integration" (Tandem TR 88.10 / SIGMOD 1988): a SQL
// DBMS integrated with a message-based, loosely-coupled multiprocessor
// operating system, whose File System ↔ Disk Process interface pushes
// selection, projection, update expressions, and constraint checking
// down to the server side of the disk I/O subsystem.
//
// Open builds a simulated Tandem network (nodes × processors × mirrored
// volumes with Disk Process groups, an audit trail with group commit,
// distributed transactions); Database.Session returns a SQL session:
//
//	db, _ := nonstopsql.Open(nonstopsql.Config{})
//	defer db.Close()
//	s := db.Session(0, 0)
//	s.MustExec(`CREATE TABLE emp (empno INTEGER PRIMARY KEY, name VARCHAR(30), salary FLOAT)`)
//	s.MustExec(`INSERT INTO emp VALUES (1, 'alice', 40000)`)
//	res, _ := s.Exec(`SELECT name FROM emp WHERE salary > 32000`)
//
// The lower-level interfaces (ENSCRIBE record access, the File System
// library, the FS-DP protocol) are exposed through the same module's
// internal packages and are exercised by the examples, benchmarks, and
// EXPERIMENTS.md reproduction harness.
package nonstopsql

import (
	"fmt"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/nsqlwire"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/sql"
)

// Re-exported types so application code can stay on the root package.
type (
	// Session executes SQL statements against the database.
	Session = sql.Session
	// Result is one statement's outcome.
	Result = sql.Result
	// Prepared is a compiled statement (Session.Prepare/ExecPrepared).
	Prepared = sql.Prepared
	// Catalog maps table names to file definitions.
	Catalog = sql.Catalog
	// FS is the File System client library (record-level access).
	FS = fs.FS
	// FileDef describes a file: schema, partitions, indexes.
	FileDef = fs.FileDef
)

// Config sizes and tunes the simulated network. Every node has 4 CPUs,
// and every paper optimization (group commit, pre-fetch, write-behind) is
// on. The zero value gives a single node with 4 data volumes.
type Config struct {
	Nodes          int // default 1
	VolumesPerNode int // default 4

	// ScanParallel is the default degree of parallelism for scans and
	// counts over partitioned files: how many per-partition Disk Process
	// conversations each scan drives concurrently (clamped to the
	// partition count). 0 keeps the classic one-partition-at-a-time scan.
	ScanParallel int

	// Listen, when set, serves the database over TCP: the message
	// network gets a wire front door on this address and the "$SQL"
	// statement endpoint is registered automatically (see ServeSQL).
	// Use ":0" for an ephemeral port; Addr reports what was bound.
	Listen string

	// ServeWorkers sizes the "$SQL" endpoint's session pool — the
	// number of remote statements executing concurrently (default 8).
	// Only meaningful with Listen set (or an explicit ServeSQL call).
	ServeWorkers int

	// WireReplyTimeout bounds each remotely-dispatched request on the
	// server side so a hung handler cannot pin a graceful drain forever
	// (0 = wait forever).
	WireReplyTimeout time.Duration

	// AdminOps lets "$SQL" clients run the operator's commands: crash and
	// restart a volume's Disk Process, zero the activity counters. Off by
	// default, when the endpoint refuses them: anyone who can reach the
	// port could otherwise take a volume down.
	AdminOps bool
}

// A Database is one simulated Tandem network with its catalog.
type Database struct {
	cfg     Config
	cluster *cluster.Cluster
	catalog *sql.Catalog
	volumes []string

	servingSQL bool
	sessPool   chan *Session // "$SQL" endpoint's pooled sessions
	stmts      *stmtTable    // "$SQL" endpoint's statement handles
}

// Open builds the network: per node, an audit trail Disk Process plus
// VolumesPerNode data volumes spread across the processors.
func Open(cfg Config) (*Database, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	if cfg.VolumesPerNode == 0 {
		cfg.VolumesPerNode = 4
	}
	c, err := cluster.New(cluster.Options{
		Nodes:            cfg.Nodes,
		Prefetch:         true,
		WriteBehind:      true,
		ScanParallel:     cfg.ScanParallel,
		Listen:           cfg.Listen,
		WireReplyTimeout: cfg.WireReplyTimeout,
	})
	if err != nil {
		return nil, err
	}
	db := &Database{cfg: cfg, cluster: c}
	for n := 0; n < cfg.Nodes; n++ {
		for v := 0; v < cfg.VolumesPerNode; v++ {
			name := fmt.Sprintf("$DATA%d", n*cfg.VolumesPerNode+v+1)
			if _, err := c.AddVolume(n, v%c.CPUsPerNode(), name); err != nil {
				c.Close()
				return nil, err
			}
			db.volumes = append(db.volumes, name)
		}
	}
	db.catalog = sql.NewCatalog(db.volumes)
	db.stmts = newStmtTable(0)
	if cfg.Listen != "" {
		if err := db.ServeSQL(cfg.ServeWorkers); err != nil {
			c.Close()
			return nil, err
		}
	}
	return db, nil
}

// Session creates a SQL session whose requester process runs on the
// given node and CPU. Sessions are not safe for concurrent use; create
// one per goroutine.
func (db *Database) Session(node, cpu int) *Session {
	return sql.NewSession(db.catalog, db.cluster.NewFS(node, cpu))
}

// FileSystem returns a File System instance for record-level access
// (ENSCRIBE programs, bulk loaders) on the given processor.
func (db *Database) FileSystem(node, cpu int) *FS {
	return db.cluster.NewFS(node, cpu)
}

// Catalog returns the shared catalog.
func (db *Database) Catalog() *Catalog { return db.catalog }

// Volumes lists the data volume names.
func (db *Database) Volumes() []string { return append([]string(nil), db.volumes...) }

// Cluster exposes the underlying simulated network (experiments, tools).
func (db *Database) Cluster() *cluster.Cluster { return db.cluster }

// Stats is an aggregate activity snapshot across the whole network.
type Stats struct {
	Messages     uint64 // FS-DP request+reply messages
	MessageBytes uint64
	RemoteMsgs   uint64 // messages that crossed node boundaries
	DiskReads    uint64 // physical read I/Os on data volumes
	DiskWrites   uint64
	BlocksRead   uint64
	AuditBytes   uint64 // audit trail bytes appended
	AuditFlushes uint64 // audit trail bulk writes
	Commits      uint64
	PlanCache    PlanCacheStats // shared plan cache counters
	Wire         obs.WireStats  // the TCP front door, cumulative since Listen (zero when not served)
}

// PlanCacheStats is the shared plan cache's counter snapshot.
type PlanCacheStats = sql.PlanCacheStats

// Stats snapshots the counters.
func (db *Database) Stats() Stats {
	s := Stats{}
	ns := db.cluster.Net.Stats()
	s.Messages = ns.Messages()
	s.MessageBytes = ns.Bytes()
	s.RemoteMsgs = ns.Network
	for _, v := range db.volumeStats() {
		s.DiskReads += v.Reads
		s.DiskWrites += v.Writes
		s.BlocksRead += v.BlocksRead
	}
	for _, n := range db.cluster.Nodes {
		ts := n.Trail.Stats()
		s.AuditBytes += ts.BytesAppended
		s.AuditFlushes += ts.Flushes
		s.Commits += ts.CommitRecords
	}
	s.PlanCache = db.catalog.Plans().Stats()
	s.Wire = db.WireStats()
	return s
}

func (db *Database) volumeStats() []disk.Stats {
	var out []disk.Stats
	for _, name := range db.volumes {
		if d := db.cluster.DP(name); d != nil {
			out = append(out, d.VolumeStats())
		}
	}
	return out
}

// ResetStats zeroes every counter (between benchmark phases).
func (db *Database) ResetStats() {
	db.cluster.Net.ResetStats()
	for _, name := range db.volumes {
		if d := db.cluster.DP(name); d != nil {
			d.ResetStats()
			d.ResetVolumeStats()
			d.Pool().ResetStats()
		}
	}
	for _, n := range db.cluster.Nodes {
		n.Trail.ResetStats()
	}
	db.catalog.Plans().Reset()
}

// CrashVolume simulates losing the processor that runs the named
// volume's Disk Process.
func (db *Database) CrashVolume(name string) error { return db.cluster.CrashDP(name) }

// RestartVolume recovers the named volume from the audit trail and
// brings its Disk Process back (on cpu, or its old processor if cpu<0).
func (db *Database) RestartVolume(name string, cpu int) error {
	return db.cluster.RestartDP(name, cpu)
}

// Close shuts the network down, flushing the audit trails. The TCP
// front door (if any) closes first; use Drain before Close to let
// in-flight remote requests finish instead of cutting them off.
func (db *Database) Close() {
	if db.servingSQL {
		db.cluster.Net.StopServer(nsqlwire.ServerName)
		db.servingSQL = false
	}
	db.cluster.Close()
}

// FormatResult renders a query result as an aligned text table.
func FormatResult(r *Result) string { return sql.FormatResult(r) }
