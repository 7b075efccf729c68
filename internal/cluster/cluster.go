// Package cluster assembles the simulated Tandem network of Figure 1:
// one or more nodes, each with up to sixteen processors, disk volumes
// managed by Disk Process groups, one audit trail volume per node, and
// File System instances for requester processes on any processor.
package cluster

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/disk/filevol"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/msg/wire"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// Options tunes the cluster's subsystems. The zero value commits in
// groups but leaves pre-fetch and write-behind off; nonstopsql.Open
// turns those two on.
type Options struct {
	Nodes         int // default 1
	CPUsPerNode   int // default 4, max 16
	Prefetch      bool
	WriteBehind   bool
	DPWorkers     int  // service slots per DP: requests served at once (default 16)
	CacheSlots    int  // buffer pool pages per DP
	CacheShards   int  // buffer pool shards per DP (0 = derive from slots)
	CachePlainLRU bool // disable scan-resistant replacement (ablations)
	MaxReplyBytes int
	MaxRowsPerMsg int
	LockTimeout   time.Duration
	AuditBufBytes int // per-DP audit buffer (buffer-full send threshold)

	// ScanParallel is the default degree of parallelism FS instances
	// apply to partitioned scans, counts, and subset fan-out (0 = the
	// classic sequential one-partition-at-a-time conversations). Each
	// scanner goroutine still drives a strictly sequential re-drive
	// conversation against its partition's DP, so the useful ceiling is
	// the partition count; DPWorkers bounds how many requests one DP
	// group serves at once on the other side.
	ScanParallel int

	// DisableGroupCommit flushes every commit record alone, by its own
	// appender: the sync-per-commit baseline.
	DisableGroupCommit bool

	// Replication runs every data volume's Disk Process as a replicated
	// partition group — the paper's process pair [Bartlett]: a backup
	// DP on another node (with its own volume and its own node's audit
	// trail) applies every shipped audit record, commits are
	// acknowledged only after the backup holds them durably, and
	// TakeoverReplica repoints the partition at the backup on primary
	// failure. Browse reads can be absorbed by the backup
	// (fs.SetFollowerReads).
	Replication bool

	// ReplicaTransport, with Replication, ships checkpoint batches
	// through this transport — e.g. an nsqlclient.Pool dialed at a
	// second nsqld that registered the backups with AddReplica —
	// instead of creating in-process backup DPs. The transport must
	// reach servers named <volume>+"#B".
	ReplicaTransport msg.Transport

	// DataDir, when set, backs every volume — audit trails included —
	// with a real file under this directory (disk/filevol) instead of
	// the simulated in-memory volume: writes survive the process, fsync
	// is physical, and the asynchronous I/O scheduler serves the cache
	// and the trail. SyncPerWrite selects the naive fsync-per-write mode
	// instead of batched-async.
	DataDir      string
	SyncPerWrite bool

	// Listen, when set, serves the cluster's message network over TCP:
	// a wire server binds the address and dispatches remote request
	// frames into Net, so processes outside this OS process (nsqld
	// clients) can hold conversations with any registered server. Use
	// "127.0.0.1:0" to bind an ephemeral port (see Addr).
	Listen string

	// WireReplyTimeout bounds each remotely-dispatched request on the
	// server side, so a hung handler cannot pin a drain forever
	// (0 = wait forever).
	WireReplyTimeout time.Duration
}

func (o *Options) setDefaults() {
	if o.Nodes == 0 {
		o.Nodes = 1
	}
	if o.CPUsPerNode == 0 {
		o.CPUsPerNode = 4
	}
	if o.CPUsPerNode > 16 {
		o.CPUsPerNode = 16
	}
	if o.DPWorkers == 0 {
		// The real Disk Process parks lock-waiting requests without
		// consuming one of the group's processes; with goroutine
		// handlers the analog is a pool deep enough that waiters do not
		// starve the commit messages that would release them.
		o.DPWorkers = 16
	}
}

// A Node is one Tandem system: processors, volumes, an audit trail.
type Node struct {
	ID       int
	Trail    *wal.Trail
	AuditVol disk.BlockDev
	auditSrv string
}

// A Cluster is the whole simulated network.
type Cluster struct {
	Net   *msg.Network
	Nodes []*Node
	opts  Options

	dps     map[string]*dpEntry
	servers []string
	wire    *wire.Server // TCP front door, nil unless Options.Listen set
}

type dpEntry struct {
	dp   *dp.DP
	node int
	cpu  int
	vol  disk.BlockDev

	// Replicated partition group state (Options.Replication).
	ship     *shipper // primary's checkpoint stream, nil otherwise
	backupDP *dp.DP   // in-process backup, nil when shipped over a wire
}

// newVolume creates one volume per the cluster options: simulated by
// default, file-backed under DataDir when set.
func (c *Cluster) newVolume(name string) (disk.BlockDev, error) {
	if c.opts.DataDir == "" {
		return disk.NewVolume(name, true), nil
	}
	mode := filevol.BatchedAsync
	if c.opts.SyncPerWrite {
		mode = filevol.SyncPerWrite
	}
	file := strings.TrimPrefix(name, "$") + ".vol"
	return filevol.Open(filevol.Config{
		Path: filepath.Join(c.opts.DataDir, file),
		Name: name,
		Mode: mode,
	})
}

// New builds the cluster: per node, an audit volume, its trail, and the
// audit trail Disk Process (a plain acknowledging server — the real
// write optimization lives in wal.Trail).
func New(opts Options) (*Cluster, error) {
	opts.setDefaults()
	if opts.Replication && opts.ReplicaTransport == nil && opts.Nodes < 2 {
		// An in-process backup on the primary's own node would share its
		// audit trail, silently defeating the "survives the loss of
		// either node's trail" property the group exists for.
		return nil, fmt.Errorf("cluster: Replication with in-process backups requires Nodes >= 2 (or a ReplicaTransport to host backups in another process)")
	}
	c := &Cluster{Net: msg.NewNetwork(), opts: opts, dps: make(map[string]*dpEntry)}
	for n := 0; n < opts.Nodes; n++ {
		auditVol, err := c.newVolume(fmt.Sprintf("$AUDIT%d", n))
		if err != nil {
			return nil, err
		}
		trail, err := wal.NewTrail(wal.Config{
			Volume:      auditVol,
			ID:          uint64(n + 1),
			GroupCommit: !opts.DisableGroupCommit,
		})
		if err != nil {
			return nil, err
		}
		node := &Node{ID: n, Trail: trail, AuditVol: auditVol,
			auditSrv: fmt.Sprintf("$AUDIT%d", n)}
		// The audit trail volume's Disk Process: receives audit sends.
		proc := msg.ProcessorID{Node: n, CPU: opts.CPUsPerNode - 1}
		if _, err := c.Net.StartServer(node.auditSrv, proc, 1, func(req []byte) []byte { return nil }); err != nil {
			return nil, err
		}
		c.servers = append(c.servers, node.auditSrv)
		c.Nodes = append(c.Nodes, node)
	}
	if opts.Listen != "" {
		ws, err := wire.Listen(opts.Listen, c.Net, wire.Options{ReplyTimeout: opts.WireReplyTimeout})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.wire = ws
	}
	return c, nil
}

// Addr returns the TCP listen address when the cluster is being served
// over the wire ("" otherwise). With Options.Listen ":0" this is where
// the ephemeral port shows up.
func (c *Cluster) Addr() string {
	if c.wire == nil {
		return ""
	}
	return c.wire.Addr()
}

// CPUsPerNode returns how many processors each node has.
func (c *Cluster) CPUsPerNode() int { return c.opts.CPUsPerNode }

// WireServer exposes the TCP front door (nil unless Options.Listen was
// set) for drain control and wire-level counters.
func (c *Cluster) WireServer() *wire.Server { return c.wire }

// Drain gracefully quiesces the TCP front door: stop accepting
// connections, refuse new request frames, answer the requests already
// in flight (bounded by timeout; 0 = wait forever). A no-op when the
// cluster is not being served.
func (c *Cluster) Drain(timeout time.Duration) error {
	if c.wire == nil {
		return nil
	}
	return c.wire.Drain(timeout)
}

// AddVolume creates a data volume named name managed by a new Disk
// Process group on the given processor, and returns the DP. With
// Replication and no ReplicaTransport, its backup is created first on
// the next node.
func (c *Cluster) AddVolume(node, cpu int, name string) (*dp.DP, error) {
	// Checked here too: the backup is created before the primary.
	if err := c.checkNew(node, name); err != nil {
		return nil, err
	}
	var ship *shipper
	var backup *dp.DP
	if c.opts.Replication {
		transport := c.opts.ReplicaTransport
		if transport == nil {
			// In-process group: the backup DP lives on the next node
			// (its own volume, its own node's trail), reached through
			// the simulated interconnect like any other server.
			var err error
			if backup, err = c.AddReplica((node+1)%len(c.Nodes), cpu, name); err != nil {
				return nil, err
			}
			transport = c.Net.NewClient(msg.ProcessorID{Node: node, CPU: cpu})
		}
		ship = newShipper(transport, name+fsdp.BackupSuffix)
	}
	e, err := c.startDP(node, cpu, name, ship)
	if err != nil {
		return nil, err
	}
	e.backupDP = backup
	return e.dp, nil
}

// checkNew refuses a Disk Process on a node that does not exist or
// under a name already taken.
func (c *Cluster) checkNew(node int, name string) error {
	if node < 0 || node >= len(c.Nodes) {
		return fmt.Errorf("cluster: no node %d", node)
	}
	if _, dup := c.dps[name]; dup {
		return fmt.Errorf("cluster: DP %q exists", name)
	}
	return nil
}

// startDP opens name's volume, builds its Disk Process auditing to the
// node's trail (shipping to ship when it is non-nil), serves it under
// name on the given processor and registers it. The node and the name
// are checked before the volume is opened; the volume and the DP are
// closed again on any later error.
func (c *Cluster) startDP(node, cpu int, name string, ship *shipper) (*dpEntry, error) {
	if err := c.checkNew(node, name); err != nil {
		return nil, err
	}
	vol, err := c.newVolume(name)
	if err != nil {
		return nil, err
	}
	n := c.Nodes[node]
	cfg := dp.Config{
		Name:          name,
		Volume:        vol,
		CacheSlots:    c.opts.CacheSlots,
		Audit:         tmf.NewAuditPort(n.Trail, c.Net.NewClient(msg.ProcessorID{Node: node, CPU: cpu}), n.auditSrv, c.opts.AuditBufBytes),
		LockTimeout:   c.opts.LockTimeout,
		MaxReplyBytes: c.opts.MaxReplyBytes,
		MaxRowsPerMsg: c.opts.MaxRowsPerMsg,
		Prefetch:      c.opts.Prefetch,
		WriteBehind:   c.opts.WriteBehind,
		CacheShards:   c.opts.CacheShards,
		CachePlainLRU: c.opts.CachePlainLRU,
	}
	if ship != nil {
		cfg.Ship = ship.ship
		cfg.ShipFlush = ship.flush
	}
	d, err := dp.New(cfg)
	if err != nil {
		_ = vol.Close()
		return nil, err
	}
	if err := c.serve(name, node, cpu, d); err != nil {
		_ = d.Close()
		_ = vol.Close()
		return nil, err
	}
	e := &dpEntry{dp: d, node: node, cpu: cpu, vol: vol, ship: ship}
	c.servers = append(c.servers, name)
	c.dps[name] = e
	return e, nil
}

// serve starts d's process group under name on the given processor.
// Queue wait lives at the msg server (only it sees the input queue); it
// is wired into dp.Stats so service time and queue wait can be compared
// side by side.
func (c *Cluster) serve(name string, node, cpu int, d *dp.DP) error {
	srv, err := c.Net.Register(name, msg.ProcessorID{Node: node, CPU: cpu}, c.opts.DPWorkers, d.Handler)
	if err != nil {
		return err
	}
	d.SetQueueWait(srv.QueueWait)
	return nil
}

// DP returns a Disk Process by volume name.
func (c *Cluster) DP(name string) *dp.DP {
	if e, ok := c.dps[name]; ok {
		return e.dp
	}
	return nil
}

// NewFS creates a File System instance for a requester process on the
// given processor. Its commit coordinator uses that node's audit trail.
func (c *Cluster) NewFS(node, cpu int) *fs.FS {
	client := c.Net.NewClient(msg.ProcessorID{Node: node, CPU: cpu})
	coord := &tmf.Coordinator{Trail: c.Nodes[node].Trail}
	f := fs.New(client, coord)
	f.SetScanParallel(c.opts.ScanParallel)
	if c.opts.Replication {
		// Rides through a takeover: requests that hit the vanished
		// server name re-drive until the backup is promoted under it.
		f.SetRedriveWindow(5 * time.Second)
	}
	return f
}

// CrashDP simulates the processor running the named DP failing: the
// server stops answering and the DP loses its cache, locks, and
// transaction state. The volume survives.
func (c *Cluster) CrashDP(name string) error {
	e, ok := c.dps[name]
	if !ok {
		return fmt.Errorf("cluster: no DP %q", name)
	}
	c.Net.StopServer(name)
	e.dp.Crash()
	return nil
}

// RestartDP restarts a crashed DP: recovery from the audit trail, then
// re-registration of the server (optionally on another processor; cpu
// < 0 keeps the one it ran on). The DP's records are its own node's
// trail, in its order; a transaction's outcome may be on another's — a
// two-node transaction's commit record is on its coordinator's trail — so
// every other node's COMMIT records are passed on as outcomes.
func (c *Cluster) RestartDP(name string, cpu int) error {
	e, ok := c.dps[name]
	if !ok {
		return fmt.Errorf("cluster: no DP %q", name)
	}
	var recs []*wal.Record
	for i, n := range c.Nodes {
		n.Trail.Flush() // make every assigned LSN visible to the scan
		trail, err := wal.Scan(n.AuditVol, n.Trail.FirstBlock())
		if err != nil {
			return err
		}
		if i == e.node {
			recs = append(recs, trail...)
			continue
		}
		for _, r := range trail {
			if r.Type == wal.RecCommit {
				recs = append(recs, r)
			}
		}
	}
	if err := e.dp.Recover(recs); err != nil {
		return err
	}
	if cpu >= 0 {
		e.cpu = cpu
	}
	return c.serve(name, e.node, e.cpu, e.dp)
}

// Close stops each DP's background writer, then flushes trails and
// stops all servers. DPs close first: their writers must not race a
// closing trail, and DP.Close never forces the trail, so the order is
// safe even with unaged dirty pages outstanding. Volumes close last —
// on file-backed devices that drains the I/O scheduler, persists the
// allocation header with the clean flag, and fsyncs.
func (c *Cluster) Close() {
	// The wire front door goes first: no remote request may arrive once
	// the DPs and trails start shutting down underneath it.
	if c.wire != nil {
		c.wire.Close()
	}
	for _, e := range c.dps {
		_ = e.dp.Close()
	}
	for _, n := range c.Nodes {
		n.Trail.Close()
	}
	for _, s := range c.servers {
		c.Net.StopServer(s)
	}
	for _, e := range c.dps {
		_ = e.vol.Close()
	}
	for _, n := range c.Nodes {
		_ = n.AuditVol.Close()
	}
}
