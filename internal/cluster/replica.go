package cluster

// Replicated partition groups: each data volume's Disk Process gets a
// backup DP on another node, with its own volume and its own node's
// audit trail, kept current by shipping every audit record over the
// message system (in-process client or a wire transport into another
// nsqld). TakeoverReplica repoints the partition's server name at the
// promoted backup; committed transactions survive because a commit is
// only acknowledged after the backup has it durable.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"nonstopsql/internal/dp"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/wal"
)

// shipper is the primary side of the checkpoint stream. Records are
// buffered as framed bytes, each prefixed with a monotone per-record
// sequence number; flush sends the whole buffer as one KShipRecords
// batch and clears it on acknowledgement. A transport failure retains
// the buffer — the next flush resends it (plus anything newly shipped)
// and the backup's sequence check skips what it already applied, so a
// transient disconnect is caught up instead of silently diverging.
type shipper struct {
	transport msg.Transport
	target    string

	mu       sync.Mutex
	nextSeq  uint64
	buf      [][]byte
	bufBytes int

	batches uint64
	records uint64
	bytes   uint64
	retries uint64
}

func newShipper(t msg.Transport, target string) *shipper {
	return &shipper{transport: t, target: target}
}

// ship buffers one audit record. Called from the DP under its record
// locks, so per-key record order equals buffer order equals sequence
// order.
func (s *shipper) ship(rec *wal.Record) {
	s.mu.Lock()
	s.nextSeq++
	frame := binary.AppendUvarint(nil, s.nextSeq)
	frame = rec.Encode(frame)
	s.buf = append(s.buf, frame)
	s.bufBytes += len(frame)
	s.mu.Unlock()
}

// flush sends the buffered records and waits for the backup to apply
// them (and make any commit among them durable on its own trail). The
// mutex is held across the send: batches leave in sequence order. The
// error is returned so callers about to acknowledge durability can
// account for the backup NOT having the records — the DP counts the
// degraded ack, and TakeoverReplica refuses to promote on it.
func (s *shipper) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return nil
	}
	fault.Inject(fault.CheckpointShip)
	if err := call(s.transport, s.target, &fsdp.Request{Kind: fsdp.KShipRecords, Rows: s.buf}); err != nil {
		// Backup unreachable: retain the buffer for catch-up. The
		// primary keeps serving — a dead backup must not take the
		// partition down with it.
		s.retries++
		return fmt.Errorf("ship %d records to %s: %w", len(s.buf), s.target, err)
	}
	s.batches++
	s.records += uint64(len(s.buf))
	s.bytes += uint64(s.bufBytes)
	s.buf = nil
	s.bufBytes = 0
	return nil
}

// call sends one request to a backup and turns a refusal in its reply
// into an error.
func call(t msg.Transport, target string, req *fsdp.Request) error {
	replyBytes, err := t.Send(target, fsdp.EncodeRequest(req))
	if err != nil {
		return err
	}
	reply, err := fsdp.DecodeReply(replyBytes)
	if err == nil && !reply.OK() {
		err = fmt.Errorf("%s", reply.Err)
	}
	return err
}

func (s *shipper) snapshot() (batches, records, bytes, retries uint64, retained int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches, s.records, s.bytes, s.retries, len(s.buf)
}

// ReplicationStats reports one partition group's checkpoint-stream
// progress: the primary side (shipped) and, when the backup is in this
// process, the backup side (applied).
type ReplicationStats struct {
	ShippedBatches  uint64
	ShippedRecords  uint64
	ShippedBytes    uint64
	ShipRetries     uint64 // failed flushes (buffer retained for catch-up)
	RetainedRecords int    // buffered records awaiting the next flush

	// DegradedAcks counts acknowledgements the serving DP returned while
	// the backup had not applied the stream: for those, "confirmed ⊆
	// backup-durable" is suspended until the retained buffer catches up.
	DegradedAcks uint64

	AppliedBatches uint64 // zero when the backup lives in another process
	AppliedRecords uint64
	Promoted       bool
	InDoubt        int
	Fenced         int // in-flight transactions promotion undid and fenced
}

// ReplicationStats returns the named partition group's stream counters.
func (c *Cluster) ReplicationStats(name string) (ReplicationStats, error) {
	e, ok := c.dps[name]
	if !ok || e.ship == nil {
		return ReplicationStats{}, fmt.Errorf("cluster: %q is not a replicated partition", name)
	}
	var st ReplicationStats
	st.ShippedBatches, st.ShippedRecords, st.ShippedBytes, st.ShipRetries, st.RetainedRecords = e.ship.snapshot()
	st.DegradedAcks = e.dp.ShipDegradedAcks()
	if e.backupDP != nil {
		st.AppliedBatches, st.AppliedRecords, st.Promoted, st.InDoubt, st.Fenced = e.backupDP.ReplicaStats()
	}
	return st, nil
}

// AddReplica creates the backup Disk Process for a primary partition.
// With in-process replication AddVolume calls this itself; a separate
// process hosting backups for a remote primary (wire-to-wire groups)
// calls it directly, then the primary's cluster ships to
// primary+"#B" through a wire transport. The backup's volume and
// server are both named primary+"#B", and it audits to ITS node's
// trail — the group survives the loss of either node's trail.
func (c *Cluster) AddReplica(node, cpu int, primary string) (*dp.DP, error) {
	e, err := c.startDP(node, cpu, primary+fsdp.BackupSuffix, nil)
	if err != nil {
		return nil, err
	}
	return e.dp, nil
}

// TakeoverReplica promotes a replicated partition's backup to primary:
// drain the shipper's retained buffer (catch-up), promote the backup
// (resolve in-flight transactions), and repoint the partition's server
// name — locally at the backup DP's handler, or at a forwarder that
// relays frames over the wire when the backup lives in another
// process. In-flight FS conversations that saw the name vanish re-drive
// against the new primary.
func (c *Cluster) TakeoverReplica(name string) error {
	e, ok := c.dps[name]
	if !ok {
		return fmt.Errorf("cluster: no DP %q", name)
	}
	if e.ship == nil {
		return fmt.Errorf("cluster: %q is not a replicated partition", name)
	}
	// Catch-up: whatever the shipper still holds (mid-transaction
	// records, or batches a transient disconnect retained) goes to the
	// backup before promotion resolves in-flight state. A failed
	// catch-up refuses the takeover outright: the retained buffer may
	// hold acknowledged commits, and promoting a backup without them
	// would silently lose confirmed transactions. The buffer is still
	// retained — fix the backup (or its transport) and retry.
	if err := e.ship.flush(); err != nil {
		return fmt.Errorf("cluster: takeover of %s refused, backup missing shipped records (possibly acknowledged commits): %w", name, err)
	}
	c.Net.StopServer(name)

	target := name + fsdp.BackupSuffix
	if err := call(e.ship.transport, target, &fsdp.Request{Kind: fsdp.KPromote}); err != nil {
		return fmt.Errorf("cluster: promote %s: %w", target, err)
	}

	if e.backupDP != nil {
		be := c.dps[target]
		if err := c.serve(name, be.node, be.cpu, e.backupDP); err != nil {
			return err
		}
		e.dp = e.backupDP
		e.node, e.cpu = be.node, be.cpu
		return nil
	}
	// Remote backup: the local server name becomes a relay into the
	// other process. Transport errors surface as general failures the
	// requester treats like any DP error.
	t := e.ship.transport
	_, err := c.Net.Register(name, msg.ProcessorID{Node: e.node, CPU: e.cpu}, c.opts.DPWorkers, func(req, out []byte) []byte {
		reply, err := t.SendAppend(target, req, out)
		if err != nil {
			return fsdp.AppendReply(out, &fsdp.Reply{Code: fsdp.ErrGeneral, Err: fmt.Sprintf("cluster: relay to %s: %v", target, err)})
		}
		return reply
	})
	return err
}
