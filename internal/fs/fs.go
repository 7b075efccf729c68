// Package fs implements the File System: the set of library routines
// that run in the requester (application) process and turn logical file
// operations into FS-DP messages. The File System owns exactly the
// functions the paper assigns it:
//
//   - routing each request to the Disk Process managing the right
//     partition, based on record key ranges;
//   - access via secondary indices (read the index's DP, then the base
//     file's DP — Figure 2) and index maintenance consistent with base
//     file updates and deletes;
//   - de-blocking sequential block buffers locally, so multiple
//     record-at-a-time reads cost no messages;
//   - the continuation re-drive loop for set-oriented requests;
//   - client-side buffering for the paper's proposed blocked-insert and
//     update/delete-where-current interfaces.
package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/obs"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// Errors surfaced to callers, mapped from reply codes.
var (
	ErrNotFound    = errors.New("fs: record not found")
	ErrDuplicate   = errors.New("fs: duplicate record key")
	ErrDeadlock    = errors.New("fs: deadlock")
	ErrLockTimeout = errors.New("fs: lock wait timeout")
	ErrConstraint  = errors.New("fs: CHECK constraint violated")
	// ErrProtocol is a reply that decodes but is not an answer to the
	// request that was sent.
	ErrProtocol = errors.New("fs: protocol violation")
)

func replyErr(reply *fsdp.Reply) error {
	switch reply.Code {
	case fsdp.ErrNone:
		return nil
	case fsdp.ErrNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, reply.Err)
	case fsdp.ErrDuplicate:
		return fmt.Errorf("%w: %s", ErrDuplicate, reply.Err)
	case fsdp.ErrDeadlock:
		return fmt.Errorf("%w: %s", ErrDeadlock, reply.Err)
	case fsdp.ErrLockTimeout:
		return fmt.Errorf("%w: %s", ErrLockTimeout, reply.Err)
	case fsdp.ErrConstraint:
		return fmt.Errorf("%w: %s", ErrConstraint, reply.Err)
	default:
		return fmt.Errorf("fs: %s", reply.Err)
	}
}

// A Partition is one horizontal fragment of a file: the Disk Process
// serving it and the first key it covers (nil = LOW-VALUE).
type Partition struct {
	Server string
	LowKey []byte
}

// An IndexDef describes one secondary index: a key-sequenced file whose
// key is (indexed column value, base primary key columns) and whose
// record repeats those fields.
type IndexDef struct {
	Name       string
	Column     int // indexed column ordinal in the base schema
	Partitions []Partition

	schema *record.Schema
}

// A FileDef describes a base file: its schema, CHECK constraint,
// partitions, and secondary indices. The file or table "is viewed as the
// sum of all its partitions and secondary indices only from the
// perspective of the SQL Executor or ENSCRIBE File System invoker".
type FileDef struct {
	Name       string
	Schema     *record.Schema
	Check      expr.Expr
	Partitions []Partition
	Indexes    []*IndexDef
	FieldAudit bool // SQL field-compressed audit
}

// indexSchema builds the record layout of an index file.
func indexSchema(base *record.Schema, idx *IndexDef) (*record.Schema, error) {
	fields := []record.Field{{
		Name: base.Fields[idx.Column].Name, Type: base.Fields[idx.Column].Type,
	}}
	keyFields := make([]int, 1+len(base.KeyFields))
	keyFields[0] = 0
	for i, k := range base.KeyFields {
		fields = append(fields, base.Fields[k])
		keyFields[i+1] = i + 1
	}
	return record.NewSchema(idx.Name, fields, keyFields)
}

// indexRow builds the index record for one base row.
func indexRow(base *record.Schema, idx *IndexDef, row record.Row) record.Row {
	out := record.Row{row[idx.Column]}
	for _, k := range base.KeyFields {
		out = append(out, row[k])
	}
	return out
}

// An FS is one requester process's File System instance.
type FS struct {
	client *msg.Client
	coord  *tmf.Coordinator

	// scanDOP is the default degree of parallelism applied when a
	// SelectSpec leaves Parallel at zero. Zero keeps the classic
	// synchronous one-partition-at-a-time scan.
	scanDOP int

	// obsRec, when set, receives one trace per partition conversation
	// of every set-oriented operation (see op.finish). Set it before
	// issuing requests.
	obsRec *obs.Recorder

	// redriveWindow, when positive, re-drives a send that failed with
	// msg.ErrNoServer for up to this long: during a partition takeover
	// the server name vanishes until the cluster repoints it at the
	// promoted backup. ErrNoServer strictly means the request was never
	// enqueued, so the retry cannot double-apply a write.
	redriveWindow time.Duration

	// followerReads routes transactionless (browse) point reads to the
	// partition's backup DP (<server>+"#B"), absorbing read-mostly
	// traffic without touching the primary. Browse semantics only: the
	// backup applies records as they ship, so a read may see a
	// transaction's writes before its commit — exactly the paper's
	// browse access (no locks, no consistency promise).
	followerReads bool
}

// New creates a File System bound to a requester processor and the
// node's commit coordinator trail.
func New(client *msg.Client, coord *tmf.Coordinator) *FS {
	f := &FS{client: client, coord: coord}
	if coord != nil && coord.Send == nil {
		coord.Send = f.sendIn
	}
	return f
}

// SetScanParallel sets the default scan degree of parallelism used when
// a SelectSpec leaves Parallel at zero (0 = classic sequential scan).
// Not safe to call concurrently with scans in flight.
func (f *FS) SetScanParallel(dop int) {
	if dop < 0 {
		dop = 0
	}
	f.scanDOP = dop
}

// ScanParallel returns the default scan degree of parallelism.
func (f *FS) ScanParallel() int { return f.scanDOP }

// SetRedriveWindow bounds how long sends re-drive against a vanished
// server name (partition takeover in progress). 0 disables. Not safe
// to call concurrently with operations in flight.
func (f *FS) SetRedriveWindow(d time.Duration) { f.redriveWindow = d }

// SetFollowerReads routes browse (nil-tx) point reads to partition
// backups. Not safe to call concurrently with operations in flight.
func (f *FS) SetFollowerReads(on bool) { f.followerReads = on }

// SetObserver attaches a trace recorder; nil detaches. Not safe to call
// concurrently with operations in flight.
func (f *FS) SetObserver(rec *obs.Recorder) { f.obsRec = rec }

// Observer returns the attached trace recorder (nil when none).
func (f *FS) Observer() *obs.Recorder { return f.obsRec }

// Network exposes the message network this FS sends through, for
// traffic-counter reconciliation (EXPLAIN ANALYZE, experiments).
func (f *FS) Network() *msg.Network { return f.client.Network() }

// sendBytes is the single raw-send chokepoint: one request frame to one
// named server, its reply appended to out, with the takeover re-drive
// loop. Only msg.ErrNoServer is retried — the one transport error that
// guarantees the request was never enqueued, so a write cannot land
// twice. A re-drive waits for the next registration of a name on the
// network (the promoted backup taking the name over), bounded by the
// re-drive window, instead of polling.
func (f *FS) sendBytes(server string, raw, out []byte) ([]byte, error) {
	reply, err := f.client.SendAppend(server, raw, out)
	if err == nil || f.redriveWindow <= 0 || !errors.Is(err, msg.ErrNoServer) {
		return reply, err
	}
	window := time.NewTimer(f.redriveWindow)
	defer window.Stop()
	for {
		registered := f.client.Network().Registered()
		if reply, err = f.client.SendAppend(server, raw, out); err == nil || !errors.Is(err, msg.ErrNoServer) {
			return reply, err
		}
		select {
		case <-registered:
		case <-window.C:
			return reply, err
		}
	}
}

// send ships one request to a Disk Process and decodes the reply.
func (f *FS) send(server string, req *fsdp.Request) (*fsdp.Reply, error) {
	return f.sendIn(nil, server, req)
}

// sendIn is send through an arena: the request is encoded into it, the
// reply appended behind the request, and the reply decoded into the
// arena's Reply — valid, rows and all, until the arena is reset, and
// overwritten by the arena's next send. With a nil arena all of it is
// allocated and the reply is the caller's. It is the commit
// coordinator's tmf.Sender.
func (f *FS) sendIn(ar *fsdp.Arena, server string, req *fsdp.Request) (*fsdp.Reply, error) {
	raw := ar.Keep(fsdp.AppendRequest(ar.Free(), req))
	out, err := f.sendBytes(server, raw, ar.Free())
	if err != nil {
		return nil, err
	}
	reply := ar.Reply()
	if err := fsdp.DecodeReplyInto(reply, ar.Keep(out)); err != nil {
		return nil, err
	}
	return reply, nil
}

// SendRaw ships one FS-DP request and returns the undecorated reply. The
// ENSCRIBE layer uses it to drive its own record-at-a-time cursors.
func (f *FS) SendRaw(server string, req *fsdp.Request) (*fsdp.Reply, error) {
	return f.send(server, req)
}

// Begin starts a transaction.
func (f *FS) Begin() *tmf.Tx { return tmf.Begin() }

// Commit commits via the TMF coordinator.
func (f *FS) Commit(tx *tmf.Tx) error { return f.coord.Commit(tx) }

// Abort rolls back via the TMF coordinator.
func (f *FS) Abort(tx *tmf.Tx) error { return f.coord.Abort(tx) }

// Create materializes the file on every partition's Disk Process, and
// every index on its partitions' Disk Processes.
func (f *FS) Create(def *FileDef) error {
	if len(def.Partitions) == 0 {
		return fmt.Errorf("fs: file %q has no partitions", def.Name)
	}
	sortPartitions(def.Partitions)
	req := &fsdp.Request{
		Kind: fsdp.KCreateFile, File: def.Name,
		Schema: record.EncodeSchema(def.Schema),
		Check:  expr.Encode(def.Check),
		Audit:  def.FieldAudit,
	}
	for _, p := range def.Partitions {
		reply, err := f.send(p.Server, req)
		if err != nil {
			return err
		}
		if err := replyErr(reply); err != nil {
			return err
		}
	}
	for _, idx := range def.Indexes {
		if len(idx.Partitions) == 0 {
			return fmt.Errorf("fs: index %q has no partitions", idx.Name)
		}
		sortPartitions(idx.Partitions)
		is, err := indexSchema(def.Schema, idx)
		if err != nil {
			return err
		}
		idx.schema = is
		ireq := &fsdp.Request{
			Kind: fsdp.KCreateFile, File: idx.Name,
			Schema: record.EncodeSchema(is),
			Audit:  def.FieldAudit,
		}
		for _, p := range idx.Partitions {
			reply, err := f.send(p.Server, ireq)
			if err != nil {
				return err
			}
			if err := replyErr(reply); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortPartitions(ps []Partition) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].LowKey == nil {
			return true
		}
		if ps[j].LowKey == nil {
			return false
		}
		return bytes.Compare(ps[i].LowKey, ps[j].LowKey) < 0
	})
}

// IndexSchema returns the record layout of one of the file's indexes
// (available after Create).
func (def *FileDef) IndexSchema(idx *IndexDef) *record.Schema { return idx.schema }

// Drop removes the file's fragments and its indexes' fragments from
// their Disk Processes.
func (f *FS) Drop(def *FileDef) error {
	for _, p := range def.Partitions {
		reply, err := f.send(p.Server, &fsdp.Request{Kind: fsdp.KDropFile, File: def.Name})
		if err != nil {
			return err
		}
		if err := replyErr(reply); err != nil {
			return err
		}
	}
	for _, idx := range def.Indexes {
		for _, p := range idx.Partitions {
			reply, err := f.send(p.Server, &fsdp.Request{Kind: fsdp.KDropFile, File: idx.Name})
			if err != nil {
				return err
			}
			if err := replyErr(reply); err != nil {
				return err
			}
		}
	}
	return nil
}

// CreateIndex adds a secondary index to an existing file: it creates the
// index file on its partitions, backfills it from a scan of the base
// file, and registers it on def so subsequent writes maintain it. The
// backfill runs under tx.
func (f *FS) CreateIndex(tx *tmf.Tx, def *FileDef, idx *IndexDef) error {
	if len(idx.Partitions) == 0 {
		return fmt.Errorf("fs: index %q has no partitions", idx.Name)
	}
	sortPartitions(idx.Partitions)
	is, err := indexSchema(def.Schema, idx)
	if err != nil {
		return err
	}
	idx.schema = is
	ireq := &fsdp.Request{
		Kind: fsdp.KCreateFile, File: idx.Name,
		Schema: record.EncodeSchema(is),
		Audit:  def.FieldAudit,
	}
	for _, p := range idx.Partitions {
		reply, err := f.send(p.Server, ireq)
		if err != nil {
			return err
		}
		if err := replyErr(reply); err != nil {
			return err
		}
	}
	// Backfill from the base file.
	rows := f.Select(tx, def, SelectSpec{Mode: ModeRSBB, Range: keys.All()})
	for {
		row, _, ok := rows.Next()
		if !ok {
			break
		}
		if err := f.insertIndexEntry(tx, def, idx, row); err != nil {
			return err
		}
	}
	if err := rows.Err(); err != nil {
		return err
	}
	def.Indexes = append(def.Indexes, idx)
	return nil
}

// partitionFor returns the partition covering key: the last partition
// whose LowKey <= key.
func partitionFor(ps []Partition, key []byte) Partition {
	chosen := ps[0]
	for _, p := range ps[1:] {
		if p.LowKey != nil && bytes.Compare(p.LowKey, key) <= 0 {
			chosen = p
		} else {
			break
		}
	}
	return chosen
}

// partitionsFor returns the partitions intersecting a key range, in key
// order, each with the sub-range it covers.
func partitionsFor(ps []Partition, r keys.Range) []partSpan {
	var out []partSpan
	for i, p := range ps {
		span := keys.Range{Low: p.LowKey}
		if i+1 < len(ps) {
			span.High = ps[i+1].LowKey
		}
		// Intersect the partition's span with the request range.
		eff := span.Intersect(r)
		if eff.Empty() {
			continue
		}
		out = append(out, partSpan{server: p.Server, r: eff})
	}
	return out
}

type partSpan struct {
	server string
	r      keys.Range
}
