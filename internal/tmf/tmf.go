// Package tmf implements the Transaction Monitoring Facility: network-
// wide transaction identity, the requester-side commit coordinator
// (presumed-abort two-phase commit over the FS-DP message protocol), and
// the audit-port accounting that models each Disk Process's audit buffer
// and its buffer-full "sends of audit to the audit trail Disk Process".
//
// The audit trail itself (LSNs, group commit, durability) lives in
// package wal; Disk Processes append through an AuditPort so that the
// message cost of shipping audit to the audit trail volume's Disk
// Process is charged on the same meter as all other traffic.
package tmf

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/wal"
)

// next is the network-wide transaction id generator.
var next atomic.Uint64

// NewTxID allocates a fresh transaction identifier.
func NewTxID() uint64 { return next.Add(1) }

// ResetTxIDs restarts the generator, so the next transaction is number
// 1 again. It exists for internal/experiments: an id travels as a varint
// in every audit record and request, so the byte counts an experiment
// reports depend on how many transactions the process began before it.
// Call it only while no transaction is live anywhere in the process.
func ResetTxIDs() { next.Store(0) }

// Sender delivers one FS-DP request to a named Disk Process and returns
// the decoded reply, encoding the request into ar and decoding the reply
// there (fsdp.Arena): the reply is valid until ar is reset or sends
// again. The File System provides the implementation; tmf stays
// independent of routing.
type Sender func(ar *fsdp.Arena, server string, req *fsdp.Request) (*fsdp.Reply, error)

// A Tx is one distributed transaction: the client-side state TMF keeps
// while the transaction is active.
type Tx struct {
	ID uint64

	mu           sync.Mutex
	participants []string // Disk Process names, in join order
	done         bool     // once set, participants no longer changes
	joined       [4]string
}

// Begin starts a transaction. Its first participants are listed inside
// it: a transaction allocates only itself until it touches a fifth Disk
// Process.
func Begin() *Tx {
	t := &Tx{ID: NewTxID()}
	t.participants = t.joined[:0]
	return t
}

// Join records that the transaction touched the named Disk Process.
// Idempotent while the transaction is active. Joining a finished
// transaction is an error: the commit/abort protocol has already run
// with the participant list it saw, so a late participant would hold
// its locks forever — no coordinator will ever resolve it.
func (t *Tx) Join(server string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return fmt.Errorf("tmf: join of finished transaction %d by %s", t.ID, server)
	}
	for _, p := range t.participants {
		if p == server {
			return nil
		}
	}
	t.participants = append(t.participants, server)
	return nil
}

// Participants returns the joined Disk Processes.
func (t *Tx) Participants() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.participants...)
}

// A Coordinator commits and aborts transactions. It owns the node's
// audit trail reference for writing commit records and a Sender for the
// participant protocol.
type Coordinator struct {
	Trail *wal.Trail
	Send  Sender

	rounds sync.Pool // *round
}

// A round is what one Commit or Abort sends its protocol from: the
// request it addresses to each participant in turn and the arena the
// messages and their replies lie in, reused from commit to commit.
type round struct {
	req fsdp.Request
	ar  fsdp.Arena
}

// begin takes a round for one transaction's commit or abort; end gives
// it back.
func (c *Coordinator) begin() *round {
	r, _ := c.rounds.Get().(*round)
	if r == nil {
		r = new(round)
	}
	r.ar.Reset()
	return r
}

func (c *Coordinator) end(r *round) { c.rounds.Put(r) }

// send sends the round's request, as kind, to one participant.
func (c *Coordinator) send(r *round, server string, kind fsdp.Kind, tx, commitLSN uint64) (*fsdp.Reply, error) {
	r.req = fsdp.Request{Kind: kind, Tx: tx, CommitLSN: commitLSN}
	return c.Send(&r.ar, server, &r.req)
}

// finish marks t done and returns its participants, which no longer
// change.
func (t *Tx) finish() ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil, fmt.Errorf("tmf: transaction %d already finished", t.ID)
	}
	t.done = true
	return t.participants, nil
}

// Commit drives the commit protocol:
//
//	read-only or single-participant: one KCommit message — the Disk
//	Process writes the commit record (riding group commit) itself.
//
//	multi-participant: presumed-abort 2PC — KPrepare to every
//	participant, commit record written and forced durable via group
//	commit, then KCommit to every participant. KPrepare names the
//	coordinator's trail: the paper's TMF keeps one audit trail per node,
//	and only a participant on another node's trail has to force its
//	prepare record (dp.prepare has the argument).
func (c *Coordinator) Commit(t *Tx) error {
	parts, err := t.finish()
	if err != nil || len(parts) == 0 {
		return err
	}
	r := c.begin()
	defer c.end(r)
	if len(parts) == 1 {
		reply, err := c.send(r, parts[0], fsdp.KCommit, t.ID, 0)
		if err != nil {
			return err
		}
		if !reply.OK() {
			return fmt.Errorf("tmf: commit of %d failed: %s", t.ID, reply.Err)
		}
		return nil
	}

	// Phase 1: prepare everyone.
	for _, p := range parts {
		reply, err := c.send(r, p, fsdp.KPrepare, t.ID, c.Trail.ID())
		if err == nil && !reply.OK() {
			err = errors.New(reply.Err)
		}
		if err != nil {
			// Presumed abort: tell everyone to undo.
			c.abortAll(r, t.ID, parts)
			return fmt.Errorf("tmf: prepare of %d at %s: %w", t.ID, p, err)
		}
	}

	fault.Inject(fault.TMFAfterPrepare)

	// Commit point: the commit record on the audit trail.
	lsn := c.Trail.AppendCommit(t.ID)
	fault.Inject(fault.TMFCommitAppended)
	c.Trail.WaitDurable(lsn)
	fault.Inject(fault.TMFCommitDurable)

	// Phase 2: release everyone.
	var firstErr error
	for _, p := range parts {
		reply, err := c.send(r, p, fsdp.KCommit, t.ID, uint64(lsn))
		if err == nil && !reply.OK() {
			err = fmt.Errorf("%s", reply.Err)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tmf: commit phase 2 of %d at %s: %w", t.ID, p, err)
		}
	}
	return firstErr
}

// Abort undoes the transaction at every participant.
func (c *Coordinator) Abort(t *Tx) error {
	parts, err := t.finish()
	if err != nil || len(parts) == 0 {
		return err
	}
	r := c.begin()
	defer c.end(r)
	return c.abortAll(r, t.ID, parts)
}

func (c *Coordinator) abortAll(r *round, tx uint64, parts []string) error {
	var firstErr error
	for _, p := range parts {
		reply, err := c.send(r, p, fsdp.KAbort, tx, 0)
		if err == nil && !reply.OK() {
			err = fmt.Errorf("%s", reply.Err)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tmf: abort of %d at %s: %w", tx, p, err)
		}
	}
	return firstErr
}

// An AuditPort is a Disk Process's connection to the audit trail. LSNs
// are assigned immediately (the trail is the node's single sequencer),
// while the *message* cost of shipping audit to the audit trail Disk
// Process is modeled by a local buffer: each time it fills, one
// audit-send message is charged to the network.
type AuditPort struct {
	trail       *wal.Trail
	client      *msg.Client
	auditServer string
	bufLimit    int

	mu       sync.Mutex
	buffered int
	sends    uint64
	payload  []byte // an audit-send's bytes, reused under mu: only their count matters
}

// NewAuditPort creates a port. bufLimit defaults to 16 KB, matching the
// trail's default buffer-full threshold.
func NewAuditPort(trail *wal.Trail, client *msg.Client, auditServer string, bufLimit int) *AuditPort {
	if bufLimit <= 0 {
		bufLimit = 16 * 1024
	}
	return &AuditPort{trail: trail, client: client, auditServer: auditServer, bufLimit: bufLimit}
}

// Trail exposes the underlying audit trail (WAL gate, commit records).
func (a *AuditPort) Trail() *wal.Trail { return a.trail }

// Append adds one audit record, returning its LSN, flushes the trail's
// buffer when the record fills it, and charges an audit-send message
// whenever the local buffer fills.
func (a *AuditPort) Append(r *wal.Record) wal.LSN {
	lsn, filled := a.Buffer(r)
	a.FlushFull(filled)
	return lsn
}

// Filled is what one Buffer call left undone: the trail's buffer-full
// flush, the audit-send of a full local buffer, or — the zero value —
// nothing.
type Filled struct {
	lsn         wal.LSN
	trail, send bool
}

// Buffer is Append without the I/O — no trail flush, no audit-send — for
// a caller that holds a page latch. The caller passes what it returns to
// FlushFull once it holds no latch.
func (a *AuditPort) Buffer(r *wal.Record) (wal.LSN, Filled) {
	lsn, full := a.trail.Buffer(r)
	f := Filled{lsn: lsn, trail: full}
	a.mu.Lock()
	a.buffered += r.Size()
	f.send = a.buffered >= a.bufLimit
	a.mu.Unlock()
	return lsn, f
}

// FlushFull does what a Buffer call left undone: the trail's flush,
// unless another caller's took the record, and the audit-send, unless
// another caller's emptied the local buffer.
func (a *AuditPort) FlushFull(f Filled) {
	if f.trail {
		a.trail.FlushFull(f.lsn)
	}
	if !f.send {
		return
	}
	a.mu.Lock()
	if a.buffered >= a.bufLimit {
		a.flushLocked()
	}
	a.mu.Unlock()
}

// FlushSend ships any buffered audit now (commit/prepare must not leave
// audit behind).
func (a *AuditPort) FlushSend() {
	a.mu.Lock()
	if a.buffered > 0 {
		a.flushLocked()
	}
	a.mu.Unlock()
}

func (a *AuditPort) flushLocked() {
	size := a.buffered
	a.buffered = 0
	a.sends++
	if a.client == nil || a.auditServer == "" {
		return
	}
	a.payload = slices.Grow(a.payload[:0], size)[:size] // stands for the audit bytes themselves
	// The audit trail DP acknowledges; failures are impossible on the
	// reliable simulated bus, so the reply is discarded.
	_, _ = a.client.Send(a.auditServer, a.payload)
}

// Sends returns how many audit-send messages this port has issued.
func (a *AuditPort) Sends() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sends
}
