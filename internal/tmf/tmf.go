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
	"fmt"
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
// the decoded reply. The File System provides the implementation; tmf
// stays independent of routing.
type Sender func(server string, req *fsdp.Request) (*fsdp.Reply, error)

// A Tx is one distributed transaction: the client-side state TMF keeps
// while the transaction is active.
type Tx struct {
	ID uint64

	mu           sync.Mutex
	participants []string // Disk Process names, in join order
	done         bool
}

// Begin starts a transaction.
func Begin() *Tx {
	return &Tx{ID: NewTxID()}
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
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return fmt.Errorf("tmf: transaction %d already finished", t.ID)
	}
	t.done = true
	parts := append([]string(nil), t.participants...)
	t.mu.Unlock()

	switch len(parts) {
	case 0:
		return nil
	case 1:
		reply, err := c.Send(parts[0], &fsdp.Request{Kind: fsdp.KCommit, Tx: t.ID})
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
		reply, err := c.Send(p, &fsdp.Request{Kind: fsdp.KPrepare, Tx: t.ID, CommitLSN: c.Trail.ID()})
		if err != nil || !reply.OK() {
			// Presumed abort: tell everyone to undo.
			c.abortAll(t.ID, parts)
			if err != nil {
				return fmt.Errorf("tmf: prepare of %d at %s: %w", t.ID, p, err)
			}
			return fmt.Errorf("tmf: prepare of %d at %s: %s", t.ID, p, reply.Err)
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
		reply, err := c.Send(p, &fsdp.Request{Kind: fsdp.KCommit, Tx: t.ID, CommitLSN: uint64(lsn)})
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
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return fmt.Errorf("tmf: transaction %d already finished", t.ID)
	}
	t.done = true
	parts := append([]string(nil), t.participants...)
	t.mu.Unlock()
	return c.abortAll(t.ID, parts)
}

func (c *Coordinator) abortAll(tx uint64, parts []string) error {
	var firstErr error
	for _, p := range parts {
		reply, err := c.Send(p, &fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
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

// Append adds one audit record, returning its LSN, and charges an
// audit-send message whenever the local buffer fills.
func (a *AuditPort) Append(r *wal.Record) wal.LSN {
	lsn := a.trail.Append(r)
	a.mu.Lock()
	a.buffered += r.Size()
	if a.buffered >= a.bufLimit {
		a.flushLocked()
	}
	a.mu.Unlock()
	return lsn
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
	payload := make([]byte, size) // the audit bytes themselves
	// The audit trail DP acknowledges; failures are impossible on the
	// reliable simulated bus, so the reply is discarded.
	_, _ = a.client.Send(a.auditServer, payload)
}

// Sends returns how many audit-send messages this port has issued.
func (a *AuditPort) Sends() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sends
}
