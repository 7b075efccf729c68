package tmf

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/wal"
)

// fakeDP records the participant protocol messages it receives.
type fakeDP struct {
	mu       sync.Mutex
	prepares []uint64
	trailIDs []uint64 // the coordinator trail each KPrepare named
	commits  []uint64
	aborts   []uint64
	failPrep bool
	trail    *wal.Trail
}

func (f *fakeDP) send(_ *fsdp.Arena, server string, req *fsdp.Request) (*fsdp.Reply, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch req.Kind {
	case fsdp.KPrepare:
		f.prepares = append(f.prepares, req.Tx)
		f.trailIDs = append(f.trailIDs, req.CommitLSN)
		if f.failPrep {
			return &fsdp.Reply{Code: fsdp.ErrGeneral, Err: "prepare refused"}, nil
		}
	case fsdp.KCommit:
		f.commits = append(f.commits, req.Tx)
		if f.trail != nil && req.CommitLSN == 0 {
			// Single-participant commit: the DP writes the commit record.
			lsn := f.trail.AppendCommit(req.Tx)
			f.trail.WaitDurable(lsn)
		}
	case fsdp.KAbort:
		f.aborts = append(f.aborts, req.Tx)
	}
	return &fsdp.Reply{}, nil
}

func newTrail(t *testing.T) *wal.Trail {
	t.Helper()
	v := disk.NewVolume("$AUDIT", true)
	tr, err := wal.NewTrail(wal.Config{Volume: v})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func TestTxIDsUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := NewTxID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate tx id %d", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestJoinIdempotent(t *testing.T) {
	tx := Begin()
	tx.Join("$D1")
	tx.Join("$D1")
	tx.Join("$D2")
	if got := tx.participants; len(got) != 2 || got[0] != "$D1" || got[1] != "$D2" {
		t.Errorf("participants %v", got)
	}
}

func TestCommitReadOnly(t *testing.T) {
	dp := &fakeDP{}
	c := &Coordinator{Trail: newTrail(t), Send: dp.send}
	tx := Begin()
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if len(dp.commits)+len(dp.prepares) != 0 {
		t.Error("read-only commit sent messages")
	}
}

func TestCommitSingleParticipantOneMessage(t *testing.T) {
	// The common case must be ONE message: no prepare round.
	trail := newTrail(t)
	dp := &fakeDP{trail: trail}
	c := &Coordinator{Trail: trail, Send: dp.send}
	tx := Begin()
	tx.Join("$D1")
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if len(dp.prepares) != 0 {
		t.Error("single participant saw a prepare")
	}
	if len(dp.commits) != 1 {
		t.Errorf("commits %v", dp.commits)
	}
}

func TestCommitTwoPhase(t *testing.T) {
	trail := newTrail(t)
	dp := &fakeDP{}
	c := &Coordinator{Trail: trail, Send: dp.send}
	tx := Begin()
	tx.Join("$D1")
	tx.Join("$D2")
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if len(dp.prepares) != 2 || len(dp.commits) != 2 {
		t.Errorf("prepares %v commits %v", dp.prepares, dp.commits)
	}
	// Commit record durable on the trail.
	if trail.FlushedLSN() == 0 {
		t.Error("commit record not durable")
	}
}

// TestPrepareNamesCoordinatorTrail: KPREPARE tells each participant which
// trail the commit record will be forced on (in the varint KCOMMIT uses
// for the commit LSN — one byte either way), which is what lets a
// participant on that same trail vote without a force of its own. The
// coordinator's side of the bargain is one flush per transaction.
func TestPrepareNamesCoordinatorTrail(t *testing.T) {
	trail, err := wal.NewTrail(wal.Config{Volume: disk.NewVolume("$AUDIT", true), ID: 7, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer trail.Close()
	dp := &fakeDP{}
	c := &Coordinator{Trail: trail, Send: dp.send}
	for i := 0; i < 3; i++ {
		tx := Begin()
		tx.Join("$D1")
		tx.Join("$D2")
		if err := c.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if len(dp.trailIDs) != 6 {
		t.Fatalf("%d prepares, want 6", len(dp.trailIDs))
	}
	for _, id := range dp.trailIDs {
		if id != 7 {
			t.Fatalf("KPREPARE named trail %d, want 7", id)
		}
	}
	if s := trail.Stats(); s.Flushes != 3 || s.CommitsFlushed != 3 {
		t.Errorf("%d flushes for %d commits, want one each", s.Flushes, s.CommitsFlushed)
	}
}

func TestPrepareFailureAborts(t *testing.T) {
	trail := newTrail(t)
	dp := &fakeDP{failPrep: true}
	c := &Coordinator{Trail: trail, Send: dp.send}
	tx := Begin()
	tx.Join("$D1")
	tx.Join("$D2")
	err := c.Commit(tx)
	if err == nil || !strings.Contains(err.Error(), "prepare") {
		t.Fatalf("got %v", err)
	}
	if len(dp.aborts) != 2 {
		t.Errorf("aborts %v", dp.aborts)
	}
	// No commit record was written.
	if trail.Stats().CommitRecords != 0 {
		t.Error("commit record written despite prepare failure")
	}
}

func TestAbort(t *testing.T) {
	dp := &fakeDP{}
	c := &Coordinator{Trail: newTrail(t), Send: dp.send}
	tx := Begin()
	tx.Join("$D1")
	if err := c.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if len(dp.aborts) != 1 {
		t.Errorf("aborts %v", dp.aborts)
	}
}

func TestDoubleFinishRejected(t *testing.T) {
	dp := &fakeDP{}
	c := &Coordinator{Trail: newTrail(t), Send: dp.send}
	tx := Begin()
	tx.Join("$D1")
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx); err == nil {
		t.Error("double commit accepted")
	}
	if err := c.Abort(tx); err == nil {
		t.Error("abort after commit accepted")
	}
}

// countedPort returns a port whose audit-sends go to a server on a
// network of their own, and a count of the sends that network carried.
func countedPort(t *testing.T, bufLimit int) (*AuditPort, func() uint64) {
	n := msg.NewNetwork()
	n.StartServer("$AUDIT", msg.ProcessorID{Node: 0, CPU: 3}, 1, func(req []byte) []byte { return nil })
	t.Cleanup(func() { n.StopServer("$AUDIT") })
	port := NewAuditPort(newTrail(t), n.NewClient(msg.ProcessorID{Node: 0, CPU: 0}), "$AUDIT", bufLimit)
	return port, func() uint64 { return n.Stats().Requests }
}

func TestAuditPortBuffersSends(t *testing.T) {
	port, sends := countedPort(t, 1024)
	rec := func() *wal.Record {
		return &wal.Record{Type: wal.RecUpdate, TxID: 1, Volume: "$D", File: "T",
			Key: []byte("key"), Before: make([]byte, 100), After: make([]byte, 100)}
	}
	var lastLSN wal.LSN
	for i := 0; i < 50; i++ {
		lsn := port.Append(rec())
		if lsn <= lastLSN {
			t.Fatal("LSNs not monotonic through port")
		}
		lastLSN = lsn
	}
	if sends() == 0 {
		t.Error("no buffer-full audit sends")
	}
	// Fewer sends than appends: the buffer batches.
	if sends() >= 50 {
		t.Errorf("audit port does not batch: %d sends", sends())
	}
}

func TestAuditPortCompressionReducesSends(t *testing.T) {
	// E4 downstream effect: field-compressed audit → fewer audit sends.
	run := func(imageSize int) uint64 {
		port, sends := countedPort(t, 2048)
		for i := 0; i < 200; i++ {
			port.Append(&wal.Record{Type: wal.RecUpdate, TxID: 1, Volume: "$D", File: "T",
				Key: []byte(fmt.Sprintf("key%04d", i)), Before: make([]byte, imageSize), After: make([]byte, imageSize)})
		}
		return sends()
	}
	full, compressed := run(200), run(10)
	if compressed*3 > full {
		t.Errorf("compressed sends %d not ≪ full sends %d", compressed, full)
	}
}

func TestAuditPortFlushSend(t *testing.T) {
	port, sends := countedPort(t, 1<<20)
	port.Append(&wal.Record{Type: wal.RecUpdate, TxID: 1, Volume: "$D", File: "T", Key: []byte("k")})
	if sends() != 0 {
		t.Fatal("premature send")
	}
	port.FlushSend()
	if sends() != 1 {
		t.Errorf("sends %d", sends())
	}
	port.FlushSend() // nothing buffered: no extra send
	if sends() != 1 {
		t.Errorf("empty flush sent: %d", sends())
	}
}

// TestJoinAfterFinishRejected: a participant that first touches a
// transaction after its commit/abort protocol ran can never be resolved
// — no coordinator will send it phase 2 — so the late Join must fail
// loudly instead of silently growing the participant list.
func TestJoinAfterFinishRejected(t *testing.T) {
	dp := &fakeDP{trail: newTrail(t)}
	c := &Coordinator{Trail: dp.trail, Send: dp.send}

	tx := Begin()
	if err := tx.Join("$D1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Join("$D2"); err == nil {
		t.Fatal("Join after commit accepted")
	}
	if got := tx.participants; len(got) != 1 {
		t.Fatalf("late join grew the participant list: %v", got)
	}

	tx2 := Begin()
	if err := tx2.Join("$D1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(tx2); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Join("$D1"); err == nil {
		t.Fatal("Join after abort accepted, even for an existing participant")
	}
}
