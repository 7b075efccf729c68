package dp

import (
	"testing"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fault"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// twoPhaseRig is one node in miniature: two Disk Processes auditing to
// one trail, and a coordinator on that same trail whose messages are
// plain calls. A test that wants another node adds a participant on a
// trail of its own.
type twoPhaseRig struct {
	trail    *wal.Trail
	auditVol *disk.Volume
	dps      map[string]*DP
	vols     map[string]*disk.Volume
	roots    map[string]disk.BlockNum
	schema   *record.Schema
	coord    *tmf.Coordinator
}

func newTwoPhaseRig(t *testing.T) *twoPhaseRig {
	t.Helper()
	r := &twoPhaseRig{
		auditVol: disk.NewVolume("$AUDIT", true),
		dps:      map[string]*DP{}, vols: map[string]*disk.Volume{}, roots: map[string]disk.BlockNum{},
		schema: empSchema(),
	}
	r.trail = r.newTrail(t, r.auditVol, 1)
	r.addDP(t, "$DATA1", r.trail)
	r.addDP(t, "$DATA2", r.trail)
	r.coord = &tmf.Coordinator{Trail: r.trail, Send: func(_ *fsdp.Arena, server string, req *fsdp.Request) (*fsdp.Reply, error) {
		return r.dps[server].Serve(req), nil
	}}
	return r
}

func (r *twoPhaseRig) newTrail(t *testing.T, v disk.BlockDev, id uint64) *wal.Trail {
	t.Helper()
	trail, err := wal.NewTrail(wal.Config{Volume: v, ID: id, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trail.Close)
	return trail
}

func (r *twoPhaseRig) addDP(t *testing.T, name string, trail *wal.Trail) {
	t.Helper()
	vol := disk.NewVolume(name, true)
	d, err := New(Config{Name: name, Volume: vol, Audit: tmf.NewAuditPort(trail, nil, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	reply := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "EMP", Schema: record.EncodeSchema(r.schema), Audit: true})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	r.dps[name], r.vols[name], r.roots[name] = d, vol, disk.BlockNum(reply.Root)
}

// transfer inserts one row at every named participant under one
// transaction and returns it, joined and ready to commit.
func (r *twoPhaseRig) transfer(t *testing.T, key int64, parts ...string) *tmf.Tx {
	t.Helper()
	tx := tmf.Begin()
	for _, p := range parts {
		insertEmp(t, r.dps[p], r.schema, tx.ID, empRow(key, p, 1))
		if err := tx.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

func (r *twoPhaseRig) has(t *testing.T, name string, key int64) bool {
	t.Helper()
	reply := r.dps[name].Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(key)})
	if reply.Code != fsdp.ErrNotFound && !reply.OK() {
		t.Fatal(reply.Err)
	}
	return reply.OK()
}

// TestPrepareOnSharedTrailDoesNotForce: participants on the coordinator's
// own trail vote without a flush, and the whole two-phase commit costs
// the one flush that makes the commit record durable.
func TestPrepareOnSharedTrailDoesNotForce(t *testing.T) {
	r := newTwoPhaseRig(t)
	for i := int64(1); i <= 3; i++ {
		tx := r.transfer(t, i, "$DATA1", "$DATA2")
		before := r.trail.Stats().Flushes
		if err := r.coord.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if got := r.trail.Stats().Flushes - before; got != 1 {
			t.Fatalf("transaction %d: %d trail flushes for one same-trail two-phase commit, want 1", i, got)
		}
		if !r.has(t, "$DATA1", i) || !r.has(t, "$DATA2", i) {
			t.Fatalf("transaction %d: row missing after commit", i)
		}
	}
	// The prepare records are in the log all the same, ahead of the commit.
	recs, err := wal.Scan(r.auditVol, r.trail.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	prepares, committed := 0, map[uint64]bool{}
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecPrepare:
			prepares++
			if committed[rec.TxID] {
				t.Fatalf("prepare record of tx %d at LSN %d follows its commit record", rec.TxID, rec.LSN)
			}
		case wal.RecCommit:
			committed[rec.TxID] = true
		}
	}
	if prepares != 6 || len(committed) != 3 {
		t.Fatalf("%d prepare and %d commit records in the log, want 6 and 3", prepares, len(committed))
	}
}

// TestPrepareOnAnotherTrailForces: nothing orders a participant's log
// against a coordinator's on another node, so its yes vote still rests on
// a force — and so does a vote asked for by an anonymous coordinator.
func TestPrepareOnAnotherTrailForces(t *testing.T) {
	r := newTwoPhaseRig(t)
	otherVol := disk.NewVolume("$AUDIT1", true)
	other := r.newTrail(t, otherVol, 2)
	r.addDP(t, "$REMOTE", other)

	tx := r.transfer(t, 1, "$DATA1", "$REMOTE")
	if other.FlushedLSN() != 0 {
		t.Fatal("the remote trail flushed before prepare")
	}
	if reply := r.dps["$REMOTE"].Serve(&fsdp.Request{Kind: fsdp.KPrepare, Tx: tx.ID, CommitLSN: r.trail.ID()}); !reply.OK() {
		t.Fatal(reply.Err)
	}
	recs, err := wal.Scan(otherVol, other.FirstBlock())
	if err != nil || len(recs) == 0 || recs[len(recs)-1].Type != wal.RecPrepare {
		t.Fatalf("the remote participant's prepare record is not durable after its yes vote (%d records, err %v)", len(recs), err)
	}
	if err := r.coord.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// ID 0 names no trail: a participant on the very same anonymous trail
	// forces, as every participant did before trails had names.
	anon := r.newTrail(t, disk.NewVolume("$AUDIT2", true), 0)
	r.addDP(t, "$ANON", anon)
	tx2 := tmf.NewTxID()
	insertEmp(t, r.dps["$ANON"], r.schema, tx2, empRow(2, "anon", 1))
	if reply := r.dps["$ANON"].Serve(&fsdp.Request{Kind: fsdp.KPrepare, Tx: tx2}); !reply.OK() {
		t.Fatal(reply.Err)
	}
	if anon.FlushedLSN() == 0 {
		t.Fatal("prepare on an anonymous trail did not force")
	}
}

// TestCrashAroundUnforcedPrepare sweeps the coordinator's three crash
// points with the prepare records unforced. Until the commit record is
// durable the transaction is undone on every volume, although its data
// audit — and even its data pages — had reached disk; once it is durable,
// the prepare records ahead of it in the log are too, and the transaction
// is redone on every volume.
func TestCrashAroundUnforcedPrepare(t *testing.T) {
	for _, tc := range []struct {
		point     string
		committed bool
	}{
		{fault.TMFAfterPrepare, false},
		{fault.TMFCommitAppended, false},
		{fault.TMFCommitDurable, true},
	} {
		t.Run(tc.point, func(t *testing.T) {
			r := newTwoPhaseRig(t)
			if err := r.coord.Commit(r.transfer(t, 1, "$DATA1", "$DATA2")); err != nil {
				t.Fatal(err)
			}
			tx := r.transfer(t, 2, "$DATA1", "$DATA2")
			// The WAL gate at work: the data audit is forced and the
			// uncommitted pages written, before anyone prepares.
			for _, d := range r.dps {
				if err := d.Pool().FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			durableAtCrash := wal.LSN(0)
			fault.Reset()
			defer fault.Reset()
			fault.Arm(tc.point, 0, func() {
				durableAtCrash = r.trail.FlushedLSN()
				r.auditVol.Freeze()
				for _, v := range r.vols {
					v.Freeze()
				}
			})
			fault.Enable()
			_ = r.coord.Commit(tx) // runs on against frozen volumes, like a process that has not noticed yet
			fault.Disable()
			if !fault.Fired(tc.point) {
				t.Fatalf("%s never fired", tc.point)
			}

			recs, err := wal.Scan(r.auditVol, r.trail.FirstBlock())
			if err != nil {
				t.Fatal(err)
			}
			var prepares int
			var commit bool
			for _, rec := range recs {
				if rec.TxID == tx.ID {
					if rec.Type == wal.RecPrepare {
						prepares++
					}
					commit = commit || rec.Type == wal.RecCommit
					if rec.LSN > durableAtCrash {
						t.Fatalf("LSN %d on the frozen volume, durable LSN at the crash was %d", rec.LSN, durableAtCrash)
					}
				}
			}
			if commit != tc.committed || (commit && prepares != 2) || (!commit && prepares != 0) {
				t.Fatalf("frozen log holds %d prepare records and commit=%v for the transaction", prepares, commit)
			}
			for name, d := range r.dps {
				d.Crash()
				clone := r.vols[name].Clone(name)
				rd, err := New(Config{Name: name, Volume: clone, Audit: tmf.NewAuditPort(r.newTrail(t, disk.NewVolume(name+".R", true), 0), nil, "", 0)})
				if err != nil {
					t.Fatal(err)
				}
				rd.AttachFile("EMP", r.schema, nil, r.roots[name], true)
				if err := rd.Recover(recs); err != nil {
					t.Fatal(err)
				}
				r.dps[name] = rd
			}
			for name := range r.dps {
				if !r.has(t, name, 1) {
					t.Errorf("%s: the earlier committed row is gone", name)
				}
				if got := r.has(t, name, 2); got != tc.committed {
					t.Errorf("%s: row of the crashed transaction present=%v, want %v", name, got, tc.committed)
				}
			}
		})
	}
}
