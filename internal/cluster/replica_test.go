package cluster_test

import (
	"fmt"
	"testing"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/msg"
	"nonstopsql/internal/nsqlclient"
	"nonstopsql/internal/record"
)

func TestReplicationOptionsExclusive(t *testing.T) {
	// In-process replication on a single node would put the backup on
	// the primary's own node and audit trail — the group would not
	// survive the loss of that trail, so it is refused outright.
	if _, err := cluster.New(cluster.Options{Replication: true}); err == nil {
		t.Error("single-node in-process Replication accepted")
	}
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 0, "$NR"); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$NR"); err == nil {
		t.Error("takeover of non-replicated partition accepted")
	}
	if err := c.TakeoverReplica("$NOPE"); err == nil {
		t.Error("takeover of unknown DP accepted")
	}
	if _, err := c.ReplicationStats("$NR"); err == nil {
		t.Error("stats of non-replicated partition accepted")
	}
}

func TestReplicatedGroupCommitAndTakeover(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 1, "$R1"); err != nil {
		t.Fatal(err)
	}
	// The backup DP lives on the other node under the #B name.
	if c.DP("$R1#B") == nil {
		t.Fatal("backup DP missing")
	}
	f := c.NewFS(0, 2)
	def := kvDef("$R1")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	tx := f.Begin()
	for i := 0; i < 20; i++ {
		if err := f.Insert(nil, tx, def, record.Row{record.Int(int64(i)), record.String(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// The commit only acked after the backup applied the stream and
	// made the commit durable on its own trail.
	st, err := c.ReplicationStats("$R1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ShippedRecords == 0 || st.AppliedRecords != st.ShippedRecords || st.RetainedRecords != 0 {
		t.Fatalf("stream not caught up at commit ack: %+v", st)
	}
	if c.Nodes[1].Trail.Stats().CommitRecords == 0 {
		t.Error("backup commit not durable on its own node's trail")
	}

	// An in-flight transaction across the takeover: its records reach
	// the backup in the catch-up flush, but with no commit among them
	// the promotion undoes and fences it.
	tx2 := f.Begin()
	if err := f.Insert(nil, tx2, def, record.Row{record.Int(100), record.String("inflight")}); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashDP("$R1"); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$R1"); err != nil {
		t.Fatal(err)
	}
	// First-contact fence: a re-driven record operation or prepare for
	// the fenced transaction must be refused outright. Accepting either
	// would attach new effects (and locks) to a transaction nobody can
	// ever resolve, or hand the coordinator a yes vote it would commit
	// on — so the refusal has to land before the commit point, not in
	// phase 2.
	if err := f.Insert(nil, tx2, def, record.Row{record.Int(101), record.String("late")}); err == nil {
		t.Error("fenced transaction's record op accepted after takeover")
	}
	if reply := c.DP("$R1").Serve(&fsdp.Request{Kind: fsdp.KPrepare, Tx: tx2.ID}); reply.OK() {
		t.Error("fenced transaction's prepare voted yes after takeover")
	}
	if err := f.Commit(tx2); err == nil {
		t.Error("fenced transaction's commit acked after takeover")
	}
	if _, err := f.Read(nil, def, record.Int(100).AppendKey(nil), false); err == nil {
		t.Error("fenced transaction's row served after takeover")
	}
	if n := c.DP("$R1").Locks().Held(); n != 0 {
		t.Errorf("fenced transaction leaks %d locks", n)
	}

	// Every committed row survived; the fenced key is reusable.
	for i := 0; i < 20; i++ {
		row, err := f.Read(nil, def, record.Int(int64(i)).AppendKey(nil), false)
		if err != nil || row[1].S != fmt.Sprintf("v%d", i) {
			t.Fatalf("committed row %d lost across takeover: %v %v", i, row, err)
		}
	}
	tx3 := f.Begin()
	if err := f.Insert(nil, tx3, def, record.Row{record.Int(100), record.String("fresh")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tx3); err != nil {
		t.Fatal(err)
	}
	st, _ = c.ReplicationStats("$R1")
	if !st.Promoted || st.InDoubt != 0 {
		t.Errorf("post-takeover stats: %+v", st)
	}
}

// TestReplicaTakeoverAfterAbort is the regression test for abort-path
// undo bypassing the checkpoint stream. The backup only knows what the
// primary ships it; if the compensating actions of an abort never go
// through the stream, a takeover right after the abort serves the
// aborted rows as if they committed. The abort's compensations and its
// abort record are shipped like forward audit, so the promoted backup
// sees the rows gone and the keys stay reusable.
func TestReplicaTakeoverAfterAbort(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 0, "$P2"); err != nil {
		t.Fatal(err)
	}
	f := c.NewFS(0, 2)
	def := kvDef("$P2")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}

	tx := f.Begin()
	if err := f.Insert(nil, tx, def, record.Row{record.Int(1), record.String("keep")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}

	// Aborted transaction; count the records its life ships.
	before, err := c.ReplicationStats("$P2")
	if err != nil {
		t.Fatal(err)
	}
	tx2 := f.Begin()
	for i := int64(2); i <= 3; i++ {
		if err := f.Insert(nil, tx2, def, record.Row{record.Int(i), record.String("doomed")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Abort(tx2); err != nil {
		t.Fatal(err)
	}
	// 2 forward inserts, 2 compensations, 1 abort record, all flushed
	// to the backup before the abort answered. Fewer means the undo
	// skipped the checkpoint stream.
	after, err := c.ReplicationStats("$P2")
	if err != nil {
		t.Fatal(err)
	}
	if got := after.ShippedRecords - before.ShippedRecords; got != 5 || after.RetainedRecords != 0 {
		t.Errorf("abort shipped %d records (%d retained), want 5: compensations missing from the checkpoint stream", got, after.RetainedRecords)
	}

	if err := c.CrashDP("$P2"); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$P2"); err != nil {
		t.Fatal(err)
	}

	if row, err := f.Read(nil, def, record.Int(1).AppendKey(nil), false); err != nil || row[1].S != "keep" {
		t.Fatalf("committed row lost across takeover: %v %v", row, err)
	}
	for i := int64(2); i <= 3; i++ {
		if row, err := f.Read(nil, def, record.Int(i).AppendKey(nil), false); err == nil {
			t.Errorf("aborted row %d served after takeover: %v", i, row)
		}
	}
	// The aborted keys are immediately reusable on the new primary.
	tx3 := f.Begin()
	if err := f.Insert(nil, tx3, def, record.Row{record.Int(2), record.String("fresh")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tx3); err != nil {
		t.Fatal(err)
	}
	row, err := f.Read(nil, def, record.Int(2).AppendKey(nil), false)
	if err != nil || row[1].S != "fresh" {
		t.Fatalf("aborted key not reusable after takeover: %v %v", row, err)
	}
}

func TestReplicaCatchUpAfterBackupOutage(t *testing.T) {
	// The backup drops off the network; the primary keeps committing
	// (a dead backup must not take the partition down) and retains the
	// unshipped stream. When the backup returns, the next flush
	// resends everything and the per-record sequence check makes the
	// overlap idempotent.
	c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 1, "$R2"); err != nil {
		t.Fatal(err)
	}
	f := c.NewFS(0, 2)
	def := kvDef("$R2")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	commit := func(k int64, v string) {
		t.Helper()
		tx := f.Begin()
		if err := f.Insert(nil, tx, def, record.Row{record.Int(k), record.String(v)}); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	commit(1, "before")

	c.Net.StopServer("$R2#B")
	for k := int64(2); k <= 5; k++ {
		commit(k, "during")
	}
	st, _ := c.ReplicationStats("$R2")
	if st.ShipRetries == 0 || st.RetainedRecords == 0 {
		t.Fatalf("outage not visible in stream stats: %+v", st)
	}

	// Backup returns (same DP, same volume — only the server name had
	// vanished); the next transaction's flush carries the backlog.
	bdp := c.DP("$R2#B")
	if _, err := c.Net.Register("$R2#B", msg.ProcessorID{Node: 1, CPU: 1}, 4, bdp.Handler); err != nil {
		t.Fatal(err)
	}
	commit(6, "after")
	st, _ = c.ReplicationStats("$R2")
	if st.RetainedRecords != 0 || st.AppliedRecords != st.ShippedRecords {
		t.Fatalf("catch-up incomplete: %+v", st)
	}

	if err := c.CrashDP("$R2"); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$R2"); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 6; k++ {
		if _, err := f.Read(nil, def, record.Int(k).AppendKey(nil), false); err != nil {
			t.Fatalf("row %d lost across outage+takeover: %v", k, err)
		}
	}
}

// TestTakeoverRefusedWhenCatchUpFails pins the degraded window: with
// the backup unreachable the primary keeps acknowledging commits (and
// counts each degraded ack), but a takeover whose catch-up flush fails
// must be refused — promoting then would silently drop commits clients
// were told succeeded. Once the backup returns, the retried takeover
// delivers the backlog and loses nothing.
func TestTakeoverRefusedWhenCatchUpFails(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 1, "$R4"); err != nil {
		t.Fatal(err)
	}
	f := c.NewFS(0, 2)
	def := kvDef("$R4")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	commit := func(k int64, v string) {
		t.Helper()
		tx := f.Begin()
		if err := f.Insert(nil, tx, def, record.Row{record.Int(k), record.String(v)}); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	commit(1, "replicated")

	c.Net.StopServer("$R4#B")
	commit(2, "degraded") // acknowledged with the backup unreachable
	st, err := c.ReplicationStats("$R4")
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedAcks == 0 {
		t.Fatalf("degraded acknowledgement not counted: %+v", st)
	}
	if st.RetainedRecords == 0 {
		t.Fatalf("outage retained nothing: %+v", st)
	}

	if err := c.CrashDP("$R4"); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$R4"); err == nil {
		t.Fatal("takeover promoted a backup missing acknowledged commits")
	}

	// The backup returns; the retried takeover catches up and promotes.
	bdp := c.DP("$R4#B")
	if _, err := c.Net.Register("$R4#B", msg.ProcessorID{Node: 1, CPU: 1}, 4, bdp.Handler); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$R4"); err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 2; k++ {
		if _, err := f.Read(nil, def, record.Int(k).AppendKey(nil), false); err != nil {
			t.Fatalf("committed row %d lost across refused-then-retried takeover: %v", k, err)
		}
	}
}

func TestFollowerBrowseReads(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 1, "$R3"); err != nil {
		t.Fatal(err)
	}
	f := c.NewFS(0, 2)
	def := kvDef("$R3")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	tx := f.Begin()
	if err := f.Insert(nil, tx, def, record.Row{record.Int(1), record.String("x")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}

	follower := c.NewFS(1, 2)
	follower.SetFollowerReads(true)
	row, err := follower.Read(nil, def, record.Int(1).AppendKey(nil), false)
	if err != nil || row[1].S != "x" {
		t.Fatalf("follower read: %v %v", row, err)
	}
	// The backup keeps answering browse reads with the primary dead —
	// before any takeover runs.
	if err := c.CrashDP("$R3"); err != nil {
		t.Fatal(err)
	}
	row, err = follower.Read(nil, def, record.Int(1).AppendKey(nil), false)
	if err != nil || row[1].S != "x" {
		t.Fatalf("follower read with primary down: %v %v", row, err)
	}
}

// replicaDifferentialRun drives one replicated partition group through
// a fixed script — commits, an abort, an update pass, a crash with an
// in-flight transaction, takeover, post-takeover commits — and returns
// the observable end state: every probed key's value ("" = absent).
func replicaDifferentialRun(t *testing.T, c *cluster.Cluster) map[int64]string {
	t.Helper()
	f := c.NewFS(0, 2)
	def := kvDef("$W1")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	tx := f.Begin()
	for i := int64(0); i < 20; i++ {
		if err := f.Insert(nil, tx, def, record.Row{record.Int(i), record.String(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tx = f.Begin()
	for i := int64(0); i < 20; i += 2 {
		if err := f.Update(tx, def, record.Int(i).AppendKey(nil), record.Row{record.Int(i), record.String(fmt.Sprintf("u%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tx = f.Begin()
	for i := int64(100); i <= 102; i++ {
		if err := f.Insert(nil, tx, def, record.Row{record.Int(i), record.String("doomed")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Abort(tx); err != nil {
		t.Fatal(err)
	}

	inflight := f.Begin()
	if err := f.Insert(nil, inflight, def, record.Row{record.Int(200), record.String("inflight")}); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashDP("$W1"); err != nil {
		t.Fatal(err)
	}
	if err := c.TakeoverReplica("$W1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(inflight); err == nil {
		t.Error("fenced commit acked")
	}
	tx = f.Begin()
	for i := int64(300); i <= 304; i++ {
		if err := f.Insert(nil, tx, def, record.Row{record.Int(i), record.String(fmt.Sprintf("p%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}

	state := map[int64]string{}
	probe := func(k int64) {
		row, err := f.Read(nil, def, record.Int(k).AppendKey(nil), false)
		if err != nil {
			state[k] = ""
			return
		}
		state[k] = row[1].S
	}
	for i := int64(0); i < 20; i++ {
		probe(i)
	}
	for i := int64(100); i <= 102; i++ {
		probe(i)
	}
	probe(200)
	for i := int64(300); i <= 304; i++ {
		probe(i)
	}
	return state
}

// TestWireReplicationDifferential runs the same partition-group script
// against two topologies: the backup in-process on a second simulated
// node, and the backup hosted by a second wire-served cluster (standing
// in for a second nsqld process) with the checkpoint stream and the
// takeover promotion crossing TCP. The observable end states must be
// identical.
func TestWireReplicationDifferential(t *testing.T) {
	ref, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.AddVolume(0, 1, "$W1"); err != nil {
		t.Fatal(err)
	}
	want := replicaDifferentialRun(t, ref)

	// Second process: a wire-served cluster hosting only the backup.
	host, err := cluster.New(cluster.Options{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	if _, err := host.AddReplica(0, 1, "$W1"); err != nil {
		t.Fatal(err)
	}
	pool, err := nsqlclient.Dial(host.Addr(), nsqlclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	wired, err := cluster.New(cluster.Options{Replication: true, ReplicaTransport: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer wired.Close()
	if _, err := wired.AddVolume(0, 1, "$W1"); err != nil {
		t.Fatal(err)
	}
	got := replicaDifferentialRun(t, wired)

	if len(got) != len(want) {
		t.Fatalf("probe sets differ: %d vs %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %d: wire group %q, in-process group %q", k, got[k], v)
		}
	}
	// The wire group's stream really crossed TCP.
	st, err := wired.ReplicationStats("$W1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ShippedBatches == 0 || st.ShippedBytes == 0 {
		t.Errorf("no shipped traffic recorded: %+v", st)
	}
	if host.WireServer().Stats().FramesIn == 0 {
		t.Error("no frames reached the backup host's wire server")
	}
}

// TestRejectedDuplicateInsertOnTheBackup is the replicated group's side of
// dp's TestRejectedDuplicateInsertLeavesNoTrace: the backup applies what
// the primary ships through the same redo as recovery, so a refused
// duplicate INSERT that still reached the stream overwrote the committed
// row on the backup, and a takeover served the rejected one — whether
// the rejecting transaction committed or aborted.
func TestRejectedDuplicateInsertOnTheBackup(t *testing.T) {
	for _, commit := range []bool{true, false} {
		t.Run(fmt.Sprintf("commit=%v", commit), func(t *testing.T) {
			c, err := cluster.New(cluster.Options{Nodes: 2, Replication: true})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.AddVolume(0, 1, "$R1"); err != nil {
				t.Fatal(err)
			}
			f := c.NewFS(0, 2)
			def := kvDef("$R1")
			if err := f.Create(def); err != nil {
				t.Fatal(err)
			}
			tx := f.Begin()
			if err := f.Insert(nil, tx, def, record.Row{record.Int(1), record.String("original")}); err != nil {
				t.Fatal(err)
			}
			if err := f.Commit(tx); err != nil {
				t.Fatal(err)
			}

			tx2 := f.Begin()
			if err := f.Insert(nil, tx2, def, record.Row{record.Int(1), record.String("rejected")}); err == nil {
				t.Fatal("duplicate insert accepted")
			}
			if commit {
				err = f.Commit(tx2)
			} else {
				err = f.Abort(tx2)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CrashDP("$R1"); err != nil {
				t.Fatal(err)
			}
			if err := c.TakeoverReplica("$R1"); err != nil {
				t.Fatal(err)
			}
			row, err := f.Read(nil, def, record.Int(1).AppendKey(nil), false)
			if err != nil || row[1].S != "original" {
				t.Fatalf("after takeover row 1 reads %v, %v; want original", row, err)
			}
		})
	}
}
