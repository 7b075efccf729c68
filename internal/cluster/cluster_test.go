package cluster_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/dp"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/record"
)

// atRest checks, when the test ends, that the named Disk Processes of c
// hold nothing (dp.Open): no transaction, conversation, slot, lock or latch.
func atRest(t *testing.T, c *cluster.Cluster, names ...string) {
	t.Cleanup(func() {
		for _, name := range names {
			if open := c.DP(name).OpenState(); open != (dp.Open{}) {
				t.Errorf("%s holds %+v at the end of the test", name, open)
			}
		}
	})
}

func kvDef(vol string) *fs.FileDef {
	return &fs.FileDef{
		Name: "KV",
		Schema: record.MustSchema("KV", []record.Field{
			{Name: "K", Type: record.TypeInt, NotNull: true},
			{Name: "V", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: vol}},
		FieldAudit: true,
	}
}

func TestNewDefaults(t *testing.T) {
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Nodes) != 1 {
		t.Errorf("nodes %d", len(c.Nodes))
	}
	if c.Nodes[0].Trail == nil || c.Nodes[0].AuditVol == nil {
		t.Error("audit trail missing")
	}
}

func TestAddVolumeAndDP(t *testing.T) {
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := c.AddVolume(0, 1, "$V1")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || c.DP("$V1") != d {
		t.Error("DP lookup broken")
	}
	if c.DP("$NOPE") != nil {
		t.Error("phantom DP")
	}
	if _, err := c.AddVolume(9, 0, "$V2"); err == nil {
		t.Error("bad node accepted")
	}
	if _, err := c.AddVolume(0, 0, "$V1"); err == nil {
		t.Error("duplicate volume accepted")
	}
}

// TestRefusedAddVolumeLeavesNothingOpen is the regression test for a
// duplicate AddVolume opening the volume before it learned that the
// name was taken: on a file-backed cluster the refused call left a
// second handle on the live volume file, and its I/O scheduler's
// goroutines outlived Close.
func TestRefusedAddVolumeLeavesNothingOpen(t *testing.T) {
	schedulers := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "filevol.newSched")
	}
	c, err := cluster.New(cluster.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVolume(0, 0, "$V1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVolume(0, 1, "$V1"); err == nil {
		t.Error("duplicate volume accepted")
	}
	c.Close()
	// Close waits for the workers; give them a moment to leave the
	// goroutine list after their last deferred call.
	deadline := time.Now().Add(time.Second)
	for schedulers() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := schedulers(); n != 0 {
		t.Errorf("%d filevol scheduler goroutines left after Close", n)
	}
}

func TestCrashRestartOnAnotherCPU(t *testing.T) {
	// Crash on CPU 0, restart on CPU 1: the DP resumes service there
	// after recovery from its node's audit trail.
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 0, "$V1"); err != nil {
		t.Fatal(err)
	}
	atRest(t, c, "$V1")
	f := c.NewFS(0, 2)
	def := kvDef("$V1")
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

	if err := c.CrashDP("$V1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CrashDP("$NOPE"); err == nil {
		t.Error("crash of unknown DP accepted")
	}
	if err := c.RestartDP("$V1", 1); err != nil {
		t.Fatal(err)
	}
	// Server answers from its new processor; committed data intact.
	proc, ok := c.Net.Lookup("$V1")
	if !ok || proc.CPU != 1 {
		t.Errorf("restart processor %v %v", proc, ok)
	}
	row, err := f.Read(nil, def, record.Int(7).AppendKey(nil), false)
	if err != nil || row[1].S != "v7" {
		t.Fatalf("post-restart read: %v %v", row, err)
	}
	if err := c.RestartDP("$NOPE", 0); err == nil {
		t.Error("restart of unknown DP accepted")
	}
}

func TestTwoNodesSeparateTrails(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Nodes) != 2 || c.Nodes[0].Trail == c.Nodes[1].Trail {
		t.Fatal("nodes must have their own audit trails")
	}
	if _, err := c.AddVolume(1, 0, "$R1"); err != nil {
		t.Fatal(err)
	}
	atRest(t, c, "$R1")
	f := c.NewFS(1, 1)
	def := kvDef("$R1")
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
	// The commit record landed on node 1's trail only.
	if c.Nodes[1].Trail.Stats().CommitRecords != 1 {
		t.Error("commit missing from node 1 trail")
	}
	if c.Nodes[0].Trail.Stats().CommitRecords != 0 {
		t.Error("commit leaked to node 0 trail")
	}
}

func TestAuditServerReceivesBufferFullSends(t *testing.T) {
	c, err := cluster.New(cluster.Options{AuditBufBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 0, "$V1"); err != nil {
		t.Fatal(err)
	}
	atRest(t, c, "$V1")
	f := c.NewFS(0, 1)
	def := kvDef("$V1")
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	tx := f.Begin()
	for i := 0; i < 100; i++ {
		if err := f.Insert(nil, tx, def, record.Row{record.Int(int64(i)), record.String("vvvvvvvvvvvvvvvvvvvv")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit(tx); err != nil {
		t.Fatal(err)
	}
	// The audit DP received buffer-full sends over the message system.
	if got := c.Net.Stats().Requests; got <= 101 {
		t.Errorf("no audit sends visible: %d requests", got)
	}
}

func TestCrashUnderConcurrentLoadLosesNoCommittedData(t *testing.T) {
	// Writers hammer one volume; mid-load the Disk Process's CPU dies.
	// After recovery, every transaction that COMMITTED successfully must
	// be visible, and none that failed may have left partial effects.
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddVolume(0, 0, "$CR"); err != nil {
		t.Fatal(err)
	}
	atRest(t, c, "$CR")
	f0 := c.NewFS(0, 1)
	def := kvDef("$CR")
	if err := f0.Create(def); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	committed := map[int64]bool{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f := c.NewFS(0, (id+1)%4)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(id*100000 + i)
				tx := f.Begin()
				if err := f.Insert(nil, tx, def, record.Row{record.Int(k), record.String("v")}); err != nil {
					_ = f.Abort(tx) // server down or conflict: give up on this key
					continue
				}
				if err := f.Commit(tx); err != nil {
					continue
				}
				mu.Lock()
				committed[k] = true
				mu.Unlock()
			}
		}(g)
	}

	time.Sleep(50 * time.Millisecond)
	if err := c.CrashDP("$CR"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // writers keep failing against the dead DP
	if err := c.RestartDP("$CR", 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // writers resume against the recovered DP
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(committed) < 10 {
		t.Fatalf("too few committed txns to be meaningful: %d", len(committed))
	}
	for k := range committed {
		row, err := f0.Read(nil, def, record.Int(k).AppendKey(nil), false)
		if err != nil || row[0].I != k {
			t.Fatalf("committed key %d lost after crash+recovery: %v %v", k, row, err)
		}
	}
}
