package dp

import (
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// gatedVolume holds the next bulk write, once armed, until the test lets
// it go.
type gatedVolume struct {
	*disk.Volume
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedVolume) WriteBulk(start disk.BlockNum, blocks [][]byte) error {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Volume.WriteBulk(start, blocks)
}

// TestBufferFullFlushRunsOffTheLatch: an UPDATE^KEY whose audit record
// fills the trail's buffer flushes it once its leaf's latch is released,
// so a point read of the same leaf is served while that flush waits on
// the audit volume. The flush used to run inside the edit, under the
// latch, and every reader and writer of the leaf waited for the disk.
func TestBufferFullFlushRunsOffTheLatch(t *testing.T) {
	gate := &gatedVolume{
		Volume:  disk.NewVolume("$AUDIT", true),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	trail, err := wal.NewTrail(wal.Config{Volume: gate, BufferFullBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trail.Close)
	open := func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	}
	t.Cleanup(open) // before the trail closes: Close waits out the held flush
	d, _, _ := testDP(t, func(c *Config) { c.Audit = tmf.NewAuditPort(trail, nil, "", 0) })
	loadEmp(t, d, 20) // one leaf

	gate.armed.Store(true)
	tx := tmf.NewTxID()
	wrote := make(chan *fsdp.Reply, 1)
	go func() {
		wrote <- d.Serve(&fsdp.Request{Kind: fsdp.KUpdateKey, Tx: tx, File: "EMP", Key: key1(3), Assign: lessSalary(1)})
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the update's buffer-full flush never reached the audit volume")
	}
	read := make(chan *fsdp.Reply, 1)
	go func() { read <- d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(4)}) }()
	select {
	case reply := <-read:
		if !reply.OK() || len(reply.Rows) != 1 {
			t.Errorf("read of emp 4: %+v", reply)
		}
	case <-time.After(5 * time.Second):
		t.Error("a point read of the updated record's leaf waited on the audit flush")
	}
	open()
	if reply := <-wrote; !reply.OK() || reply.Count != 1 {
		t.Fatalf("UPDATE^KEY: %+v", reply)
	}
	commitTx(t, d, tx)
	if got, _ := salaryOf(t, d, 3); got != 2999 {
		t.Errorf("emp 3 reads %v after the update, want 2999", got)
	}
}
