package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nonstopsql/internal/disk"
)

// slowDev is an audit volume whose Sync takes time: a fixed delay, or —
// with gate set — until the test hands it a token (close the gate to let
// every later Sync through). Batching that emerges from the device needs
// a device that is slower than an append.
type slowDev struct {
	disk.BlockDev
	delay   time.Duration
	gate    chan struct{}
	entered chan struct{} // one token per Sync that reached the device
	syncs   atomic.Int64
}

func (d *slowDev) Sync() error {
	d.syncs.Add(1)
	if d.gate != nil {
		d.entered <- struct{}{}
		<-d.gate
	}
	time.Sleep(d.delay)
	return d.BlockDev.Sync()
}

func gatedDev() *slowDev {
	return &slowDev{
		BlockDev: disk.NewVolume("$AUDIT", true),
		gate:     make(chan struct{}), entered: make(chan struct{}, 64),
	}
}

func newTrailOn(t *testing.T, dev disk.BlockDev, cfg Config) *Trail {
	t.Helper()
	cfg.Volume = dev
	tr, err := NewTrail(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// within fails the test if f has not returned after a generous bound: the
// failure mode of every test here is a force that never comes back.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFollowersShareOneFlush is the mechanism in one picture: N
// committers that arrive while a flush is at the device are all made
// durable by exactly one more.
func TestFollowersShareOneFlush(t *testing.T) {
	const n = 16
	dev := gatedDev()
	tr := newTrailOn(t, dev, Config{GroupCommit: true})
	var wg sync.WaitGroup
	commit := func(tx uint64) {
		defer wg.Done()
		tr.WaitDurable(tr.AppendCommit(tx))
	}
	wg.Add(1)
	go commit(1)
	<-dev.entered // the leader is at the device with its own commit record
	wg.Add(n)
	for i := 0; i < n; i++ {
		go commit(uint64(i + 2))
	}
	waitFor(t, "every committer to join the flush in flight", func() bool { return tr.Stats().Joined == n })
	if s := tr.Stats(); s.Flushes != 0 || tr.FlushedLSN() != 0 {
		t.Fatalf("durable LSN %d, %d flushes counted with the first Sync still blocked", tr.FlushedLSN(), s.Flushes)
	}
	dev.gate <- struct{}{} // first flush lands: one commit
	<-dev.entered          // a follower leads the second
	if got := tr.FlushedLSN(); got != 1 {
		t.Fatalf("durable LSN %d after the first flush, want 1", got)
	}
	dev.gate <- struct{}{}
	within(t, "the committers", wg.Wait)
	s := tr.Stats()
	if s.Flushes != 2 || s.CommitsFlushed != n+1 || dev.syncs.Load() != 2 {
		t.Fatalf("%d flushes, %d syncs, %d commits flushed; want 2, 2, %d", s.Flushes, dev.syncs.Load(), s.CommitsFlushed, n+1)
	}
	if got := tr.FlushedLSN(); got != n+1 {
		t.Fatalf("durable LSN %d, want %d", got, n+1)
	}
	close(dev.gate)
	tr.Close()
}

// TestAppendDuringBlockedFlush: the device is busy, the buffer is not.
// Appends — including the one that fills the buffer — return while a
// flush is stuck at the device, and what they appended rides the next.
func TestAppendDuringBlockedFlush(t *testing.T) {
	dev := gatedDev()
	tr := newTrailOn(t, dev, Config{GroupCommit: true, BufferFullBytes: 1024})
	first := tr.Append(dataRec(1, "first"))
	go tr.FlushTo(first)
	<-dev.entered
	var last LSN
	within(t, "Append during a blocked flush", func() {
		for i := 0; i < 100; i++ {
			last = tr.Append(dataRec(2, fmt.Sprintf("key-%04d", i)))
		}
	})
	s := tr.Stats()
	if s.BufferFullFlushes == 0 {
		t.Error("buffer-full condition not counted")
	}
	if s.Flushes != 0 || dev.syncs.Load() != 1 {
		t.Errorf("%d flushes finished, %d syncs started while the first was blocked", s.Flushes, dev.syncs.Load())
	}
	close(dev.gate)
	within(t, "the force of the later records", func() { tr.WaitDurable(last) })
	if s := tr.Stats(); s.Flushes != 2 {
		t.Errorf("%d flushes, want 2: the blocked one and one for everything appended meanwhile", s.Flushes)
	}
	recs, err := Scan(dev, tr.FirstBlock())
	if err != nil || len(recs) != 101 {
		t.Fatalf("scan: %d records, err %v; want 101", len(recs), err)
	}
	tr.Close()
}

// TestCloseDuringFlush: Close waits for the flush in flight, flushes what
// was appended behind it, and leaves a trail on which a force is a no-op.
func TestCloseDuringFlush(t *testing.T) {
	dev := gatedDev()
	tr := newTrailOn(t, dev, Config{GroupCommit: true})
	go tr.FlushTo(tr.Append(dataRec(1, "in-flight")))
	<-dev.entered
	tr.Append(dataRec(2, "behind"))
	closed := make(chan struct{})
	go func() { tr.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a flush still at the device")
	case <-time.After(20 * time.Millisecond):
	}
	close(dev.gate)
	within(t, "Close", func() { <-closed })
	if got := tr.FlushedLSN(); got != 2 {
		t.Fatalf("durable LSN %d after Close, want 2", got)
	}
	syncs := dev.syncs.Load()
	lsn := tr.Append(dataRec(3, "late"))
	within(t, "a force on a closed trail", func() {
		tr.WaitDurable(lsn)
		tr.FlushTo(lsn)
		tr.Flush()
		tr.AppendCommit(4)
		tr.Close()
	})
	if dev.syncs.Load() != syncs {
		t.Fatal("a force after Close reached the device")
	}
}

// TestForceOfUnassignedLSN: a page can carry an LSN from a trail that has
// since been restarted. Forcing it means "everything so far": one flush,
// or none when nothing is pending — never a loop waiting for an LSN this
// trail may not reach for hours.
func TestForceOfUnassignedLSN(t *testing.T) {
	for _, group := range []bool{false, true} {
		tr, _ := newTestTrail(t, Config{GroupCommit: group})
		within(t, "a force on an empty trail", func() { tr.FlushTo(1 << 40) })
		if s := tr.Stats(); s.Flushes != 0 {
			t.Fatalf("group=%v: %d flushes with nothing to flush", group, s.Flushes)
		}
		lsn := tr.Append(dataRec(1, "k"))
		within(t, "a force beyond the last LSN", func() { tr.FlushTo(1 << 40) })
		if s := tr.Stats(); s.Flushes != 1 || tr.FlushedLSN() != lsn {
			t.Fatalf("group=%v: %d flushes, durable %d; want 1, %d", group, s.Flushes, tr.FlushedLSN(), lsn)
		}
	}
}

// TestSyncPerCommitNeverSharesAFlush: without group commit a commit
// record goes to the device alone, however many committers collide. With
// nothing but commit records appended, a shared flush would show as fewer
// flushes than commits.
func TestSyncPerCommitNeverSharesAFlush(t *testing.T) {
	const clients, each = 8, 25
	dev := &slowDev{BlockDev: disk.NewVolume("$AUDIT", true), delay: 100 * time.Microsecond}
	tr := newTrailOn(t, dev, Config{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn := tr.AppendCommit(uint64(c*each + i + 1))
				if tr.FlushedLSN() < lsn {
					t.Errorf("commit %d not durable when AppendCommit returned", lsn)
				}
				tr.WaitDurable(lsn)
			}
		}(c)
	}
	within(t, "the committers", wg.Wait)
	s := tr.Stats()
	if s.CommitsFlushed != clients*each || s.Flushes != clients*each {
		t.Fatalf("%d commits in %d flushes (%.2f commits/flush), want %d in %d", s.CommitsFlushed, s.Flushes, s.CommitsPerFlush(), clients*each, clients*each)
	}
	tr.Close()
}

func TestGroupCommitGroupsConcurrentCommits(t *testing.T) {
	dev := &slowDev{BlockDev: disk.NewVolume("$AUDIT", true), delay: time.Millisecond}
	tr := newTrailOn(t, dev, Config{GroupCommit: true})
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			tr.Append(dataRec(tx, "k"))
			lsn := tr.AppendCommit(tx)
			tr.WaitDurable(lsn)
			if tr.FlushedLSN() < lsn {
				t.Errorf("WaitDurable(%d) returned with durable LSN %d", lsn, tr.FlushedLSN())
			}
		}(uint64(i + 1))
	}
	within(t, "the committers", wg.Wait)
	s := tr.Stats()
	if s.CommitsFlushed != n {
		t.Fatalf("flushed %d commits, want %d", s.CommitsFlushed, n)
	}
	if s.Flushes >= n || s.CommitsPerFlush() <= 1 {
		t.Errorf("group commit did no grouping: %d flushes for %d commits", s.Flushes, n)
	}
	// Whatever the interleaving, the log holds every record once, in LSN
	// order: no buffer was lost between a swap and a wake.
	recs, err := Scan(dev, tr.FirstBlock())
	if err != nil || len(recs) != 2*n {
		t.Fatalf("scan: %d records, err %v; want %d", len(recs), err, 2*n)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	tr.Close()
}

func TestWaitDurableManyWaiters(t *testing.T) {
	dev := &slowDev{BlockDev: disk.NewVolume("$AUDIT", true), delay: time.Millisecond}
	tr := newTrailOn(t, dev, Config{GroupCommit: true})
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			tr.WaitDurable(tr.AppendCommit(tx))
		}(uint64(i))
	}
	within(t, "the waiters", wg.Wait)
	tr.Close()
}

// TestPackingProperty drives the flusher's block packing — the reused
// run of block images, the tail carried from flush to flush — with
// records and flush points of random size, including flushes that end
// exactly on a block boundary, and reads the log back.
func TestPackingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	tr, v := newTestTrail(t, Config{BufferFullBytes: 1 << 30})
	var want [][]byte
	appendRec := func(keyLen int) {
		key := make([]byte, keyLen)
		rng.Read(key)
		tr.Append(&Record{Type: RecInsert, TxID: uint64(len(want) + 1), Key: key})
		want = append(want, key)
	}
	// One flush that ends exactly at the end of the first block, then one
	// that starts a fresh block with no tail to carry.
	probe := &Record{Type: RecInsert, TxID: 1, LSN: 1, Key: make([]byte, 4000)}
	appendRec(4000 + disk.BlockSize - probe.Size())
	tr.Flush()
	if tr.tailLen != 0 {
		t.Fatalf("first flush left a %d-byte tail, want a full block", tr.tailLen)
	}
	for round := 0; round < 200; round++ {
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				appendRec(rng.Intn(3 * disk.BlockSize)) // spans blocks
			default:
				appendRec(rng.Intn(200))
			}
		}
		if rng.Intn(10) == 0 { // a run longer than one bulk write
			for i := 0; i < 12; i++ {
				appendRec(3000)
			}
		}
		tr.Flush()
	}
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil || len(recs) != len(want) {
		t.Fatalf("scan: %d records, err %v; want %d", len(recs), err, len(want))
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) || !bytes.Equal(r.Key, want[i]) {
			t.Fatalf("record %d: LSN %d, key mismatch %v", i, r.LSN, !bytes.Equal(r.Key, want[i]))
		}
	}
}
