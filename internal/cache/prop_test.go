package cache

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/wal"
)

// TestPoolProperty runs randomized concurrent Get / MarkDirty /
// WriteBehind / Discard traffic against a single-threaded reference
// model. Each owner goroutine works a disjoint block set, so it knows
// exactly what value its blocks must hold: the last value it wrote.
// The gate is nil (everything durable), so any page may be flushed or
// evicted at any time — a read must still see the latest write whether
// it comes from cache or disk. Run under -race this also exercises the
// shard locking.
//
// The traffic runs in rounds. Between rounds nothing is in flight, and
// there — as after FlushAll, a Discard of a dirty page and a Crash — the
// pool's O(1) DirtyCount must equal a walk of every shard's page table.
func TestPoolProperty(t *testing.T) {
	const (
		owners    = 4
		blocksPer = 64
		rounds    = 4
		iters     = 200 // per owner per round
	)
	v := disk.NewVolume("$DATA", false)
	start := v.AllocateRun(owners * blocksPer)
	zero := make([]byte, disk.BlockSize)
	for i := 0; i < owners*blocksPer; i++ {
		if err := v.Write(start+disk.BlockNum(i), zero); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity below the working set forces constant eviction traffic.
	p := NewPoolOpts(v, 64, nil, Options{Shards: 4})

	checkDirtyCount := func(when string) {
		t.Helper()
		walked := 0
		for _, s := range p.shards {
			s.lock()
			for _, pg := range s.pages {
				if pg.dirty {
					walked++
				}
			}
			s.mu.Unlock()
		}
		if got := p.DirtyCount(); got != walked {
			t.Fatalf("%s: DirtyCount %d, a walk of the page tables finds %d", when, got, walked)
		}
	}

	// model: finals[o][b] is the value owner o last wrote to its block b.
	finals := make([][]uint64, owners)
	lsns := make([]wal.LSN, owners)
	for o := range finals {
		finals[o] = make([]uint64, blocksPer)
	}
	for round := 0; round < rounds; round++ {
		runPropertyRound(t, p, start, finals, lsns, round, iters)
		checkDirtyCount("between rounds")
	}

	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	checkDirtyCount("after FlushAll")
	if p.DirtyCount() != 0 {
		t.Fatalf("after FlushAll: %d dirty pages", p.DirtyCount())
	}
	// Disk must now hold every owner's final value.
	buf := make([]byte, disk.BlockSize)
	for o := 0; o < owners; o++ {
		for b := 0; b < blocksPer; b++ {
			bn := start + disk.BlockNum(o*blocksPer+b)
			if err := v.Read(bn, buf); err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint64(buf); got != finals[o][b] {
				t.Errorf("owner %d block %d: disk %d, model %d", o, b, got, finals[o][b])
			}
		}
	}

	// The two ways a dirty page leaves without being written.
	for i := 0; i < 8; i++ {
		pg, err := p.Get(start + disk.BlockNum(i))
		if err != nil {
			t.Fatal(err)
		}
		pg.MarkDirty(1)
		pg.Release()
	}
	checkDirtyCount("after dirtying 8 pages")
	p.Discard(start)
	checkDirtyCount("after Discard of a dirty page")
	held, err := p.Get(start + 1) // still pinned across the crash
	if err != nil {
		t.Fatal(err)
	}
	p.Crash()
	checkDirtyCount("after Crash")
	held.MarkDirty(2) // an orphan: no longer resident, must not be counted
	held.Release()
	checkDirtyCount("after an orphaned page was marked dirty")
	if p.DirtyCount() != 0 {
		t.Fatalf("after Crash: %d dirty pages", p.DirtyCount())
	}
}

// runPropertyRound runs one round of TestPoolProperty's traffic to
// completion: the owners, and a churner racing write-behind passes — the
// all-aged pass and the windowed one, in turn — against them.
func runPropertyRound(t *testing.T, p *Pool, start disk.BlockNum, finals [][]uint64, lsns []wal.LSN, round, iters int) {
	blocksPer := len(finals[0])
	var wg, churnWG sync.WaitGroup
	stop := make(chan struct{})
	// Churner: concurrent write-behind passes race the owners.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pass := p.WriteBehind
			if i%2 == 1 {
				pass = p.cleanEvictionEnd
			}
			if _, err := pass(); err != nil {
				t.Errorf("write-behind: %v", err)
				return
			}
		}
	}()

	for o := range finals {
		o := o
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(o)*7919 + int64(round)))
			model := finals[o]
			lsn := lsns[o]
			defer func() { lsns[o] = lsn }()
			for it := 0; it < iters; it++ {
				b := rng.Intn(blocksPer)
				bn := start + disk.BlockNum(o*blocksPer+b)
				class := Keyed
				if rng.Intn(2) == 0 {
					class = Sequential
				}
				pg, err := p.GetClass(bn, class)
				if err != nil {
					t.Errorf("owner %d: get %d: %v", o, bn, err)
					return
				}
				got := binary.LittleEndian.Uint64(pg.Data())
				if got != model[b] {
					t.Errorf("owner %d block %d: read %d, model %d", o, b, got, model[b])
					pg.Release()
					return
				}
				switch rng.Intn(3) {
				case 0: // write
					model[b]++
					binary.LittleEndian.PutUint64(pg.Data(), model[b])
					lsn++
					pg.MarkDirty(lsn)
					pg.Release()
				case 1: // read only
					pg.Release()
				case 2: // maybe discard: only safe when nothing unflushed
					pg.Release()
					if !p.IsDirty(bn) {
						p.Discard(bn)
					}
				}
			}
		}()
	}
	// Owners finish, then the churner stops.
	wg.Wait()
	close(stop)
	churnWG.Wait()
}
