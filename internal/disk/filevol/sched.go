// The asynchronous I/O scheduler: a bounded submission queue drained by
// a completion-worker pool, with three batching effects the synchronous
// path cannot get —
//
//   - write absorption: a second write to a queued block replaces the
//     queued image, so only the newest version reaches the file;
//   - adjacency coalescing: each worker claims a maximal run of
//     consecutive queued blocks (capped at MaxBulkBlocks, i.e.
//     MaxBulkBytes) and lands it with ONE pwrite;
//   - fsync batching: Sync drains the queue and then joins the next
//     fsync generation, so N concurrent durability waits cost one
//     physical fsync.
//
// Consistency rules: a block being written by a worker sits in the busy
// set; submissions for a busy block park in pending (they are a NEWER
// image) and become claimable when the worker finishes, so two workers
// never write the same block concurrently and images always land in
// submission order. Reads overlay pending first, then busy, then the
// file, so queued writes are immediately visible. Write errors are
// sticky and surface at the next Sync, per the BlockDev contract.
//
// Queued images come from the disk package's block pool and go back to
// it when a newer image absorbs them or their pwrite lands, so a reader
// copies an image out under mu: once mu is dropped the buffer may already
// hold another block.
package filevol

import (
	"fmt"
	"sort"
	"sync"

	"nonstopsql/internal/disk"
)

const (
	// workers is the completion-worker pool depth: how many coalesced
	// bulk pwrites can be in flight.
	workers         = 2
	defaultMaxQueue = 256
)

type sched struct {
	v *Volume

	mu       sync.Mutex
	pending  map[disk.BlockNum][]byte // submitted, not yet claimed
	busy     map[disk.BlockNum][]byte // claimed, pwrite in flight
	inFlight int                      // runs being written right now
	maxQueue int
	closed   bool
	err      error // sticky: first write/fsync failure

	work  *sync.Cond // pending gained a claimable entry, or closing
	room  *sync.Cond // pending shrank below maxQueue
	drain *sync.Cond // pending and busy both empty

	// fsync generations: syncSeq counts fsyncs started, syncedSeq fsyncs
	// finished. A Sync caller that drained at generation g needs
	// syncedSeq > g; every caller parked on syncGen while one fsync runs
	// is satisfied by the next one — that is the batching.
	fsyncActive bool
	syncSeq     uint64
	syncedSeq   uint64
	syncGen     *sync.Cond

	stats disk.Stats // scheduler-owned counters, under mu

	wg sync.WaitGroup
}

func newSched(v *Volume, maxQueue int) *sched {
	if maxQueue <= 0 {
		maxQueue = defaultMaxQueue
	}
	s := &sched{
		v:        v,
		pending:  make(map[disk.BlockNum][]byte),
		busy:     make(map[disk.BlockNum][]byte),
		maxQueue: maxQueue,
	}
	s.work = sync.NewCond(&s.mu)
	s.room = sync.NewCond(&s.mu)
	s.drain = sync.NewCond(&s.mu)
	s.syncGen = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit queues a copy of one block image, blocking while the queue is
// full; the caller keeps data.
func (s *sched) submit(bn disk.BlockNum, data []byte) error {
	img := disk.NewBlock()
	copy(img, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) >= s.maxQueue && !s.closed {
		s.room.Wait()
	}
	if s.closed {
		disk.FreeBlock(img)
		return fmt.Errorf("disk %s: write on closed volume", s.v.name)
	}
	if old, dup := s.pending[bn]; dup {
		disk.FreeBlock(old)
		s.stats.Absorbed++
	}
	s.pending[bn] = img
	s.stats.Enqueued++
	if d := uint64(len(s.pending)); d > s.stats.QueuePeak {
		s.stats.QueuePeak = d
	}
	s.work.Signal()
	return nil
}

// lookup copies the queued or in-flight image of bn, newest first, into
// buf[:0] (allocating when buf is nil) and returns the copy; nil when bn
// has no image in the queue.
func (s *sched) lookup(bn disk.BlockNum, buf []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.pending[bn]
	if !ok {
		if img, ok = s.busy[bn]; !ok {
			return nil
		}
	}
	return append(buf[:0], img...)
}

// claimRunLocked picks a maximal run of consecutive pending blocks —
// none of them busy — moves it into the busy set, and returns it sorted.
// ok is false when nothing is claimable (every pending block is shadowed
// by an in-flight write of the same block).
func (s *sched) claimRunLocked() (start disk.BlockNum, run [][]byte, ok bool) {
	var seed disk.BlockNum
	found := false
	for bn := range s.pending {
		if _, b := s.busy[bn]; !b {
			seed, found = bn, true
			break
		}
	}
	if !found {
		return 0, nil, false
	}
	lo, hi := seed, seed
	claimable := func(bn disk.BlockNum) bool {
		if _, p := s.pending[bn]; !p {
			return false
		}
		_, b := s.busy[bn]
		return !b
	}
	for hi-lo+1 < disk.MaxBulkBlocks && claimable(lo-1) {
		lo--
	}
	for hi-lo+1 < disk.MaxBulkBlocks && claimable(hi+1) {
		hi++
	}
	for bn := lo; bn <= hi; bn++ {
		img := s.pending[bn]
		delete(s.pending, bn)
		s.busy[bn] = img
		run = append(run, img)
	}
	s.room.Broadcast()
	return lo, run, true
}

func (s *sched) worker() {
	defer s.wg.Done()
	// A multi-block run is gathered here for its one pwrite; a one-block
	// run goes out from the image the queue already owns.
	gather := make([]byte, 0, disk.MaxBulkBytes)
	for {
		s.mu.Lock()
		var start disk.BlockNum
		var run [][]byte
		for {
			if len(s.pending) > 0 {
				var ok bool
				if start, run, ok = s.claimRunLocked(); ok {
					break
				}
			} else if s.closed {
				s.mu.Unlock()
				return
			}
			s.work.Wait()
		}
		s.inFlight++
		s.mu.Unlock()

		raw := run[0]
		if len(run) > 1 {
			raw = gather[:0]
			for _, b := range run {
				raw = append(raw, b...)
			}
		}
		_, werr := s.v.f.WriteAt(raw, blockOff(start))

		s.mu.Lock()
		for i := range run {
			bn := start + disk.BlockNum(i)
			// A newer image may have been submitted while we wrote; it
			// sits in pending and stays claimable. Only our busy entry
			// is retired, and its image goes back to the pool.
			delete(s.busy, bn)
			disk.FreeBlock(run[i])
		}
		s.inFlight--
		s.stats.Writes++
		if len(run) > 1 {
			s.stats.BulkWrites++
		}
		s.stats.BlocksWritten += uint64(len(run))
		if werr != nil && s.err == nil {
			s.err = fmt.Errorf("disk %s: pwrite: %w", s.v.name, werr)
		}
		if len(s.pending) == 0 && s.inFlight == 0 {
			s.drain.Broadcast()
		}
		// Blocks that were pending-behind-busy are claimable now.
		s.work.Signal()
		s.mu.Unlock()
	}
}

// sync drains the queue, then joins the next fsync generation. One
// physical fsync serves every caller parked on the generation — that is
// the commits-per-fsync batching TestE18FileVolumes asserts.
func (s *sched) sync() error {
	s.mu.Lock()
	s.stats.SyncWaits++
	for (len(s.pending) > 0 || s.inFlight > 0) && s.err == nil && !s.closed {
		s.drain.Wait()
	}
	if s.err != nil || s.closed {
		err := s.err
		if err == nil {
			err = fmt.Errorf("disk %s: sync on closed volume", s.v.name)
		}
		s.mu.Unlock()
		return err
	}
	want := s.syncSeq + 1
	for s.syncedSeq < want && s.err == nil {
		if !s.fsyncActive {
			s.fsyncActive = true
			s.syncSeq++
			mine := s.syncSeq
			s.mu.Unlock()
			// Piggyback the allocation header on the fsync we are about
			// to pay for anyway, then make everything durable.
			_ = s.v.writeHeader(false)
			ferr := s.v.f.Sync()
			s.mu.Lock()
			s.fsyncActive = false
			s.syncedSeq = mine
			s.stats.Fsyncs++
			if ferr != nil && s.err == nil {
				s.err = fmt.Errorf("disk %s: fsync: %w", s.v.name, ferr)
			}
			s.syncGen.Broadcast()
		} else {
			s.syncGen.Wait()
		}
	}
	err := s.err
	s.mu.Unlock()
	return err
}

// close stops the workers after the queue empties. Callers should sync
// first; close does not fsync.
func (s *sched) close() {
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.room.Broadcast()
	s.drain.Broadcast()
	s.syncGen.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *sched) snapshot() disk.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if d := uint64(len(s.pending)); d > st.QueuePeak {
		st.QueuePeak = d
	}
	return st
}

func (s *sched) resetStats() {
	s.mu.Lock()
	s.stats = disk.Stats{}
	s.mu.Unlock()
}

// sortRuns is a test hook: it reports the runs currently claimable,
// sorted, without claiming them. Used by the scheduler's unit tests.
func (s *sched) pendingBlocks() []disk.BlockNum {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]disk.BlockNum, 0, len(s.pending))
	for bn := range s.pending {
		out = append(out, bn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
