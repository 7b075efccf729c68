package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fault"
)

// Config tunes a Trail. Zero values take documented defaults.
type Config struct {
	// Volume is the audit trail volume, managed by a standard Disk
	// Process in the paper. Required.
	Volume disk.BlockDev

	// ID names this trail among the trails whose users exchange messages:
	// a cluster numbers its nodes' trails 1, 2, …. A two-phase commit
	// coordinator states its trail's ID in KPREPARE, and a participant
	// auditing to the same trail need not force its prepare record (see
	// dp.prepare). Zero is anonymous: it matches nothing.
	ID uint64

	// BufferFullBytes triggers a log flush when this much un-flushed
	// audit accumulates. Default 16 KB. Field-compressed audit fills the
	// buffer more slowly, producing "fewer sends of audit … due to audit
	// buffer-full conditions".
	BufferFullBytes int

	// GroupCommit lets one bulk log write commit every transaction whose
	// commit record is in the buffer when a flush takes it. When false a
	// commit record is flushed by its own appender, alone: the
	// sync-per-commit baseline of E5.
	GroupCommit bool
}

// Stats counts audit trail activity.
type Stats struct {
	Appends           uint64 // audit records appended
	CommitRecords     uint64
	BytesAppended     uint64 // encoded audit bytes (the compression metric)
	Flushes           uint64 // bulk log writes ("sends" + physical I/Os)
	BufferFullFlushes uint64 // buffer-full conditions
	CommitsFlushed    uint64 // commit records made durable (for commits/flush)
	Joined            uint64 // force points that waited on a flush another caller led
}

// CommitsPerFlush returns the average group-commit batch size.
func (s Stats) CommitsPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.CommitsFlushed) / float64(s.Flushes)
}

// A Trail is the audit trail writer: the highly optimized audit-writing
// component of the audit trail volume's Disk Process.
//
// Durability has one mechanism (DESIGN.md §17). Every force point — a
// commit's WaitDurable, the prepare's and the cache WAL gate's FlushTo,
// Flush, Close — is "block until durable ≥ LSN". A caller that finds no
// flush in flight leads one: it takes the pending buffer under the mutex
// and packs, writes and syncs it with the mutex released, then advances
// the durable LSN and wakes the followers, whose records form the next
// group. The device's latency sets the group size, not a timer.
type Trail struct {
	cfg        Config
	firstBlock disk.BlockNum

	mu             sync.Mutex
	durable        *sync.Cond // a flush finished (or the trail closed)
	nextLSN        LSN        // last LSN assigned
	flushedLSN     LSN
	pending        []byte // encoded, not yet taken by a flush
	pendingCommits int
	flushing       bool // a leader is out with the buffer it took
	closed         bool
	stats          Stats

	// The flusher's own: touched only by the one leader, with mu released.
	spare   []byte        // the buffer the last flush took, for the next swap
	img     []byte        // block images of a run; between flushes img[:tailLen] is the tail block's content
	blocks  [][]byte      // img cut into blocks, for WriteBulk
	tailNum disk.BlockNum // the last block of the log
	tailLen int           // bytes used in it; 0 = full, the next flush starts a fresh block
	used    bool          // firstBlock has been consumed
}

// NewTrail creates an audit trail on cfg.Volume.
func NewTrail(cfg Config) (*Trail, error) {
	if cfg.Volume == nil {
		return nil, fmt.Errorf("wal: Config.Volume is required")
	}
	if cfg.BufferFullBytes == 0 {
		cfg.BufferFullBytes = 16 * 1024
	}
	t := &Trail{cfg: cfg}
	t.durable = sync.NewCond(&t.mu)
	t.firstBlock = cfg.Volume.AllocateRun(1)
	return t, nil
}

// FirstBlock returns the block where the trail begins, for recovery.
func (t *Trail) FirstBlock() disk.BlockNum { return t.firstBlock }

// ID returns the trail's identity (Config.ID; 0 = anonymous).
func (t *Trail) ID() uint64 { return t.cfg.ID }

// Append adds a data audit record (insert/update/delete/prepare/abort),
// assigns its LSN, and returns it. The record is buffered; it becomes
// durable on the next flush. The append that fills the buffer flushes it,
// unless a flush is already in flight — Append never waits for another
// caller's I/O.
func (t *Trail) Append(r *Record) LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	lsn, full := t.appendLocked(r)
	if full {
		t.flushFullLocked(lsn)
	}
	return lsn
}

// Buffer is Append without the I/O, for a caller that holds a page latch:
// it reports whether r filled the buffer, and a caller told so calls
// FlushFull once it holds no latch.
func (t *Trail) Buffer(r *Record) (LSN, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(r)
}

// FlushFull leads the flush that the buffer-full append of the record at
// lsn left to its caller, unless a flush already took the record or one is
// in flight: like Append, it never waits for another caller's I/O.
func (t *Trail) FlushFull(lsn LSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushFullLocked(lsn)
}

func (t *Trail) flushFullLocked(lsn LSN) {
	if t.flushedLSN < lsn && !t.flushing && !t.closed {
		t.flushLocked()
	}
}

// appendLocked buffers r and reports whether it filled the buffer.
func (t *Trail) appendLocked(r *Record) (LSN, bool) {
	t.nextLSN++
	r.LSN = t.nextLSN
	before := len(t.pending)
	t.pending = r.Encode(t.pending)
	t.stats.Appends++
	t.stats.BytesAppended += uint64(len(t.pending) - before)
	if r.Type == RecCommit {
		t.stats.CommitRecords++
		t.pendingCommits++
	}
	full := t.cfg.BufferFullBytes
	if before >= full || len(t.pending) < full {
		return r.LSN, false
	}
	t.stats.BufferFullFlushes++
	return r.LSN, true
}

// AppendCommit appends a commit record for tx and returns its LSN. Use
// WaitDurable to block until the commit is on disk; under group commit
// many transactions ride one bulk log write. Without it the record is
// durable on return, and no other commit record shared its flush: the
// appender waits out a flush in flight before it appends, and takes the
// buffer in the same critical section.
func (t *Trail) AppendCommit(txID uint64) LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.GroupCommit {
		lsn, full := t.appendLocked(&Record{Type: RecCommit, TxID: txID})
		if full {
			t.flushFullLocked(lsn)
		}
		return lsn
	}
	for t.flushing {
		t.durable.Wait()
	}
	lsn, _ := t.appendLocked(&Record{Type: RecCommit, TxID: txID})
	if t.flushedLSN < lsn && !t.closed {
		t.flushLocked()
	}
	return lsn
}

// WaitDurable blocks until the record at lsn is durable on the audit
// trail volume: the one wait behind every force point. An lsn the trail
// never assigned (a page LSN that outlived a restarted trail) means
// "everything appended so far". On a closed trail it returns at once.
func (t *Trail) WaitDurable(lsn LSN) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lsn > t.nextLSN {
		lsn = t.nextLSN
	}
	joined := false
	for t.flushedLSN < lsn && !t.closed {
		if !t.flushing {
			// Everything in (flushedLSN, nextLSN] is in pending: lead.
			t.flushLocked()
			continue
		}
		if !joined {
			joined = true
			t.stats.Joined++
		}
		t.durable.Wait()
	}
}

// FlushTo is WaitDurable under the name the cache's WAL gate knows it by:
// a dirty data block whose page LSN exceeds the durable LSN may be
// written only after this returns.
func (t *Trail) FlushTo(lsn LSN) { t.WaitDurable(lsn) }

// Flush forces all buffered audit durable.
func (t *Trail) Flush() { t.WaitDurable(^LSN(0)) }

// flushLocked leads one flush: called with mu held, no flush in flight
// and pending non-empty; returns with mu held, everything that was
// pending when it took the buffer durable, and the followers woken.
//
// Under group commit the leader first yields the processor once: every
// session that is already runnable appends its commit record and parks
// behind this flush before the buffer is taken, and when nobody is the
// yield returns at once. That is the whole group-commit window. A record
// appended after the swap has an LSN above upTo, so its owner still finds
// flushedLSN short of it and leads or joins the next flush. A failed
// write or sync panics with flushing set: no follower is ever told that
// audit which did not reach the disk is durable.
func (t *Trail) flushLocked() {
	t.flushing = true
	if t.cfg.GroupCommit {
		t.mu.Unlock()
		runtime.Gosched()
		t.mu.Lock()
	}
	data, upTo, commits := t.pending, t.nextLSN, t.pendingCommits
	t.pending, t.pendingCommits = t.spare[:0], 0
	t.mu.Unlock()

	t.write(data)

	t.mu.Lock()
	t.spare = data
	t.flushedLSN = upTo
	t.stats.Flushes++
	t.stats.CommitsFlushed += uint64(commits)
	t.flushing = false
	t.durable.Broadcast()
}

// write appends data to the log on the volume and makes it durable. The
// bytes are copied once, into a reused run of block images behind the
// partly filled tail block (both devices copy what WriteBulk hands them),
// and go out in bulk writes of ≤ MaxBulkBlocks followed by one Sync.
func (t *Trail) write(data []byte) {
	total := t.tailLen + len(data)
	n := (total + disk.BlockSize - 1) / disk.BlockSize
	if cap(t.img) < n*disk.BlockSize {
		img := make([]byte, n*disk.BlockSize)
		copy(img, t.img[:t.tailLen])
		t.img = img
	}
	t.img = t.img[:n*disk.BlockSize]
	copy(t.img[t.tailLen:], data)
	clear(t.img[total:]) // the scan stops at a zero byte

	// The run starts in the tail block when there is one; every other
	// block is fresh, and contiguous with the log because the trail owns
	// its volume.
	start, fresh := t.tailNum, n-1
	if t.tailLen == 0 {
		start, fresh = t.tailNum+1, n
		if !t.used {
			t.used = true
			start, fresh = t.firstBlock, n-1
		}
	}
	if fresh > 0 {
		if got := t.cfg.Volume.AllocateRun(fresh); got != start+disk.BlockNum(n-fresh) {
			panic(fmt.Sprintf("wal: audit volume handed out block %d, log continues at %d", got, start+disk.BlockNum(n-fresh)))
		}
	}
	t.blocks = t.blocks[:0]
	for i := 0; i < n; i++ {
		t.blocks = append(t.blocks, t.img[i*disk.BlockSize:(i+1)*disk.BlockSize])
	}
	fault.Inject(fault.WALFlushBeforeWrite)
	for i := 0; i < n; i += disk.MaxBulkBlocks {
		end := min(i+disk.MaxBulkBlocks, n)
		if err := t.cfg.Volume.WriteBulk(start+disk.BlockNum(i), t.blocks[i:end]); err != nil {
			panic(fmt.Sprintf("wal: audit volume write failed: %v", err))
		}
	}
	// On a file-backed volume the bulk writes above may only be queued;
	// Sync is the durability barrier (batched fsync). It MUST complete
	// before flushedLSN advances: the cache's WAL gate trusts flushedLSN
	// to clean a data page, the commit protocol to acknowledge a client.
	if err := t.cfg.Volume.Sync(); err != nil {
		panic(fmt.Sprintf("wal: audit volume sync failed: %v", err))
	}
	fault.Inject(fault.WALFlushAfterWrite)

	t.tailNum = start + disk.BlockNum(n-1)
	t.tailLen = total % disk.BlockSize
	copy(t.img, t.img[(n-1)*disk.BlockSize:][:t.tailLen])
}

// FlushedLSN returns the highest durable LSN.
func (t *Trail) FlushedLSN() LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushedLSN
}

// Stats returns a snapshot of the counters.
func (t *Trail) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// ResetStats zeroes the counters.
func (t *Trail) ResetStats() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats = Stats{}
}

// Close waits out a flush in flight, flushes what is pending and marks
// the trail closed; every later force is a no-op.
func (t *Trail) Close() {
	t.WaitDurable(^LSN(0))
	t.mu.Lock()
	t.closed = true
	t.durable.Broadcast()
	t.mu.Unlock()
}

// Scan reads the durable audit trail back from the volume, in LSN order.
// It is a standalone function taking only on-disk state, because after a
// crash the Trail's memory is gone. The scan stops at the first byte
// position that does not parse as a record frame (zero-filled tail).
func Scan(v disk.BlockDev, firstBlock disk.BlockNum) ([]*Record, error) {
	var raw []byte
	buf := make([]byte, disk.BlockSize)
	for bn := firstBlock; ; bn++ {
		if err := v.Read(bn, buf); err != nil {
			if errors.Is(err, disk.ErrUnallocated) {
				break // end of trail region
			}
			// A real I/O failure must not masquerade as end-of-trail:
			// truncating here would silently drop committed work.
			return nil, fmt.Errorf("wal: scan block %d: %w", bn, err)
		}
		raw = append(raw, buf...)
	}
	var out []*Record
	for len(raw) > 0 && raw[0] != 0 {
		r, rest, err := Decode(raw)
		if err != nil {
			// A torn tail (crash mid-write) ends the usable log.
			break
		}
		out = append(out, r)
		raw = rest
	}
	return out, nil
}
