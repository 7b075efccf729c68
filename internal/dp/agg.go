package dp

import (
	"bytes"
	"slices"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
)

// aggGroup is one GROUP BY group of the current message. Its bytes live
// in aggMem.block: the order-preserving key encoding the groups are found
// and ordered by, then the key fields' wire encoding the reply ships. Its
// partials are aggMem.partials[part : part+len(agg.Cols)]. A group is
// three offsets and an index, not a heap object.
type aggGroup struct {
	off, keyEnd, end uint32 // block[off:keyEnd] key bytes, block[keyEnd:end] encoded key values
	part             uint32
}

// aggMem is the arenas one AGG message accumulates its groups in. The
// groups are per-message, the memory per-conversation: a message takes it
// from the Subset Control Block and finishAgg hands it back emptied, so
// after a conversation's first message a new group costs no allocation —
// and with a 4 KiB reply budget ending a message every seventy-odd new
// groups, "per new group" is close to "per record".
type aggMem struct {
	block    []byte            // key bytes and encoded key values, group after group
	groups   []aggGroup        // in key-byte order
	partials []fsdp.AggPartial // len(agg.Cols) per group, in the order groups appeared
	kb       []byte            // the record at hand's group key
}

// aggregate serves AGG^FIRST/NEXT: the Disk Process folds the subset's
// qualifying records through the decomposable aggregate program and
// replies with one compact partial state per group — rows never cross
// the interface. Groups are per-message: each reply carries the groups
// this message's records touched, and the File System merges partials
// across re-drives and partitions, so the Disk Process's memory stays
// bounded by the per-message row budget, not the group count.
var aggregate = &subsetKind{first: fsdp.KAggFirst,
	open: func(r *subsetRun) (err error) {
		r.s.agg, err = fsdp.DecodeAggSpec(r.req.Agg)
		return err
	},
	visit:  visitAgg,
	finish: finishAgg,
}

func visitAgg(r *subsetRun, _, _ []byte, rec *record.View) (bool, error) {
	spec, m := r.s.agg, &r.agg
	kb := m.kb[:0]
	for _, g := range spec.GroupBy {
		if g < 0 || g >= rec.Len() {
			return false, errBadOrdinal(r.req.File, g)
		}
		kb = rec.AppendKey(kb, g)
	}
	m.kb = kb
	// The groups stay sorted by key bytes: found by binary search, shipped
	// in that order by finishAgg with no sort.
	at, ok := slices.BinarySearchFunc(m.groups, kb, func(g aggGroup, kb []byte) int {
		return bytes.Compare(m.block[g.off:g.keyEnd], kb)
	})
	if !ok {
		gr := aggGroup{off: uint32(len(m.block)), part: uint32(len(m.partials))}
		m.block = append(m.block, kb...)
		gr.keyEnd = uint32(len(m.block))
		for _, g := range spec.GroupBy {
			m.block = rec.AppendField(m.block, g)
		}
		gr.end = uint32(len(m.block))
		m.partials = append(m.partials, make([]fsdp.AggPartial, len(spec.Cols))...)
		m.groups = slices.Insert(m.groups, at, gr)
		// A new group grows the reply by its key plus the fixed-size
		// partial states; charge that against the block budget.
		r.batch.bytes += len(kb) + 16*(len(spec.GroupBy)+len(spec.Cols))
	}
	partials := m.partials[m.groups[at].part:]
	for i, c := range spec.Cols {
		if c.Star {
			partials[i].Count++
			continue
		}
		if c.Col < 0 || c.Col >= rec.Len() {
			return false, errBadOrdinal(r.req.File, c.Col)
		}
		v := rec.Value(c.Col)
		if v.IsNull() {
			continue // SQL aggregates ignore NULLs
		}
		partials[i].Feed(c.Fn, v) // Feed copies a MIN/MAX value it keeps
	}
	return true, nil
}

// finishAgg ships the groups in key-byte order: deterministic replies
// make the conversation reproducible message-for-message. Every entry is
// appended to one buffer and cut out of it.
func finishAgg(r *subsetRun) error {
	spec, m := r.s.agg, &r.agg
	ncols := len(spec.Cols)
	r.reply.Rows = make([][]byte, 0, len(m.groups))
	// Sized for numeric partials (a long MIN/MAX string just grows it):
	// the block less its key bytes, which do not ship.
	size := len(m.block) + len(m.groups)*(1+14*ncols)
	for _, g := range m.groups {
		size -= int(g.keyEnd - g.off)
	}
	out := make([]byte, 0, size)
	for _, g := range m.groups {
		n := len(out)
		out = fsdp.AppendGroup(out, len(spec.GroupBy), m.block[g.keyEnd:g.end], m.partials[g.part:int(g.part)+ncols])
		r.reply.Rows = append(r.reply.Rows, out[n:len(out):len(out)])
	}
	r.reply.Count = uint32(len(m.groups))
	clear(m.partials) // drop MIN/MAX strings
	r.s.aggMem = aggMem{block: m.block[:0], groups: m.groups[:0], partials: m.partials[:0], kb: m.kb[:0]}
	return nil
}

func errBadOrdinal(file string, col int) error {
	return &badOrdinalError{file: file, col: col}
}

type badOrdinalError struct {
	file string
	col  int
}

func (e *badOrdinalError) Error() string {
	return "dp: aggregate field ordinal " + itoa(e.col) + " out of range for " + e.file
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// probeBlock serves PROBE^BLOCK: one message carries a block of probe
// key prefixes (batched index-join probes) and the reply carries every
// matching record for as many probes as the message budget allows.
// The conversation is stateless — no Subset Control Block. Reply.Count
// is the number of probes fully served; the File System re-sends the
// remainder of the block in a fresh message.
func (d *DP) probeBlock(req *fsdp.Request) *fsdp.Reply {
	f, err := d.getFile(req.File)
	if err != nil {
		return errReply(err)
	}
	d.stats.setRequests.Add(1)
	pred, err := expr.Decode(req.Pred)
	if err != nil {
		return errReply(err)
	}

	batch := d.newBatch(req.RowLimit)
	reply := &fsdp.Reply{Done: true}
	var rec record.View
	probesDone := 0
	for _, prefix := range req.RowKeys {
		// The budget is checked between probes, never inside one, so
		// every message serves at least its first probe completely.
		if batch.full() {
			reply.Done = false
			break
		}
		rng := keys.Prefix(prefix)
		matched := false
		scanErr := f.tree.ScanClass(rng, false, cache.Keyed, func(key, val []byte) (bool, error) {
			batch.processed++
			d.stats.rowsScanned.Add(1)
			if err := rec.Reset(val); err != nil {
				return false, err
			}
			keep := true
			if pred != nil {
				d.stats.predicateEvals.Add(1)
				var err error
				if keep, err = expr.SatisfiedView(pred, &rec); err != nil {
					return false, err
				}
			}
			if keep {
				matched = true
				// key and val are borrowed from the leaf's cache buffer
				// (btree.ScanFunc); the reply outlives the scan.
				reply.Rows = append(reply.Rows, append([]byte(nil), val...))
				reply.RowKeys = append(reply.RowKeys, append([]byte(nil), key...))
				batch.bytes += len(val)
				d.stats.rowsReturned.Add(1)
			} else {
				d.stats.rowsFiltered.Add(1)
			}
			return true, nil
		})
		if scanErr != nil {
			return errReply(scanErr)
		}
		// Probed ranges with matches are range-locked shared under a
		// transaction, keeping the join's inner rows stable to commit.
		if req.Tx != 0 && matched {
			if err := d.locks.Acquire(req.Tx, req.File, rng, lock.Shared); err != nil {
				return errReply(err)
			}
			d.joinTx(req.Tx)
		}
		probesDone++
	}
	reply.Count = uint32(probesDone)
	reply.Examined = uint32(batch.processed)
	return reply
}
