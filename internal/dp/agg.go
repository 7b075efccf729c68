package dp

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"

	"nonstopsql/internal/btree"
	"nonstopsql/internal/cache"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
)

// aggGroup is one GROUP BY group the conversation holds. Its bytes live in
// aggMem.block: the order-preserving key encoding the groups are ordered
// by, then the key fields' wire encoding the reply ships. Its partials are
// aggMem.partials[part : part+len(agg.Cols)]. A group is four numbers, not
// a heap object.
type aggGroup struct {
	off, keyEnd, end uint32 // block[off:keyEnd] key bytes, block[keyEnd:end] encoded key values
	part             uint32
}

// aggSlot is one entry of aggMem's open-addressed table: the group it
// names, and, for a group found by its INTEGER key, that key beside it, so
// a probe reads the slot and nothing else.
type aggSlot struct {
	key   int64  // the group's INTEGER key, when isInt
	group uint32 // index into groups, plus one; zero is an empty slot
	isInt bool   // found by key (the int path), not by its key bytes (the byte path)
}

// aggMem is an AGG conversation's groups, in three arenas and a hash table
// on its Subset Control Block. The groups are per-conversation: they ride
// from one message to the next, folding in every qualifying record, and
// leave in one piece — finishAgg ships them all and empties the arenas —
// when the entries fill a reply block or the range is exhausted. So the
// memory is one block's worth however many records or groups the subset
// has, a group the conversation already holds costs no allocation and no
// reply bytes when a later message meets it again, and the arenas'
// capacity is kept across a ship. Nothing here outlives the SCB: when it
// is retired — Done, CLOSE^SUBSET, a failed message, the transaction's
// end, a crash — the half-built aggregate goes with it.
type aggMem struct {
	block    []byte            // key bytes and encoded key values, group after group
	groups   []aggGroup        // in the order they appeared; sorted by key bytes to ship
	table    []aggSlot         // open-addressed, at most half full
	partials []fsdp.AggPartial // len(agg.Cols) per group, in the order groups appeared
	kb       []byte            // the record at hand's group key bytes
	bytes    int               // what the groups' reply entries weigh (fsdp.GroupLen): the entries' bytes if shipped now
	width    int               // aggWidth of the conversation's spec: checked once a record, not once a field

	// undo and at are the groups as they stood when an in-transaction
	// message began (mark), for the message to be folded again from there
	// (rewind) if its group lock waits.
	undo []fsdp.AggPartial
	at   struct{ block, groups, bytes int }
}

// mark notes the groups as they stand, so that what the message about to
// run folds into them can be undone.
func (m *aggMem) mark() {
	m.undo = append(m.undo[:0], m.partials...)
	m.at.block, m.at.groups, m.at.bytes = len(m.block), len(m.groups), m.bytes
}

// rewind puts the groups back as mark found them: the partials as they
// were, and the groups the message added gone. A partial is a value — a
// fold replaces a MIN/MAX string, never writes into it — so the copy mark
// took is the state itself.
func (m *aggMem) rewind() {
	clear(m.partials[len(m.undo):])
	m.partials = append(m.partials[:0], m.undo...)
	m.block, m.groups, m.bytes = m.block[:m.at.block], m.groups[:m.at.groups], m.at.bytes
	m.rehash(len(m.table))
}

// aggregate serves AGG^FIRST/NEXT: the Disk Process folds the subset's
// qualifying records through the decomposable aggregate program and
// replies with one compact partial state per group — rows never cross
// the interface. The groups belong to the conversation, not the message:
// a message that ends on the row or time budget replies with LastKey and
// no entries, and the entries ship only on the full sequential block
// buffer condition — measured in the bytes they will occupy — or when the
// range is exhausted. The File System merges what arrives across blocks
// and partitions, so the Disk Process's memory stays bounded by one reply
// block, and a subset costs messages in proportion to its rows over the
// row budget plus its groups over the block, not one per block of new
// group keys.
var aggregate = &subsetKind{first: fsdp.KAggFirst,
	open: func(r *subsetRun) (err error) {
		if r.s.agg, err = fsdp.DecodeAggSpec(r.req.Agg); err != nil {
			return badRequest(err.Error())
		}
		r.s.aggMem.width = aggWidth(r.s.agg)
		return nil
	},
	visit:  visitAgg,
	finish: finishAgg,
}

// visitAgg folds one qualifying record into its group. The record's
// fields are read where they lie — no record.Value in between for the
// group key, COUNT or SUM; MIN and MAX go through the general Feed.
//
// The group is found one of two ways, and the record's key field decides
// which, so one key value is always found the same way and can never be
// held as two groups. A single INTEGER key field is the int path: the
// group is probed by the int64 itself, and its key bytes are built only
// when the group is new. Everything else — a NULL key, a FLOAT, VARCHAR
// or BOOLEAN key, more than one key column — is the byte path: the key
// bytes are built for every record and the group probed by them. Either
// way a group's key bytes are what AppendKey writes, so finishAgg orders
// and ships every group alike.
func visitAgg(r *subsetRun, _ int) (bool, error) {
	spec, m, rec := r.s.agg, &r.s.aggMem, &r.rec
	if rec.Len() < m.width {
		return false, badRequest("dp: aggregate field ordinal " + strconv.Itoa(m.width-1) + " out of range for " + r.req.File)
	}
	if 2*len(m.groups) >= len(m.table) {
		m.grow() // at most half full, and grown before the slot is taken
	}
	var at *aggSlot
	if g := spec.GroupBy; len(g) == 1 && rec.Kind(g[0]) == record.TypeInt {
		k := rec.Int(g[0])
		if at = m.islot(k); at.group == 0 {
			at.key, at.isInt = k, true
			m.kb = rec.AppendKey(m.kb[:0], g[0])
		}
	} else {
		kb := m.kb[:0]
		for _, g := range spec.GroupBy {
			kb = rec.AppendKey(kb, g)
		}
		m.kb = kb
		at = m.slot(kb)
	}
	// The block budget is charged what the entries weigh: a new group its
	// whole entry, a group already held only what this record grew it by
	// (a varint's next byte, a longer MIN/MAX string) — usually nothing,
	// and the partials say so as they fold, so no entry is weighed twice.
	grew := 0
	if at.group == 0 {
		gr := aggGroup{off: uint32(len(m.block)), part: uint32(len(m.partials))}
		m.block = append(m.block, m.kb...)
		gr.keyEnd = uint32(len(m.block))
		for _, g := range spec.GroupBy {
			m.block = rec.AppendField(m.block, g)
		}
		gr.end = uint32(len(m.block))
		m.partials = append(m.partials, make([]fsdp.AggPartial, len(spec.Cols))...)
		m.groups = append(m.groups, gr)
		at.group = uint32(len(m.groups))
		grew = fsdp.GroupLen(len(spec.GroupBy), int(gr.end-gr.keyEnd), m.partials[gr.part:])
	}
	part := m.groups[at.group-1].part
	partials := m.partials[part : int(part)+len(spec.Cols)]
	for i := range partials {
		c, p := &spec.Cols[i], &partials[i]
		if c.Star {
			grew += p.AddCount()
			continue
		}
		switch kind := rec.Kind(c.Col); {
		case kind == 0: // SQL aggregates ignore NULLs
		case c.Fn == fsdp.AggCount:
			grew += p.AddCount()
		case c.Fn == fsdp.AggSum && kind == record.TypeInt:
			grew += p.AddInt(rec.Int(c.Col))
		case c.Fn == fsdp.AggSum && kind == record.TypeFloat:
			grew += p.AddFloat(rec.Float(c.Col))
		case c.Fn == fsdp.AggSum:
			return false, badRequest("dp: SUM of field " + strconv.Itoa(c.Col) + " of " + r.req.File + ", which is " + kind.String() + ", not a number")
		default:
			grew += p.Feed(c.Fn, rec.Value(c.Col)) // MIN, MAX: Feed copies a value it keeps
		}
	}
	m.bytes += grew
	r.batch.bytes = m.bytes
	return true, nil
}

var aggSeed = maphash.MakeSeed()

// slot returns the table slot that names the byte-path group whose key
// bytes are kb or, empty, the slot where a new group with that key goes.
func (m *aggMem) slot(kb []byte) *aggSlot {
	mask := uint64(len(m.table) - 1)
	for i := maphash.Bytes(aggSeed, kb) & mask; ; i = (i + 1) & mask {
		at := &m.table[i]
		if at.group == 0 {
			return at
		}
		if !at.isInt {
			if g := &m.groups[at.group-1]; bytes.Equal(m.block[g.off:g.keyEnd], kb) {
				return at
			}
		}
	}
}

// islot is slot for the int path: the group whose INTEGER key is k. The
// key is spread over the table by a multiplicative mix, its high half
// folded into the low bits the mask keeps. Unlike maphash it is not
// seeded, so keys chosen to collide could lengthen a probe; the table
// holds at most one reply block's groups, which bounds that to a few
// hundred slots.
func (m *aggMem) islot(k int64) *aggSlot {
	mask := uint64(len(m.table) - 1)
	h := uint64(k) * 0x9e3779b97f4a7c15
	for i := (h ^ h>>32) & mask; ; i = (i + 1) & mask {
		at := &m.table[i]
		if at.group == 0 || at.isInt && at.key == k {
			return at
		}
	}
}

// grow doubles the table.
func (m *aggMem) grow() { m.rehash(max(64, 2*len(m.table))) }

// rehash makes the table size slots and names every group in it again: an
// int-path group by its key, a byte-path group by its key bytes. A slot
// naming a group rewind dropped is left behind.
func (m *aggMem) rehash(size int) {
	old := m.table
	m.table = make([]aggSlot, size)
	for _, s := range old {
		switch {
		case s.group == 0 || int(s.group) > len(m.groups):
		case s.isInt:
			*m.islot(s.key) = s
		default:
			g := &m.groups[s.group-1]
			*m.slot(m.block[g.off:g.keyEnd]) = s
		}
	}
}

// finishAgg ships the conversation's groups when the block is full or the
// range is exhausted, and otherwise leaves them on the SCB for the
// re-drive. They ship in key-byte order: deterministic replies make the
// conversation reproducible message-for-message. Every entry is appended
// to one buffer and cut out of it.
func finishAgg(r *subsetRun) error {
	spec, m := r.s.agg, &r.s.aggMem
	if !r.reply.Done && m.bytes < r.d.cfg.MaxReplyBytes {
		return nil // the row or time budget ended the message
	}
	slices.SortFunc(m.groups, func(a, b aggGroup) int {
		return bytes.Compare(m.block[a.off:a.keyEnd], m.block[b.off:b.keyEnd])
	})
	ncols := len(spec.Cols)
	r.reply.Rows = make([][]byte, 0, len(m.groups))
	out := make([]byte, 0, m.bytes)
	for _, g := range m.groups {
		n := len(out)
		out = fsdp.AppendGroup(out, len(spec.GroupBy), m.block[g.keyEnd:g.end], m.partials[g.part:int(g.part)+ncols])
		r.reply.Rows = append(r.reply.Rows, out[n:len(out):len(out)])
	}
	if len(out) != m.bytes {
		return fmt.Errorf("dp: aggregate entries charged %d bytes against the block weigh %d", m.bytes, len(out))
	}
	r.reply.Count = uint32(len(m.groups))
	clear(m.partials) // drop MIN/MAX strings
	clear(m.table)
	m.block, m.groups, m.partials, m.bytes = m.block[:0], m.groups[:0], m.partials[:0], 0
	return nil
}

// aggWidth is the fewest fields a record may have for spec: one past the
// largest ordinal it reads, which a narrower record is refused naming. The
// decoder has refused a negative one.
func aggWidth(spec *fsdp.AggSpec) int {
	w := 0
	for _, g := range spec.GroupBy {
		w = max(w, g+1)
	}
	for _, c := range spec.Cols {
		if !c.Star {
			w = max(w, c.Col+1)
		}
	}
	return w
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
	e, err := expr.Decode(req.Pred)
	if err != nil {
		return errReply(err)
	}
	pred := expr.Compile(e) // once per message: the conversation keeps nothing

	batch := d.newBatch(req.RowLimit)
	defer batch.tally()
	reply := &fsdp.Reply{Done: true}
	var rec record.View
	var block []byte // every matched key and record, cut out as visitGet cuts a virtual block
	var high []byte  // the probe's range's upper bound, one probe at a time
	// probe serves one probe's range.
	probe := func(rng keys.Range) error {
		return f.tree.ScanRecords(rng, cache.Keyed, func(run btree.Run) (bool, error) {
			for j := range run.Len() {
				batch.processed++
				val, starts := run.Record(j)
				rec.Point(val, starts)
				keep := true
				if pred != nil {
					batch.evals++
					var err error
					if keep, err = pred.Satisfied(&rec); err != nil {
						return false, err
					}
				}
				if !keep {
					batch.filtered++
					continue
				}
				// The run lends the key and record from the leaf's cache
				// buffer (btree.Run); the reply outlives the scan, so both
				// are copied into the message's block and cut out of it.
				b := append(append(block, run.Key(j)...), val...)
				keyEnd := len(b) - len(val)
				reply.RowKeys = append(reply.RowKeys, b[len(block):keyEnd:keyEnd])
				reply.Rows = append(reply.Rows, b[keyEnd:len(b):len(b)])
				block = b
				batch.bytes += len(val)
				batch.returned++
			}
			return true, nil
		})
	}
	probesDone := 0
	for _, prefix := range req.RowKeys {
		// The budget is checked between probes, never inside one, so
		// every message serves at least its first probe completely.
		if batch.full() {
			reply.Done = false
			break
		}
		high = keys.AppendPrefixSuccessor(high[:0], prefix)
		rng := keys.Range{Low: prefix, High: high} // keys.Prefix(prefix), its bound in scratch
		mark, rows, blockLen := batch, len(reply.Rows), len(block)
		if err := probe(rng); err != nil {
			return d.readFailed(err)
		}
		// Under a transaction every probed range is range-locked shared,
		// whether it matched or not, keeping the join's inner rows — and
		// their absence — stable to commit; and read again if the lock
		// waited, as a subset's span is (DP.subset): the probe's whole
		// range is locked, so the second read cannot wait.
		if req.Tx != 0 {
			rng.High = bytes.Clone(rng.High) // the lock keeps its range; the scratch is the next probe's
			waited, err := d.locks.Acquire(req.Tx, req.File, rng, lock.Shared)
			if err != nil {
				return errReply(err)
			}
			d.joinTx(req.Tx)
			if waited {
				batch, reply.Rows, reply.RowKeys, block = mark, reply.Rows[:rows], reply.RowKeys[:rows], block[:blockLen]
				if err := probe(rng); err != nil {
					return d.readFailed(err)
				}
			}
		}
		probesDone++
	}
	reply.Count = uint32(probesDone)
	reply.Examined = uint32(batch.processed)
	return reply
}
