package dp

import (
	"bytes"
	"fmt"
	"math"
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

// aggregate serves AGG^FIRST/NEXT: the Disk Process folds the subset's
// qualifying records through the decomposable aggregate program and
// replies with one compact partial state per group — rows never cross
// the interface. The groups belong to the conversation, not the message:
// they ride on its Subset Control Block (scb.groups, an fsdp.GroupTable)
// from one message to the next, folding in every qualifying record. A
// message that ends on the row or time budget replies with LastKey and
// no entries, and the entries ship only on the full sequential block
// buffer condition — measured in the bytes they will occupy — or when the
// range is exhausted; then they leave in one piece and the table is
// emptied, its capacity kept. The File System merges what arrives across
// blocks and partitions, so the Disk Process's memory stays bounded by
// one reply block however many records or groups the subset has, a group
// the conversation already holds costs no allocation and no reply bytes
// when a later message meets it again, and a subset costs messages in
// proportion to its rows over the row budget plus its groups over the
// block, not one per block of new group keys. Nothing here outlives the
// SCB: when it is retired — Done, CLOSE^SUBSET, a failed message, the
// transaction's end, a crash — the half-built aggregate goes with it.
var aggregate = &subsetKind{first: fsdp.KAggFirst,
	open: func(r *subsetRun) error {
		if err := fsdp.DecodeAggSpecInto(&r.s.agg, r.req.Agg); err != nil {
			return badRequest(err.Error())
		}
		r.s.groups.Reset(len(r.s.agg.Cols))
		r.s.width = aggWidth(&r.s.agg)
		return nil
	},
	reads:  true,
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
	s, rec := r.s, &r.rec
	spec, t := &s.agg, &s.groups
	if rec.Len() < s.width {
		return false, badRequest("dp: aggregate field ordinal " + strconv.Itoa(s.width-1) + " out of range for " + r.req.File)
	}
	var g int
	var held bool
	if gb := spec.GroupBy; len(gb) == 1 && rec.Kind(gb[0]) == record.TypeInt {
		if g, held = t.LookupInt(rec.Int(gb[0])); !held {
			s.kb = rec.AppendKey(s.kb[:0], gb[0])
		}
	} else {
		kb := s.kb[:0]
		for _, f := range spec.GroupBy {
			kb = rec.AppendKey(kb, f)
		}
		s.kb = kb
		g, held = t.Lookup(kb)
	}
	// The block budget is charged what the entries weigh: a new group its
	// whole entry, a group already held only what this record grew it by
	// (a varint's next byte, a longer MIN/MAX string) — usually nothing,
	// and the partials say so as they fold, so no entry is weighed twice.
	grew := 0
	if !held {
		g, grew = r.addGroup()
	}
	partials := t.Partials(g)
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
	s.weight += grew
	r.batch.bytes = s.weight
	return true, nil
}

// addGroup adds the group whose key bytes are s.kb, its key values the
// group-by fields of r.rec, and returns it and what its entry weighs.
func (r *subsetRun) addGroup() (g, weight int) {
	s, t := r.s, &r.s.groups
	fields := s.fields[:0]
	for _, f := range s.agg.GroupBy {
		fields = r.rec.AppendField(fields, f)
	}
	s.fields = fields
	g = t.Add(s.kb, fields)
	return g, fsdp.GroupLen(len(s.agg.GroupBy), len(fields), t.Partials(g))
}

// foldColumns reports whether the run's qualifying records can be folded
// from columns: one group-by field, and it and every aggregate's field
// columns in the run's leaf. Then it lends keyK, keyV, foldK and foldV the
// columns. Every field the fold reads is then one every record of the
// leaf has, so no record is narrower than the specification (visitAgg's
// first refusal), and none is a VARCHAR or a BOOLEAN, so no SUM fails.
func (r *subsetRun) foldColumns() bool {
	spec := &r.s.agg
	if len(spec.GroupBy) != 1 || rowPath.Load() {
		return false
	}
	var ok bool
	if r.keyK, r.keyV, ok = r.run.Column(spec.GroupBy[0], numericField); !ok {
		return false
	}
	n := len(spec.Cols)
	r.foldK, r.foldV = slices.Grow(r.foldK[:0], n)[:n], slices.Grow(r.foldV[:0], n)[:n]
	for i := range spec.Cols {
		c := &spec.Cols[i]
		if c.Star {
			r.foldK[i], r.foldV[i] = nil, nil
			continue
		}
		if r.foldK[i], r.foldV[i], ok = r.run.Column(c.Col, numericField); !ok {
			return false
		}
	}
	return true
}

// foldAt is visitAgg for qualifying record j of a run foldColumns
// accepted, read from its columns: an INTEGER key is probed by its int64,
// and COUNT, SUM, MIN and MAX fold the column entries. The record is
// pointed at only for a new group, whose key values are its fields'
// bytes; a NULL or FLOAT key goes to visitAgg, the byte path, whole.
func (r *subsetRun) foldAt(j int) error {
	if record.Type(r.keyK[j]) != record.TypeInt {
		r.rec.Point(r.run.Record(j))
		_, err := visitAgg(r, j)
		return err
	}
	s := r.s
	spec, t := &s.agg, &s.groups
	key := int64(r.keyV[j])
	g, held := t.LookupInt(key)
	grew := 0
	if !held {
		r.rec.Point(r.run.Record(j))
		s.kb = keys.AppendInt64(s.kb[:0], key)
		g, grew = r.addGroup()
	}
	partials := t.Partials(g)
	for i := range partials {
		c, p := &spec.Cols[i], &partials[i]
		if c.Star {
			grew += p.AddCount()
			continue
		}
		switch kind, bits := record.Type(r.foldK[i][j]), r.foldV[i][j]; {
		case kind == 0: // SQL aggregates ignore NULLs
		case c.Fn == fsdp.AggCount:
			grew += p.AddCount()
		case c.Fn == fsdp.AggSum && kind == record.TypeInt:
			grew += p.AddInt(int64(bits))
		case c.Fn == fsdp.AggSum:
			grew += p.AddFloat(math.Float64frombits(bits))
		case kind == record.TypeInt: // MIN, MAX
			grew += p.Feed(c.Fn, record.Int(int64(bits)))
		default:
			grew += p.Feed(c.Fn, record.Float(math.Float64frombits(bits)))
		}
	}
	s.weight += grew
	r.batch.bytes = s.weight
	return nil
}

// finishAgg ships the conversation's groups when the block is full or the
// range is exhausted, and otherwise leaves them on the SCB for the
// re-drive. They ship in key-byte order: deterministic replies make the
// conversation reproducible message-for-message. Every entry is appended
// to the message's block and cut out of it.
func finishAgg(r *subsetRun) error {
	s, t := r.s, &r.s.groups
	if !r.reply.Done && s.weight < r.d.cfg.MaxReplyBytes {
		return nil // the row or time budget ended the message
	}
	t.Sort()
	nkeys := len(s.agg.GroupBy)
	out := slices.Grow(r.block[:0], s.weight)
	for g := range t.Len() {
		n := len(out)
		out = fsdp.AppendGroup(out, nkeys, t.Fields(g), t.Partials(g))
		r.reply.Rows = append(r.reply.Rows, out[n:len(out):len(out)])
	}
	r.block = out
	if len(out) != s.weight {
		return fmt.Errorf("dp: aggregate entries charged %d bytes against the block weigh %d", s.weight, len(out))
	}
	r.reply.Count = uint32(t.Len())
	t.Reset(len(s.agg.Cols))
	s.weight = 0
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
			if err := d.join(req.Tx); err != nil {
				return errReply(err)
			}
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
