package dp

import (
	"sort"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/lock"
	"nonstopsql/internal/record"
)

// aggGroup is one GROUP BY group's accumulation for the current message.
type aggGroup struct {
	keyBytes []byte
	keyVals  record.Row
	partials []fsdp.AggPartial
}

// aggregate serves AGG^FIRST/NEXT: the Disk Process folds the subset's
// qualifying records through the decomposable aggregate program and
// replies with one compact partial state per group — rows never cross
// the interface. Groups are per-message: each reply carries the groups
// this message's records touched, and the File System merges partials
// across re-drives and partitions, so the Disk Process's memory stays
// bounded by the per-message row budget, not the group count.
var aggregate = &subsetKind{first: fsdp.KAggFirst, needsRow: true,
	open: func(r *subsetRun) (err error) {
		r.s.agg, err = fsdp.DecodeAggSpec(r.req.Agg)
		return err
	},
	visit:  visitAgg,
	finish: finishAgg,
}

func visitAgg(r *subsetRun, _, _ []byte, row record.Row) (bool, error) {
	spec := r.s.agg
	kb := r.kb[:0]
	for _, g := range spec.GroupBy {
		if g >= len(row) {
			return false, errBadOrdinal(r.req.File, g)
		}
		kb = row[g].AppendKey(kb)
	}
	r.kb = kb
	gr, ok := r.groups[string(kb)]
	if !ok {
		keyVals := make(record.Row, len(spec.GroupBy))
		for i, g := range spec.GroupBy {
			keyVals[i] = row[g]
		}
		gr = &aggGroup{
			keyBytes: append([]byte(nil), kb...),
			keyVals:  keyVals,
			partials: make([]fsdp.AggPartial, len(spec.Cols)),
		}
		if r.groups == nil {
			r.groups = make(map[string]*aggGroup)
		}
		r.groups[string(kb)] = gr
		// A new group grows the reply by its key plus the fixed-size
		// partial states; charge that against the block budget.
		r.batch.bytes += len(kb) + 16*(len(spec.GroupBy)+len(spec.Cols))
	}
	for i, c := range spec.Cols {
		if c.Star {
			gr.partials[i].Count++
			continue
		}
		if c.Col >= len(row) {
			return false, errBadOrdinal(r.req.File, c.Col)
		}
		v := row[c.Col]
		if v.IsNull() {
			continue // SQL aggregates ignore NULLs
		}
		gr.partials[i].Feed(c.Fn, v)
	}
	return true, nil
}

// finishAgg ships the groups in key-byte order: deterministic replies
// make the conversation reproducible message-for-message.
func finishAgg(r *subsetRun) error {
	ordered := make([]*aggGroup, 0, len(r.groups))
	for _, gr := range r.groups {
		ordered = append(ordered, gr)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return string(ordered[i].keyBytes) < string(ordered[j].keyBytes)
	})
	for _, gr := range ordered {
		r.reply.Rows = append(r.reply.Rows, fsdp.EncodeGroup(gr.keyVals, gr.partials))
	}
	r.reply.Count = uint32(len(ordered))
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
			keep := true
			if pred != nil {
				row, err := record.Decode(val)
				if err != nil {
					return false, err
				}
				d.stats.predicateEvals.Add(1)
				if keep, err = expr.Satisfied(pred, row); err != nil {
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
