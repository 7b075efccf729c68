package fs

import (
	"strings"
	"sync"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// This file is the File System half of partial-aggregate pushdown
// (AGG^FIRST/NEXT): fan the conversation out across the file's
// partitions, then merge the per-group partial states the Disk
// Processes ship back. Rows never cross the interface, and a Disk
// Process keeps a conversation's groups on its Subset Control Block from
// message to message: a re-drive's reply carries no entries unless a
// reply block filled with them, and the groups arrive when the block is
// full or the range is done. So a GROUP BY costs each partition its rows
// over the per-message row budget plus its groups over the reply block
// in messages, and a group crosses once per block that carried it — not
// once per message that met it. The merge below does not care which
// reply carries which group, or how often.

// AggGroup is one merged group: its GROUP BY key values and one partial
// state per AggSpec column.
type AggGroup struct {
	KeyVals  record.Row
	Partials []fsdp.AggPartial
}

// Agg evaluates the aggregate specification over the range at the Disk
// Processes and returns the merged groups keyed by the group key's
// order-preserving byte encoding, plus the operation's ScanStats. The
// per-partition conversations fan out with the FS default degree of
// parallelism (SetScanParallel); merging is commutative, so arrival
// order does not matter.
func (f *FS) Agg(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr, spec *fsdp.AggSpec) (map[string]*AggGroup, ScanStats, error) {
	var o op
	o.init(f, tx, def.Name, "AGG^FIRST/NEXT", yieldEntries, partitionsFor(def.Partitions, rng))
	first := fsdp.Request{Kind: fsdp.KAggFirst, Tx: o.txID(), File: def.Name,
		Pred: expr.Encode(pred), Agg: fsdp.EncodeAggSpec(spec), Hint: hintFor(rng)}
	groups := make(map[string]*AggGroup)
	var mu sync.Mutex // guards groups
	err := o.run(f.scanDOP, func(c *conv) error {
		req := first
		req.Range = c.span().r
		// Per-conversation scratch: every entry decodes into it, borrowing
		// the reply's bytes; only a group new to this requester is copied out.
		var (
			kb       []byte
			keyVals  record.Row
			partials []fsdp.AggPartial
		)
		return c.drive(&req, func(reply *fsdp.Reply) (err error) {
			mu.Lock()
			defer mu.Unlock()
			for _, entry := range reply.Rows {
				if keyVals, partials, err = fsdp.DecodeGroup(entry, len(spec.Cols), keyVals, partials); err != nil {
					return err
				}
				kb = kb[:0]
				for _, v := range keyVals {
					kb = v.AppendKey(kb)
				}
				g, ok := groups[string(kb)]
				if !ok {
					g = &AggGroup{KeyVals: keyVals.Clone(), Partials: append([]fsdp.AggPartial(nil), partials...)}
					for i := range g.KeyVals {
						g.KeyVals[i].S = strings.Clone(g.KeyVals[i].S)
					}
					for i := range g.Partials {
						g.Partials[i].Val.S = strings.Clone(g.Partials[i].Val.S)
					}
					groups[string(kb)] = g
					continue
				}
				for i := range g.Partials {
					g.Partials[i].Merge(spec.Cols[i].Fn, partials[i])
				}
			}
			return nil
		})
	})
	return groups, o.stats, err
}
