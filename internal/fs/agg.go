package fs

import (
	"sync"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
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

// Agg evaluates the aggregate specification over the range at the Disk
// Processes and merges the groups they ship into groups (Reset first; the
// caller's, and its to sort and read), returning the operation's
// ScanStats. The per-partition conversations fan out with the FS default
// degree of parallelism (SetScanParallel) and run their messages in
// arenas, one per conversation that runs at once, as a scan's do
// (SelectSpec.Arenas); merging is commutative, so arrival order does not
// matter. A group new to groups is copied out of the reply that carried
// it; one it holds merges the entry's partials in place.
func (f *FS) Agg(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr, spec *fsdp.AggSpec, groups *fsdp.GroupTable, arenas []fsdp.Arena) (ScanStats, error) {
	var o op
	o.init(f, tx, def.Name, yieldRows, partitionsFor(def.Partitions, rng), arenas)
	first := fsdp.Request{Kind: fsdp.KAggFirst, Tx: o.txID(), File: def.Name,
		Pred: expr.Encode(pred), Agg: fsdp.EncodeAggSpec(spec), Hint: hintFor(rng)}
	groups.Reset(len(spec.Cols))
	var mu sync.Mutex // guards groups
	err := o.run(f.scanDOP, func(c *conv) error {
		req := first
		req.Range = c.span().r
		return c.drive(&req, func(reply *fsdp.Reply) error {
			mu.Lock()
			defer mu.Unlock()
			for _, entry := range reply.Rows {
				if err := groups.Merge(entry, spec.Cols); err != nil {
					return err
				}
			}
			return nil
		})
	})
	return o.stats, err
}
