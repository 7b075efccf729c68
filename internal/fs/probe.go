package fs

import (
	"fmt"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// This file is the File System half of batched probes (PROBE^BLOCK):
// instead of opening one conversation per lookup — the Figure 2 pattern
// that makes nested-loop index joins cost one message pair per outer
// row — the File System buckets the probe keys by serving partition and
// ships them in blocks. One message pair serves up to ProbeBatchSize
// probes; a reply that fills the block budget reports how many probes
// it completed and the remainder is re-sent (the conversation is
// stateless — no Subset Control Block).

// ProbeBatchSize is the number of probe keys carried per PROBE^BLOCK
// message.
const ProbeBatchSize = 32

// ProbePrefixes fetches every record whose key starts with one of the
// given prefixes, with the predicate evaluated at the Disk Process,
// batching probes per partition. Rows arrive grouped by partition, not
// in probe order — callers that care re-associate by key or value — and
// as the Disk Process encoded them, unvalidated, like Rows.NextRaw's.
func (f *FS) ProbePrefixes(tx *tmf.Tx, def *FileDef, prefixes [][]byte, pred expr.Expr) ([][]byte, ScanStats, error) {
	return f.probeFile(tx, def.Name, def.Partitions, prefixes, expr.Encode(pred))
}

// ReadByIndexBatch is ReadByIndex generalized to a block of values: one
// batched conversation per index partition for the index records, then
// one batched conversation per base partition for the base records —
// instead of one message pair per index partition per value plus one
// READ pair per base row.
func (f *FS) ReadByIndexBatch(tx *tmf.Tx, def *FileDef, idx *IndexDef, values []record.Value) ([][]byte, ScanStats, error) {
	prefixes := make([][]byte, 0, len(values))
	for _, v := range values {
		prefixes = append(prefixes, v.AppendKey(nil))
	}
	iraw, stats, err := f.probeFile(tx, idx.Name, idx.Partitions, prefixes, expr.Encode(nil))
	if err != nil {
		return nil, stats, err
	}
	baseKeys := make([][]byte, 0, len(iraw))
	var iv record.View
	for _, irec := range iraw {
		key, err := baseKey(def.Schema, &iv, irec)
		if err != nil {
			return nil, stats, err
		}
		baseKeys = append(baseKeys, key)
	}
	braw, bstats, err := f.probeFile(tx, def.Name, def.Partitions, baseKeys, expr.Encode(nil))
	stats.Spans = append(stats.Spans, bstats.Spans...)
	stats.recompute()
	stats.Lat.Add(bstats.Lat)
	stats.Wall += bstats.Wall
	if err != nil {
		return nil, stats, err
	}
	return braw, stats, nil
}

// probeFile buckets the probe prefixes by serving partition and drives
// one PROBE^BLOCK conversation per server, one server at a time. Within
// a server, probes run in the given order, in blocks of ProbeBatchSize;
// a partially-served block (reply budget filled) is re-sent from its
// first unserved probe.
func (f *FS) probeFile(tx *tmf.Tx, file string, parts []Partition, prefixes [][]byte, predEnc []byte) ([][]byte, ScanStats, error) {
	var (
		servers []partSpan
		buckets [][][]byte
		bySrv   = make(map[string]int)
	)
	for _, p := range prefixes {
		// A prefix range can straddle a partition boundary; each
		// spanning partition gets the probe and returns its share.
		for _, span := range partitionsFor(parts, keys.Prefix(p)) {
			i, ok := bySrv[span.server]
			if !ok {
				i = len(servers)
				bySrv[span.server] = i
				servers = append(servers, partSpan{server: span.server})
				buckets = append(buckets, nil)
			}
			buckets[i] = append(buckets[i], p)
		}
	}
	var o op
	o.init(f, tx, file, yieldRows, servers, nil)
	var out [][]byte
	err := o.run(1, func(c *conv) error {
		rest := buckets[c.i]
		block := func() *fsdp.Request {
			n := min(ProbeBatchSize, len(rest))
			if n == 0 {
				return nil
			}
			req := &fsdp.Request{Kind: fsdp.KProbeBlock, Tx: o.txID(), File: file,
				RowKeys: rest[:n], Pred: predEnc}
			rest = rest[n:]
			return req
		}
		// The conversation is stateless: what follows a reply is the
		// unserved remainder of its block, or the next block.
		c.cont = func(prev *fsdp.Request, reply *fsdp.Reply) *fsdp.Request {
			if reply.Done {
				return block()
			}
			req := *prev
			req.RowKeys = prev.RowKeys[reply.Count:]
			return &req
		}
		return c.drive(block(), func(reply *fsdp.Reply) error {
			if !reply.Done && reply.Count == 0 {
				// The DP always serves at least the block's first probe;
				// a zero-progress reply would loop forever.
				return fmt.Errorf("fs: PROBE^BLOCK made no progress on %s", c.span().server)
			}
			out = append(out, reply.Rows...)
			return nil
		})
	})
	return out, o.stats, err
}
