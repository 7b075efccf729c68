package enscribe

import (
	"errors"
	"fmt"

	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// A Cursor is READNEXT's position in one open: the range still to read,
// the records de-blocked from the last reply, and the partition
// conversation it is in.
type Cursor struct {
	e        *File
	pos      keys.Range
	buffered []record.Row
	bufKeys  [][]byte
	scb      uint32
	srvIdx   int
	spans    []spanState
	done     bool
}

type spanState struct {
	server string
	r      keys.Range
}

// KeyPosition positions a cursor at the first record with key >= key
// (nil = first record).
func (e *File) KeyPosition(key []byte) *Cursor {
	return &Cursor{e: e, pos: keys.Range{Low: key}}
}

// ReadNext returns the next sequential record from the cursor. Without
// SBB each call is one FS-DP message pair; with SBB the File System
// de-blocks from its local block copy and only every blocking-factor-th
// call sends a message.
func (c *Cursor) ReadNext(tx *tmf.Tx) (record.Row, []byte, error) {
	for {
		if len(c.buffered) > 0 {
			row := c.buffered[0]
			key := c.bufKeys[0]
			c.buffered = c.buffered[1:]
			c.bufKeys = c.bufKeys[1:]
			return row, key, nil
		}
		if err := c.fetch(tx); err != nil {
			return nil, nil, err
		}
	}
}

var errEOF = errors.New("enscribe: end of file")

// EOF reports whether err is the end-of-file condition.
func EOF(err error) bool { return errors.Is(err, errEOF) }

func (c *Cursor) fetch(tx *tmf.Tx) error {
	e := c.e
	if c.spans == nil {
		c.spans = e.partsFor(c.pos)
		c.srvIdx = 0
		c.done = true // no request in flight yet
	}
	for {
		if c.srvIdx >= len(c.spans) {
			return errEOF
		}
		span := &c.spans[c.srvIdx]
		req := &fsdp.Request{File: e.def.Name, Range: span.r}
		if c.done {
			req.Kind = fsdp.KGetFirstRSBB
		} else {
			req.Kind = fsdp.KGetNextRSBB
			req.SCB = c.scb
		}
		if !e.sbb {
			req.RowLimit = 1 // record-at-a-time
		}
		if tx != nil {
			req.Tx = tx.ID
		}
		reply, err := e.sendTx(tx, span.server, req)
		if err != nil {
			return err
		}
		if !reply.OK() {
			return fmt.Errorf("enscribe: readnext: %s", reply.Err)
		}
		for _, raw := range reply.Rows {
			row, err := record.Decode(raw)
			if err != nil {
				return err
			}
			c.buffered = append(c.buffered, row)
		}
		c.bufKeys = append(c.bufKeys, reply.RowKeys...)
		if reply.Done {
			c.srvIdx++
			c.done = true
		} else {
			span.r = span.r.Continue(reply.LastKey)
			c.scb = reply.SCB
			c.done = false
		}
		if len(c.buffered) > 0 {
			return nil
		}
	}
}

// partsFor clips r to each partition's key span.
func (e *File) partsFor(r keys.Range) []spanState {
	parts := e.def.Partitions
	var out []spanState
	for i, p := range parts {
		span := keys.Range{Low: p.LowKey}
		if i+1 < len(parts) {
			span.High = parts[i+1].LowKey
		}
		eff := span.Intersect(r)
		if eff.Empty() {
			continue
		}
		out = append(out, spanState{server: p.Server, r: eff})
	}
	return out
}

// Delete removes a record.
func (e *File) Delete(tx *tmf.Tx, key []byte) error {
	return e.fs.Delete(tx, e.def, key)
}

// LockRecord takes an explicit record lock.
func (e *File) LockRecord(tx *tmf.Tx, key []byte, exclusive bool) error {
	mode := uint8(1)
	if exclusive {
		mode = 2
	}
	p := e.partitionFor(key)
	reply, err := e.sendTx(tx, p, &fsdp.Request{
		Kind: fsdp.KLockRecord, Tx: tx.ID, File: e.def.Name, Key: key, Mode: mode,
	})
	if err != nil {
		return err
	}
	if !reply.OK() {
		return fmt.Errorf("enscribe: lockrecord: %s", reply.Err)
	}
	return nil
}

func (e *File) partitionFor(key []byte) string {
	parts := e.def.Partitions
	chosen := parts[0].Server
	for _, p := range parts[1:] {
		if p.LowKey != nil && keys.Compare(p.LowKey, key) <= 0 {
			chosen = p.Server
		} else {
			break
		}
	}
	return chosen
}
