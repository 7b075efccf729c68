package fs

import (
	"bytes"
	"fmt"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// A BlockedInserter implements the paper's proposed blocked sequential
// insert interface: the File System accumulates sequential inserts in a
// local buffer and ships them to the Disk Process in one INSERT^BLOCK
// message per buffer, reducing message traffic by the blocking factor.
// To avoid a late-detected duplicate key, the target key range is locked
// by prior agreement (KLockRange) before buffering begins.
type BlockedInserter struct {
	fs      *FS
	tx      *tmf.Tx
	def     *FileDef
	factor  int // rows per message
	pending []record.Row
	locked  map[string]bool // partitions already range-locked
}

// NewBlockedInserter creates a buffered inserter. factor is the blocking
// factor (rows per INSERT^BLOCK message; default 16). rng is the
// sequential target key range the caller promises to confine inserts
// to; it is locked exclusively at every covered partition up front.
func (f *FS) NewBlockedInserter(tx *tmf.Tx, def *FileDef, rng keys.Range, factor int) (*BlockedInserter, error) {
	if factor <= 0 {
		factor = 16
	}
	if len(def.Indexes) > 0 {
		return nil, fmt.Errorf("fs: blocked insert into indexed file %q not supported", def.Name)
	}
	b := &BlockedInserter{fs: f, tx: tx, def: def, factor: factor, locked: make(map[string]bool)}
	for _, span := range partitionsFor(def.Partitions, rng) {
		reply, err := f.sendTx(nil, tx, span.server, &fsdp.Request{
			Kind: fsdp.KLockRange, Tx: tx.ID, File: def.Name, Range: span.r, Mode: 2,
		})
		if err != nil {
			return nil, err
		}
		if err := replyErr(reply); err != nil {
			return nil, err
		}
		b.locked[span.server] = true
	}
	return b, nil
}

// Add buffers one row, flushing a full block.
func (b *BlockedInserter) Add(row record.Row) error {
	b.def.Schema.Coerce(row)
	if err := b.def.Schema.Validate(row); err != nil {
		return err
	}
	b.pending = append(b.pending, row)
	if len(b.pending) >= b.factor {
		return b.Flush()
	}
	return nil
}

// Flush ships buffered rows, one INSERT^BLOCK per partition touched.
func (b *BlockedInserter) Flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	// Group rows by partition, preserving order.
	groups := make(map[string][][]byte)
	var order []string
	for _, row := range b.pending {
		key := b.def.Schema.Key(row)
		p := partitionFor(b.def.Partitions, key)
		if _, ok := groups[p.Server]; !ok {
			order = append(order, p.Server)
		}
		groups[p.Server] = append(groups[p.Server], record.Encode(row))
	}
	b.pending = b.pending[:0]
	for _, server := range order {
		reply, err := b.fs.sendTx(nil, b.tx, server, &fsdp.Request{
			Kind: fsdp.KInsertBlock, Tx: b.tx.ID, File: b.def.Name, Rows: groups[server],
		})
		if err != nil {
			return err
		}
		if err := replyErr(reply); err != nil {
			return err
		}
	}
	return nil
}

// A Cursor scans a file and supports update-where-current and
// delete-where-current. With buffering enabled (the paper's proposal),
// the updates and deletes accumulate in a File System buffer and travel
// in one UPDATE^BLOCK / DELETE^BLOCK message per buffer-full instead of
// one message per record.
type Cursor struct {
	rows   *Rows
	fs     *FS
	tx     *tmf.Tx
	def    *FileDef
	factor int // 0 or 1 = unbuffered (a message per record)

	curKey []byte
	curRow record.Row

	pendUpdKeys [][]byte
	pendUpdRows [][]byte
	pendDelKeys [][]byte
}

// OpenCursor starts a cursor over the range. bufferFactor > 1 enables
// buffered where-current operations.
func (f *FS) OpenCursor(tx *tmf.Tx, def *FileDef, rng keys.Range, pred expr.Expr, bufferFactor int) (*Cursor, error) {
	if len(def.Indexes) > 0 && bufferFactor > 1 {
		return nil, fmt.Errorf("fs: buffered cursor on indexed file %q not supported", def.Name)
	}
	rows := f.Select(tx, def, SelectSpec{Mode: ModeVSBB, Range: rng, Pred: pred, Exclusive: true})
	return &Cursor{rows: rows, fs: f, tx: tx, def: def, factor: bufferFactor}, nil
}

// Next advances to the next record.
func (c *Cursor) Next() (record.Row, bool) {
	row, key, ok := c.rows.Next()
	if !ok {
		return nil, false
	}
	c.curKey, c.curRow = key, row
	return row, true
}

// Err returns the scan error, if any.
func (c *Cursor) Err() error { return c.rows.Err() }

// UpdateCurrent replaces the current record with newRow.
func (c *Cursor) UpdateCurrent(newRow record.Row) error {
	if c.curKey == nil {
		return fmt.Errorf("fs: cursor not positioned")
	}
	c.def.Schema.Coerce(newRow)
	if err := c.def.Schema.Validate(newRow); err != nil {
		return err
	}
	if !bytes.Equal(c.def.Schema.Key(newRow), c.curKey) {
		return fmt.Errorf("fs: update-where-current may not change the key")
	}
	if c.factor <= 1 {
		return c.fs.Update(c.tx, c.def, c.curKey, newRow)
	}
	c.pendUpdKeys = append(c.pendUpdKeys, c.curKey)
	c.pendUpdRows = append(c.pendUpdRows, record.Encode(newRow))
	if len(c.pendUpdKeys) >= c.factor {
		return c.flushUpdates()
	}
	return nil
}

// DeleteCurrent removes the current record.
func (c *Cursor) DeleteCurrent() error {
	if c.curKey == nil {
		return fmt.Errorf("fs: cursor not positioned")
	}
	if c.factor <= 1 {
		return c.fs.Delete(c.tx, c.def, c.curKey)
	}
	c.pendDelKeys = append(c.pendDelKeys, c.curKey)
	if len(c.pendDelKeys) >= c.factor {
		return c.flushDeletes()
	}
	return nil
}

// Close flushes buffered operations.
func (c *Cursor) Close() error {
	if err := c.flushUpdates(); err != nil {
		return err
	}
	return c.flushDeletes()
}

func (c *Cursor) flushUpdates() error {
	if len(c.pendUpdKeys) == 0 {
		return nil
	}
	byServer := make(map[string]*fsdp.Request)
	var order []string
	for i, key := range c.pendUpdKeys {
		p := partitionFor(c.def.Partitions, key)
		req, ok := byServer[p.Server]
		if !ok {
			req = &fsdp.Request{Kind: fsdp.KUpdateBlock, Tx: c.tx.ID, File: c.def.Name}
			byServer[p.Server] = req
			order = append(order, p.Server)
		}
		req.RowKeys = append(req.RowKeys, key)
		req.Rows = append(req.Rows, c.pendUpdRows[i])
	}
	c.pendUpdKeys, c.pendUpdRows = nil, nil
	for _, server := range order {
		reply, err := c.fs.sendTx(nil, c.tx, server, byServer[server])
		if err != nil {
			return err
		}
		if err := replyErr(reply); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cursor) flushDeletes() error {
	if len(c.pendDelKeys) == 0 {
		return nil
	}
	byServer := make(map[string]*fsdp.Request)
	var order []string
	for _, key := range c.pendDelKeys {
		p := partitionFor(c.def.Partitions, key)
		req, ok := byServer[p.Server]
		if !ok {
			req = &fsdp.Request{Kind: fsdp.KDeleteBlock, Tx: c.tx.ID, File: c.def.Name}
			byServer[p.Server] = req
			order = append(order, p.Server)
		}
		req.RowKeys = append(req.RowKeys, key)
	}
	c.pendDelKeys = nil
	for _, server := range order {
		reply, err := c.fs.sendTx(nil, c.tx, server, byServer[server])
		if err != nil {
			return err
		}
		if err := replyErr(reply); err != nil {
			return err
		}
	}
	return nil
}
