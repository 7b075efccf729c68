package fs

import (
	"fmt"

	"nonstopsql/internal/expr"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// Insert stores one record, maintaining every secondary index. Message
// cost: 1 + number of indexes. With an arena the record's message and its
// reply are built in it; with nil they are allocated. The row is read,
// not kept.
func (f *FS) Insert(ar *fsdp.Arena, tx *tmf.Tx, def *FileDef, row record.Row) error {
	def.Schema.Coerce(row)
	if err := def.Schema.Validate(row); err != nil {
		return err
	}
	var kb [64]byte
	p := partitionFor(def.Partitions, def.Schema.AppendKey(kb[:0], row))
	reply, err := f.sendTx(ar, tx, p.Server, &fsdp.Request{
		Kind: fsdp.KInsertRecord, Tx: tx.ID, File: def.Name, Row: ar.Keep(record.AppendEncode(ar.Free(), row)),
	})
	if err != nil {
		return err
	}
	if err := replyErr(reply); err != nil {
		return err
	}
	for _, idx := range def.Indexes {
		if err := f.insertIndexEntry(tx, def, idx, row); err != nil {
			return err
		}
	}
	return nil
}

func (f *FS) insertIndexEntry(tx *tmf.Tx, def *FileDef, idx *IndexDef, row record.Row) error {
	irow := indexRow(def.Schema, idx, row)
	ikey := idx.schema.Key(irow)
	p := partitionFor(idx.Partitions, ikey)
	reply, err := f.sendTx(nil, tx, p.Server, &fsdp.Request{
		Kind: fsdp.KInsertRecord, Tx: tx.ID, File: idx.Name, Row: record.Encode(irow),
	})
	if err != nil {
		return err
	}
	return replyErr(reply)
}

func (f *FS) deleteIndexEntry(tx *tmf.Tx, def *FileDef, idx *IndexDef, row record.Row) error {
	irow := indexRow(def.Schema, idx, row)
	ikey := idx.schema.Key(irow)
	p := partitionFor(idx.Partitions, ikey)
	reply, err := f.sendTx(nil, tx, p.Server, &fsdp.Request{
		Kind: fsdp.KDeleteRecord, Tx: tx.ID, File: idx.Name, Key: ikey,
	})
	if err != nil {
		return err
	}
	return replyErr(reply)
}

// sendTx sends and registers the server as a transaction participant.
// The server joins even when the reply carries an application error
// (duplicate key, constraint violation): the Disk Process may have
// acquired locks or written audit before failing, and only a commit or
// abort addressed to it releases them.
func (f *FS) sendTx(ar *fsdp.Arena, tx *tmf.Tx, server string, req *fsdp.Request) (*fsdp.Reply, error) {
	reply, err := f.sendIn(ar, server, req)
	if err == nil && tx != nil && req.Tx != 0 {
		if jerr := tx.Join(server); jerr != nil {
			return reply, jerr
		}
	}
	return reply, err
}

// Read fetches one record by primary key. tx may be nil for browse
// (lock-free) access; forUpdate takes an exclusive record lock.
func (f *FS) Read(tx *tmf.Tx, def *FileDef, key []byte, forUpdate bool) (record.Row, error) {
	enc, err := f.ReadRaw(nil, tx, def, key, forUpdate)
	if err != nil {
		return nil, err
	}
	return record.Decode(enc)
}

// ReadRaw is Read less the decoding: the record as the Disk Process
// encoded it, unvalidated (see Rows.NextRaw). With an arena the READ and
// its reply are built in it and the record is a slice of it; with nil
// both are allocated and the record is the caller's.
func (f *FS) ReadRaw(ar *fsdp.Arena, tx *tmf.Tx, def *FileDef, key []byte, forUpdate bool) ([]byte, error) {
	p := partitionFor(def.Partitions, key)
	server := p.Server
	req := &fsdp.Request{Kind: fsdp.KReadRecord, File: def.Name, Key: key}
	if tx != nil {
		req.Tx = tx.ID
		if forUpdate {
			req.Mode = 2
		}
	} else if f.followerReads {
		// Browse access never locks, so the partition's backup can
		// serve it — including through a primary takeover.
		server += fsdp.BackupSuffix
	}
	reply, err := f.sendTx(ar, tx, server, req)
	if err != nil {
		return nil, err
	}
	if err := replyErr(reply); err != nil {
		return nil, err
	}
	if len(reply.Rows) != 1 {
		// Not a reply a Disk Process gives a READ: a relay, a confused
		// backup, or hostile bytes on the wire transport.
		return nil, fmt.Errorf("%w: READ %s from %s answered OK with %d records", ErrProtocol, def.Name, server, len(reply.Rows))
	}
	return reply.Rows[0], nil
}

// ReadByIndex implements Figure 2's first hop generalized to reads: one
// message to the index's Disk Process for the index record(s), then one
// READ per base record to the base file's Disk Process. The base records
// come back as the Disk Process encoded them, unvalidated, like ReadRaw's.
func (f *FS) ReadByIndex(tx *tmf.Tx, def *FileDef, idx *IndexDef, value record.Value) ([][]byte, error) {
	var o op
	o.init(f, tx, idx.Name, "GET^FIRST/NEXT^VSBB", yieldRecords,
		partitionsFor(idx.Partitions, keys.Prefix(value.AppendKey(nil))))
	var out [][]byte
	var iv record.View
	err := o.run(1, func(c *conv) error {
		first := &fsdp.Request{Kind: fsdp.KGetFirstVSBB, Tx: o.txID(), File: idx.Name, Range: c.span().r}
		return c.drive(first, func(reply *fsdp.Reply) error {
			for _, raw := range reply.Rows {
				// Extract the base key from the index record and fetch
				// the base record from its own Disk Process.
				key, err := baseKey(def.Schema, &iv, raw)
				if err != nil {
					return err
				}
				rec, err := f.ReadRaw(nil, tx, def, key, false)
				if err != nil {
					return err
				}
				out = append(out, rec)
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// baseKey rebuilds the base primary key from an index record (fields
// 1..n are the base key columns in key order), read through iv.
func baseKey(base *record.Schema, iv *record.View, irec []byte) ([]byte, error) {
	if err := iv.Reset(irec); err != nil {
		return nil, err
	}
	if iv.Len() <= len(base.KeyFields) {
		return nil, fmt.Errorf("%w: index record of %d fields for a %d-column key", ErrProtocol, iv.Len(), len(base.KeyFields))
	}
	var key []byte
	for i := range base.KeyFields {
		key = iv.AppendKey(key, 1+i)
	}
	return key, nil
}

// Update rewrites one record by primary key with full index
// maintenance: indexes whose column changed get a delete+insert.
func (f *FS) Update(tx *tmf.Tx, def *FileDef, key []byte, newRow record.Row) error {
	def.Schema.Coerce(newRow)
	var oldRow record.Row
	if len(def.Indexes) > 0 {
		var err error
		oldRow, err = f.Read(tx, def, key, true)
		if err != nil {
			return err
		}
	}
	p := partitionFor(def.Partitions, key)
	reply, err := f.sendTx(nil, tx, p.Server, &fsdp.Request{
		Kind: fsdp.KUpdateRecord, Tx: tx.ID, File: def.Name, Key: key, Row: record.Encode(newRow),
	})
	if err != nil {
		return err
	}
	if err := replyErr(reply); err != nil {
		return err
	}
	for _, idx := range def.Indexes {
		if oldRow[idx.Column].Equal(newRow[idx.Column]) {
			continue
		}
		if err := f.deleteIndexEntry(tx, def, idx, oldRow); err != nil {
			return err
		}
		if err := f.insertIndexEntry(tx, def, idx, newRow); err != nil {
			return err
		}
	}
	return nil
}

// UpdateFields applies SET expressions to one record. When no indexed
// column is assigned, the update expression is subcontracted to the Disk
// Process — one UPDATE^KEY message, no record returned (the paper's key
// point for updates). Otherwise the File System must read-modify-write
// with index maintenance. A missing record is ErrNotFound either way.
func (f *FS) UpdateFields(tx *tmf.Tx, def *FileDef, key []byte, assigns []expr.Assignment) error {
	if def.AssignsTouchIndexes(assigns) {
		oldRow, err := f.Read(tx, def, key, true)
		if err != nil {
			return err
		}
		newRow, err := expr.ApplyAssignments(oldRow, assigns)
		if err != nil {
			return err
		}
		return f.Update(tx, def, key, newRow)
	}
	n, err := f.UpdateKey(nil, tx, def, key, nil, assigns)
	if err == nil && n == 0 {
		err = fmt.Errorf("%w: %s", ErrNotFound, def.Name)
	}
	return err
}

// UpdateKey is the keyed write: one UPDATE^KEY to the key's partition,
// which locks the key, and applies assigns to its record there when the
// record satisfies pred (nil: whenever it is there). It returns the
// records changed, 1 or 0. No index entry is maintained: the caller sends
// it only when no assigned column is indexed or part of the key. With an
// arena the predicate, the SET list, the message and its reply are built
// in it; with nil they are allocated.
func (f *FS) UpdateKey(ar *fsdp.Arena, tx *tmf.Tx, def *FileDef, key []byte, pred expr.Expr, assigns []expr.Assignment) (int, error) {
	return f.writeKey(ar, tx, def, &fsdp.Request{Kind: fsdp.KUpdateKey, Key: key,
		Pred:   ar.Keep(expr.AppendEncode(ar.Free(), pred)),
		Assign: ar.Keep(expr.AppendEncodeAssignments(ar.Free(), assigns))})
}

// DeleteKey is UpdateKey's DELETE^KEY, for a file without secondary
// indexes.
func (f *FS) DeleteKey(ar *fsdp.Arena, tx *tmf.Tx, def *FileDef, key []byte, pred expr.Expr) (int, error) {
	return f.writeKey(ar, tx, def, &fsdp.Request{Kind: fsdp.KDeleteKey, Key: key,
		Pred: ar.Keep(expr.AppendEncode(ar.Free(), pred))})
}

func (f *FS) writeKey(ar *fsdp.Arena, tx *tmf.Tx, def *FileDef, req *fsdp.Request) (int, error) {
	req.Tx, req.File = tx.ID, def.Name
	reply, err := f.sendTx(ar, tx, partitionFor(def.Partitions, req.Key).Server, req)
	if err != nil {
		return 0, err
	}
	if err := replyErr(reply); err != nil {
		return 0, err
	}
	return int(reply.Count), nil
}

// AssignsTouchIndexes reports whether any SET target is an indexed
// column or a primary key column (both force the requester-side path).
func (def *FileDef) AssignsTouchIndexes(assigns []expr.Assignment) bool {
	for _, a := range assigns {
		if def.Schema.IsKeyField(a.Field) {
			return true
		}
		for _, idx := range def.Indexes {
			if idx.Column == a.Field {
				return true
			}
		}
	}
	return false
}

// Delete removes one record, maintaining indexes.
func (f *FS) Delete(tx *tmf.Tx, def *FileDef, key []byte) error {
	var oldRow record.Row
	if len(def.Indexes) > 0 {
		var err error
		oldRow, err = f.Read(tx, def, key, true)
		if err != nil {
			return err
		}
	}
	p := partitionFor(def.Partitions, key)
	reply, err := f.sendTx(nil, tx, p.Server, &fsdp.Request{
		Kind: fsdp.KDeleteRecord, Tx: tx.ID, File: def.Name, Key: key,
	})
	if err != nil {
		return err
	}
	if err := replyErr(reply); err != nil {
		return err
	}
	for _, idx := range def.Indexes {
		if err := f.deleteIndexEntry(tx, def, idx, oldRow); err != nil {
			return err
		}
	}
	return nil
}
