// Package enscribe implements the pre-existing record-oriented DBMS
// interface that NonStop SQL was integrated with — and is benchmarked
// against. The programming model is the classic ENSCRIBE one: OPEN a
// file, KEYPOSITION to a key, READ / READNEXT / WRITE / REWRITE /
// DELETE whole records, LOCKFILE / LOCKRECORD explicitly.
//
// Two properties matter for the paper's comparisons:
//
//   - the FS-DP interface is record-at-a-time: every READNEXT costs a
//     message pair unless sequential block buffering is enabled; and
//   - SBB here is *real* SBB with the old restriction — no locking
//     other than at the file level is effective while it is in use, so
//     enabling it takes a file lock, excluding writers.
//
// Files opened through this package audit FULL record before/after
// images (no field compression), as ENSCRIBE did by default.
package enscribe

import (
	"errors"
	"fmt"

	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// Re-exported error values (same classification as package fs).
var (
	ErrNotFound  = fs.ErrNotFound
	ErrDuplicate = fs.ErrDuplicate
)

// A File is an ENSCRIBE open: a positioned cursor over a key-sequenced
// file. Not safe for concurrent use (match the original's per-opener
// state).
type File struct {
	fs  *fs.FS
	def *fs.FileDef

	// cursor state
	pos      keys.Range // remaining range
	sbb      bool       // sequential block buffering enabled
	sbbTx    *tmf.Tx    // transaction holding the SBB file lock
	buffered []record.Row
	bufKeys  [][]byte
	scb      uint32
	server   string
	srvIdx   int
	spans    []spanState
	done     bool
}

type spanState struct {
	server string
	r      keys.Range
}

// Open prepares an ENSCRIBE view of a file definition. The file must
// have been created with FieldAudit=false to reproduce ENSCRIBE audit
// behaviour (Create does not enforce this; benchmarks rely on it).
func Open(f *fs.FS, def *fs.FileDef) *File {
	e := &File{fs: f, def: def}
	e.KeyPosition(nil)
	return e
}

// Def returns the file definition.
func (e *File) Def() *fs.FileDef { return e.def }

// KeyPosition positions the cursor at the first record with key >= key
// (nil = first record).
func (e *File) KeyPosition(key []byte) {
	e.pos = keys.Range{Low: key}
	e.resetSpans()
}

// KeyPositionRange positions the cursor over an explicit range.
func (e *File) KeyPositionRange(r keys.Range) {
	e.pos = r
	e.resetSpans()
}

func (e *File) resetSpans() {
	e.buffered, e.bufKeys = nil, nil
	e.scb, e.server = 0, ""
	e.srvIdx, e.done = 0, false
	e.spans = nil
}

// EnableSBB turns on sequential block buffering for this opener. Per
// the old interface's restriction, it takes a FILE lock under tx,
// excluding other write-access openers for the transaction's duration.
func (e *File) EnableSBB(tx *tmf.Tx) error {
	for _, p := range e.def.Partitions {
		reply, err := e.sendTx(tx, p.Server, &fsdp.Request{
			Kind: fsdp.KLockFile, Tx: tx.ID, File: e.def.Name, Mode: 1,
		})
		if err != nil {
			return err
		}
		if !reply.OK() {
			return fmt.Errorf("enscribe: SBB file lock: %s", reply.Err)
		}
	}
	e.sbb = true
	e.sbbTx = tx
	return nil
}

// Read fetches the record with exactly the given key.
func (e *File) Read(tx *tmf.Tx, key []byte) (record.Row, error) {
	return e.fs.Read(tx, e.def, key, false)
}

// ReadLock fetches the record and holds an exclusive record lock.
func (e *File) ReadLock(tx *tmf.Tx, key []byte) (record.Row, error) {
	return e.fs.Read(tx, e.def, key, true)
}

// ReadNext returns the next sequential record from the cursor. Without
// SBB each call is one FS-DP message pair; with SBB the File System
// de-blocks from its local block copy and only every blocking-factor-th
// call sends a message.
func (e *File) ReadNext(tx *tmf.Tx) (record.Row, []byte, error) {
	for {
		if len(e.buffered) > 0 {
			row := e.buffered[0]
			key := e.bufKeys[0]
			e.buffered = e.buffered[1:]
			e.bufKeys = e.bufKeys[1:]
			return row, key, nil
		}
		if err := e.fetch(tx); err != nil {
			return nil, nil, err
		}
	}
}

var errEOF = errors.New("enscribe: end of file")

// EOF reports whether err is the end-of-file condition.
func EOF(err error) bool { return errors.Is(err, errEOF) }

func (e *File) fetch(tx *tmf.Tx) error {
	if e.spans == nil {
		for _, s := range e.partSpans() {
			e.spans = append(e.spans, s)
		}
		e.srvIdx = 0
		e.done = true // no request in flight yet
	}
	for {
		if e.srvIdx >= len(e.spans) {
			return errEOF
		}
		span := &e.spans[e.srvIdx]
		req := &fsdp.Request{File: e.def.Name, Range: span.r}
		if e.done {
			req.Kind = fsdp.KGetFirstRSBB
		} else {
			req.Kind = fsdp.KGetNextRSBB
			req.SCB = e.scb
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
			e.buffered = append(e.buffered, row)
		}
		e.bufKeys = append(e.bufKeys, reply.RowKeys...)
		if reply.Done {
			e.srvIdx++
			e.done = true
		} else {
			span.r = span.r.Continue(reply.LastKey)
			e.scb = reply.SCB
			e.done = false
		}
		if len(e.buffered) > 0 {
			return nil
		}
	}
}

func (e *File) partSpans() []spanState {
	var out []spanState
	for _, s := range e.partsFor(e.pos) {
		out = append(out, s)
	}
	return out
}

// partsFor adapts fs's partition math (unexported there) via FileDef.
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

func (e *File) sendTx(tx *tmf.Tx, server string, req *fsdp.Request) (*fsdp.Reply, error) {
	raw, err := e.fs.SendRaw(server, req)
	// Join even on application errors: the Disk Process may hold locks
	// for this transaction that only a commit/abort will release.
	if err == nil && tx != nil && req.Tx != 0 {
		if jerr := tx.Join(server); jerr != nil {
			return raw, jerr
		}
	}
	return raw, err
}

// Write inserts a record (ENSCRIBE WRITE).
func (e *File) Write(tx *tmf.Tx, row record.Row) error {
	return e.fs.Insert(nil, tx, e.def, row)
}

// Rewrite replaces a record by key (ENSCRIBE REWRITE): the requester
// supplies the whole new record, having typically read it first.
func (e *File) Rewrite(tx *tmf.Tx, key []byte, row record.Row) error {
	return e.fs.Update(tx, e.def, key, row)
}

// Delete removes a record.
func (e *File) Delete(tx *tmf.Tx, key []byte) error {
	return e.fs.Delete(tx, e.def, key)
}

// LockFile takes an explicit file lock.
func (e *File) LockFile(tx *tmf.Tx, exclusive bool) error {
	mode := uint8(1)
	if exclusive {
		mode = 2
	}
	for _, p := range e.def.Partitions {
		reply, err := e.sendTx(tx, p.Server, &fsdp.Request{
			Kind: fsdp.KLockFile, Tx: tx.ID, File: e.def.Name, Mode: mode,
		})
		if err != nil {
			return err
		}
		if !reply.OK() {
			return fmt.Errorf("enscribe: lockfile: %s", reply.Err)
		}
	}
	return nil
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

// ReadUpdateRewrite is the canonical ENSCRIBE update sequence the paper
// contrasts with SQL's update-expression pushdown: READ with lock (one
// message), modify in the requester, REWRITE (second message).
func (e *File) ReadUpdateRewrite(tx *tmf.Tx, key []byte, mutate func(record.Row) record.Row) error {
	row, err := e.ReadLock(tx, key)
	if err != nil {
		return err
	}
	return e.Rewrite(tx, key, mutate(row))
}
