// Package enscribe implements the pre-existing record-oriented DBMS
// interface that NonStop SQL was integrated with — and is benchmarked
// against. The programming model is the classic ENSCRIBE one: OPEN a
// file, READ / WRITE / REWRITE whole records, lock explicitly.
//
// Two properties matter for the paper's comparisons:
//
//   - the FS-DP interface is record-at-a-time: every READNEXT costs a
//     message pair unless sequential block buffering is enabled; and
//   - SBB here is *real* SBB with the old restriction — no locking
//     other than at the file level is effective while it is in use, so
//     enabling it takes a file lock, excluding writers.
//
// No experiment reads through READNEXT (E11 needs only SBB's file lock),
// so KEYPOSITION and READNEXT, like DELETE and LOCKRECORD, live in
// export_test.go, beside the tests that hold their message counts.
//
// Files opened through this package audit FULL record before/after
// images (no field compression), as ENSCRIBE did by default.
package enscribe

import (
	"fmt"

	"nonstopsql/internal/fs"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
)

// A File is an ENSCRIBE open of a key-sequenced file. Not safe for
// concurrent use (match the original's per-opener state).
type File struct {
	fs  *fs.FS
	def *fs.FileDef
	sbb bool // sequential block buffering enabled: READNEXT reads a block per message
}

// Open prepares an ENSCRIBE view of a file definition. The file must
// have been created with FieldAudit=false to reproduce ENSCRIBE audit
// behaviour (Create does not enforce this; benchmarks rely on it).
func Open(f *fs.FS, def *fs.FileDef) *File {
	return &File{fs: f, def: def}
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
