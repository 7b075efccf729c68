// Package fsdp defines the File System ↔ Disk Process wire protocol:
// the message formats exchanged between the client-side File System
// library and the Disk Process servers.
//
// It carries both generations of the interface the paper contrasts:
//
//   - the old record-oriented ENSCRIBE interface (read/write/delete a
//     whole record by key, plus Real Sequential Block Buffering), and
//   - the new field- and set-oriented NonStop SQL interface
//     (GET^FIRST/NEXT^VSBB, GET^FIRST/NEXT^RSBB, UPDATE^SUBSET^*,
//     DELETE^SUBSET^*, UPDATE^KEY, DELETE^KEY, with predicates,
//     projections, and update expressions evaluated by the Disk
//     Process), plus the "future
//     enhancements" the paper sketches (blocked insert, buffered
//     update/delete-where-current).
//
// Every message serializes to bytes so the msg package charges true
// sizes: the byte counts ARE the experiment.
package fsdp

import (
	"encoding/binary"
	"fmt"
	"slices"

	"nonstopsql/internal/keys"
)

// Kind identifies a request message type.
type Kind uint8

const (
	kInvalid Kind = iota

	// Old record-at-a-time ENSCRIBE interface.
	KReadRecord
	KInsertRecord
	KUpdateRecord
	KDeleteRecord
	KLockFile
	KLockRecord
	KLockRange

	// Sequential block buffering, both real (physical block copies) and
	// virtual (DP-built blocks of selected+projected data).
	KGetFirstRSBB
	KGetNextRSBB
	KGetFirstVSBB
	KGetNextVSBB

	// Set-oriented updates and deletes with DP-side expressions.
	KUpdateSubsetFirst
	KUpdateSubsetNext
	KDeleteSubsetFirst
	KDeleteSubsetNext

	// Future-enhancement interfaces from the paper's closing section.
	KInsertBlock
	KUpdateBlock // buffered update-where-current
	KDeleteBlock // buffered delete-where-current

	// File administration.
	KCreateFile
	KDropFile

	// Transaction control (TMF participant protocol).
	KPrepare
	KCommit
	KAbort

	// CloseSubset discards a Subset Control Block early.
	KCloseSubset

	// Set-oriented aggregation: count the records of a subset at the
	// Disk Process. The reply carries only a count — no record, not even
	// a projected key column, crosses the interface.
	KCountFirst
	KCountNext

	// Partial aggregation: the Disk Process folds the subset's records
	// through decomposable aggregate functions (COUNT/SUM/MIN/MAX, with
	// optional GROUP BY key extraction) and replies with compact
	// per-group partial states instead of rows. The File System merges
	// partials across partitions and re-drives.
	KAggFirst
	KAggNext

	// Batched probes: one message carries a block of probe key prefixes;
	// the Disk Process answers with every matching record for the whole
	// block. Stateless — a partially-served block is simply re-sent from
	// the first unserved probe (Reply.Count = probes completed).
	KProbeBlock

	// Replication (primary → backup DP). KShipRecords carries a batch of
	// framed wal.Record images in Rows with a monotone batch sequence
	// number in CommitLSN; the backup applies them to its own volume and
	// trail. KPromote orders the backup to promote itself: resolve
	// in-flight transactions and start serving as primary.
	KShipRecords
	KPromote

	// Keyed writes: the record of one primary key (Key), changed at the
	// Disk Process when it satisfies an optional residual predicate (Pred)
	// — by the SET list in Assign, or deleted. The Disk Process locks the
	// key before it reads, as READ does; Count is 1 when the record was
	// changed, 0 when it is not there or the residual rejects it. The
	// paper's update-expression pushdown without a subset around it.
	KUpdateKey
	KDeleteKey
)

var kindNames = map[Kind]string{
	KReadRecord: "READ", KInsertRecord: "WRITE", KUpdateRecord: "REWRITE",
	KDeleteRecord: "DELETE", KLockFile: "LOCKFILE", KLockRecord: "LOCKRECORD",
	KLockRange:    "LOCKRANGE",
	KGetFirstRSBB: "GET^FIRST^RSBB", KGetNextRSBB: "GET^NEXT^RSBB",
	KGetFirstVSBB: "GET^FIRST^VSBB", KGetNextVSBB: "GET^NEXT^VSBB",
	KUpdateSubsetFirst: "UPDATE^SUBSET^FIRST", KUpdateSubsetNext: "UPDATE^SUBSET^NEXT",
	KDeleteSubsetFirst: "DELETE^SUBSET^FIRST", KDeleteSubsetNext: "DELETE^SUBSET^NEXT",
	KInsertBlock: "INSERT^BLOCK", KUpdateBlock: "UPDATE^BLOCK", KDeleteBlock: "DELETE^BLOCK",
	KCreateFile: "CREATE", KDropFile: "DROP",
	KPrepare: "PREPARE", KCommit: "COMMIT", KAbort: "ABORT",
	KCloseSubset: "CLOSE^SUBSET",
	KCountFirst:  "COUNT^FIRST", KCountNext: "COUNT^NEXT",
	KAggFirst: "AGG^FIRST", KAggNext: "AGG^NEXT",
	KProbeBlock:  "PROBE^BLOCK",
	KShipRecords: "SHIP^RECORDS", KPromote: "PROMOTE",
	KUpdateKey: "UPDATE^KEY", KDeleteKey: "DELETE^KEY",
}

// BackupSuffix names a partition's backup Disk Process: the backup for
// primary server "$DATA1" is served as "$DATA1#B". The FS routes
// follower browse reads there, and the cluster ships checkpoints there.
const BackupSuffix = "#B"

// Next returns the continuation kind of a ^FIRST kind: every ^FIRST is
// declared immediately before its ^NEXT.
func (k Kind) Next() Kind { return k + 1 }

// String returns the message type's protocol name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrCode classifies application-level failures carried in replies.
type ErrCode uint8

const (
	ErrNone ErrCode = iota
	ErrGeneral
	ErrNotFound
	ErrDuplicate
	ErrDeadlock
	ErrLockTimeout
	ErrConstraint
	ErrBadRequest
)

// A Request is one FS-DP request message. Only the fields relevant to
// Kind are meaningful; unused fields encode to a presence bit and
// nothing more, so they do not distort message-size accounting.
type Request struct {
	Kind Kind
	Tx   uint64
	File string

	Key   []byte     // point operations
	Row   []byte     // encoded record (insert, full-record update)
	Range keys.Range // set-oriented operations

	Pred    []byte // encoded selection predicate (expr.Encode)
	Proj    []int  // projected field ordinals (VSBB)
	Assign  []byte // encoded update expressions (expr.EncodeAssignments)
	SCB     uint32 // Subset Control Block id, for ^NEXT re-drives
	Rows    [][]byte
	RowKeys [][]byte // keys parallel to Rows (update/delete blocks)
	Mode    uint8    // lock mode (1=S, 2=X)

	Schema []byte // encoded record.Schema (KCreateFile)
	Check  []byte // encoded CHECK constraint (KCreateFile)
	Audit  bool   // KCreateFile: field-compressed audit (SQL) vs full-record (ENSCRIBE)

	// CommitLSN: on KCommit, the durable commit record's LSN (0 = this
	// Disk Process is the only participant and writes the record itself).
	// On KPrepare, the identity of the coordinator's audit trail
	// (wal.Trail.ID, 0 = anonymous): a participant auditing to that same
	// trail need not force its prepare record.
	CommitLSN uint64
	RowLimit  uint32 // optional per-message row budget override (re-drive)

	// Agg is the encoded partial-aggregate specification (EncodeAggSpec)
	// carried by AGG^FIRST; like Pred, it is stored in the Subset Control
	// Block so re-drives need not re-send it.
	Agg []byte
	// ScanLimit is a whole-conversation qualifying-row budget (Top-N /
	// LIMIT pushdown): the Disk Process stops the subset early — across
	// re-drives — once this many rows have been returned. 0 = unlimited.
	ScanLimit uint32

	// Hint tells the DP what cache access class the request's subset
	// implies. HintAuto lets the DP derive it from the request's key
	// range; the FS sets an explicit hint on ^FIRST set-oriented
	// requests because partition clipping can make a full-table scan's
	// per-partition span look bounded at the DP.
	Hint uint8
}

// Access-class hints for Request.Hint.
const (
	HintAuto       = 0 // DP derives the class from the key range
	HintKeyed      = 1 // random / reuse-likely access
	HintSequential = 2 // one-pass scan: recycle, don't cache
)

// A Reply is one FS-DP reply message.
type Reply struct {
	Code ErrCode
	Err  string

	Rows    [][]byte // returned records / projected rows
	RowKeys [][]byte // record keys parallel to Rows
	LastKey []byte   // last key processed (continuation re-drive)
	Done    bool     // key range exhausted; no re-drive needed
	Count   uint32   // records affected (set updates/deletes)
	SCB     uint32   // Subset Control Block id (GET^FIRST replies)
	Root    uint32   // file root block (KCreateFile reply)

	// Per-message service statistics. The DP does the filtering, so
	// only it knows how many records a conversation touched; shipping
	// the counts in the reply is what lets the requester (and EXPLAIN
	// ANALYZE) account per-operation work without extra messages.
	Examined   uint32 // records the DP visited serving this message
	BlocksRead uint32 // cache misses (physical reads) serving it
	CacheHits  uint32 // cache hits serving it
}

// OK reports whether the reply carries no error.
func (r *Reply) OK() bool { return r.Code == ErrNone }

// encoding helpers ------------------------------------------------------

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, fmt.Errorf("fsdp: truncated field")
	}
	if l == 0 {
		return nil, b[n:], nil
	}
	out := b[n : n+int(l)]
	return out, b[n+int(l):], nil
}

func appendSlices(b []byte, vs [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = appendBytes(b, v)
	}
	return b
}

// takeCount reads the count of a repeated field. Every element costs at
// least one byte, so a count larger than what is left of the message is
// hostile or damaged: it is refused here, before anybody sizes a slice
// by it.
func takeCount(b []byte) (uint64, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return 0, nil, fmt.Errorf("fsdp: bad element count")
	}
	return n, b[sz:], nil
}

// takeSlices reads a repeated byte-string field into out's storage when
// it is large enough; the elements alias b.
func takeSlices(out [][]byte, b []byte) ([][]byte, []byte, error) {
	n, b, err := takeCount(b)
	if err != nil || n == 0 {
		return nil, b, err
	}
	out = slices.Grow(out[:0], int(n))[:n]
	for i := range out {
		if out[i], b, err = takeBytes(b); err != nil {
			return nil, nil, err
		}
	}
	return out, b, nil
}

func appendRange(b []byte, r keys.Range) []byte {
	var flags byte
	if r.Low != nil {
		flags |= 1
	}
	if r.High != nil {
		flags |= 2
	}
	if r.LowExcl {
		flags |= 4
	}
	if r.HighIncl {
		flags |= 8
	}
	b = append(b, flags)
	if r.Low != nil {
		b = appendBytes(b, r.Low)
	}
	if r.High != nil {
		b = appendBytes(b, r.High)
	}
	return b
}

func takeRange(b []byte) (keys.Range, []byte, error) {
	if len(b) == 0 {
		return keys.Range{}, nil, fmt.Errorf("fsdp: truncated range")
	}
	flags := b[0]
	b = b[1:]
	var r keys.Range
	var err error
	if flags&1 != 0 {
		if r.Low, b, err = takeBytes(b); err != nil {
			return keys.Range{}, nil, err
		}
		if r.Low == nil {
			r.Low = []byte{}
		}
	}
	if flags&2 != 0 {
		if r.High, b, err = takeBytes(b); err != nil {
			return keys.Range{}, nil, err
		}
		if r.High == nil {
			r.High = []byte{}
		}
	}
	r.LowExcl = flags&4 != 0
	r.HighIncl = flags&8 != 0
	return r, b, nil
}

// EncodeRequest serializes a request message into one buffer sized
// exactly (requestLen), so a READ costs one allocation, not one per
// doubling of a buffer grown from a byte.
func EncodeRequest(q *Request) []byte { return AppendRequest(make([]byte, 0, requestLen(q)), q) }

// AppendRequest appends a request message to b, growing it at most once.
func AppendRequest(b []byte, q *Request) []byte {
	b = append(slices.Grow(b, requestLen(q)), byte(q.Kind))
	b = binary.AppendUvarint(b, q.Tx)
	b = binary.AppendUvarint(b, uint64(len(q.File)))
	b = append(b, q.File...)
	b = appendBytes(b, q.Key)
	b = appendBytes(b, q.Row)
	b = appendRange(b, q.Range)
	b = appendBytes(b, q.Pred)
	b = binary.AppendUvarint(b, uint64(len(q.Proj)))
	for _, p := range q.Proj {
		b = binary.AppendUvarint(b, uint64(p))
	}
	b = appendBytes(b, q.Assign)
	b = binary.AppendUvarint(b, uint64(q.SCB))
	b = appendSlices(b, q.Rows)
	b = appendSlices(b, q.RowKeys)
	b = append(b, q.Mode)
	b = appendBytes(b, q.Schema)
	b = appendBytes(b, q.Check)
	if q.Audit {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, q.CommitLSN)
	b = binary.AppendUvarint(b, uint64(q.RowLimit))
	b = append(b, q.Hint)
	b = appendBytes(b, q.Agg)
	b = binary.AppendUvarint(b, uint64(q.ScanLimit))
	return b
}

// requestLen is the length EncodeRequest writes for q.
func requestLen(q *Request) int {
	n := 1 + uvarintLen(q.Tx) + bytesLen(len(q.File)) + bytesLen(len(q.Key)) + bytesLen(len(q.Row))
	n++ // range flags
	if q.Range.Low != nil {
		n += bytesLen(len(q.Range.Low))
	}
	if q.Range.High != nil {
		n += bytesLen(len(q.Range.High))
	}
	n += bytesLen(len(q.Pred)) + uvarintLen(uint64(len(q.Proj)))
	for _, p := range q.Proj {
		n += uvarintLen(uint64(p))
	}
	n += bytesLen(len(q.Assign)) + uvarintLen(uint64(q.SCB))
	for _, vs := range [2][][]byte{q.Rows, q.RowKeys} {
		n += uvarintLen(uint64(len(vs)))
		for _, v := range vs {
			n += bytesLen(len(v))
		}
	}
	n += 1 + bytesLen(len(q.Schema)) + bytesLen(len(q.Check)) + 1 // mode, schema, check, audit
	n += uvarintLen(q.CommitLSN) + uvarintLen(uint64(q.RowLimit)) + 1 + bytesLen(len(q.Agg)) + uvarintLen(uint64(q.ScanLimit))
	return n
}

// bytesLen is the encoded length of an l-byte field: prefix and bytes.
func bytesLen(l int) int { return uvarintLen(uint64(l)) + l }

// DecodeRequest parses a request message.
func DecodeRequest(b []byte) (*Request, error) {
	q := new(Request)
	if err := DecodeRequestInto(q, b, nil); err != nil {
		return nil, err
	}
	return q, nil
}

// DecodeRequestInto parses a request message into q, setting every field
// (on an error, some): the byte-string fields alias b, the repeated ones
// land in q's storage when it is large enough, and File is kept when it
// already names the same file, or else taken from names when names knows
// it (a nil names knows none; an unknown name is allocated) — so a Disk
// Process that decodes into one Request per service slot, and names the
// files it serves, allocates nothing for a READ. What the server keeps
// past the message it copies.
func DecodeRequestInto(q *Request, b []byte, names func(file []byte) (string, bool)) error {
	if len(b) == 0 {
		return fmt.Errorf("fsdp: empty request")
	}
	q.Kind, b = Kind(b[0]), b[1:]
	var err error
	var n int
	var u uint64

	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad tx")
	}
	q.Tx = u
	b = b[n:]

	var f []byte
	if f, b, err = takeBytes(b); err != nil {
		return err
	}
	if string(f) != q.File {
		name, ok := "", false
		if names != nil {
			name, ok = names(f)
		}
		if !ok {
			name = string(f)
		}
		q.File = name
	}
	if q.Key, b, err = takeBytes(b); err != nil {
		return err
	}
	if q.Row, b, err = takeBytes(b); err != nil {
		return err
	}
	if q.Range, b, err = takeRange(b); err != nil {
		return err
	}
	if q.Pred, b, err = takeBytes(b); err != nil {
		return err
	}
	if u, b, err = takeCount(b); err != nil {
		return err
	}
	if u == 0 {
		q.Proj = nil
	} else {
		q.Proj = slices.Grow(q.Proj[:0], int(u))[:u]
		for i := range q.Proj {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("fsdp: bad projection ordinal")
			}
			q.Proj[i] = int(v)
			b = b[n:]
		}
	}
	if q.Assign, b, err = takeBytes(b); err != nil {
		return err
	}
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad scb")
	}
	q.SCB = uint32(u)
	b = b[n:]
	if q.Rows, b, err = takeSlices(q.Rows, b); err != nil {
		return err
	}
	if q.RowKeys, b, err = takeSlices(q.RowKeys, b); err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("fsdp: truncated mode")
	}
	q.Mode = b[0]
	b = b[1:]
	if q.Schema, b, err = takeBytes(b); err != nil {
		return err
	}
	if q.Check, b, err = takeBytes(b); err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("fsdp: truncated audit flag")
	}
	q.Audit = b[0] == 1
	b = b[1:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad commit lsn")
	}
	q.CommitLSN = u
	b = b[n:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad row limit")
	}
	q.RowLimit = uint32(u)
	b = b[n:]
	if len(b) == 0 {
		return fmt.Errorf("fsdp: truncated hint")
	}
	q.Hint = b[0]
	b = b[1:]
	if q.Agg, b, err = takeBytes(b); err != nil {
		return err
	}
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad scan limit")
	}
	q.ScanLimit = uint32(u)
	b = b[n:]
	if len(b) != 0 {
		return fmt.Errorf("fsdp: %d trailing request bytes", len(b))
	}
	return nil
}

// EncodeReply serializes a reply message.
func EncodeReply(r *Reply) []byte { return AppendReply(nil, r) }

// AppendReply appends a reply message to b. It is sized first (a few
// bytes over: every length prefix counted at its widest), so b grows at
// most once and a block of rows is copied here once, not once more per
// doubling of the buffer.
func AppendReply(b []byte, r *Reply) []byte {
	size := 1 + 11*binary.MaxVarintLen32 + len(r.Err) + len(r.LastKey)
	for _, vs := range [2][][]byte{r.Rows, r.RowKeys} {
		for _, v := range vs {
			size += binary.MaxVarintLen32 + len(v)
		}
	}
	b = append(slices.Grow(b, size), byte(r.Code))
	b = binary.AppendUvarint(b, uint64(len(r.Err)))
	b = append(b, r.Err...)
	b = appendSlices(b, r.Rows)
	b = appendSlices(b, r.RowKeys)
	b = appendBytes(b, r.LastKey)
	if r.Done {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(r.Count))
	b = binary.AppendUvarint(b, uint64(r.SCB))
	b = binary.AppendUvarint(b, uint64(r.Root))
	b = binary.AppendUvarint(b, uint64(r.Examined))
	b = binary.AppendUvarint(b, uint64(r.BlocksRead))
	b = binary.AppendUvarint(b, uint64(r.CacheHits))
	return b
}

// DecodeReply parses a reply message.
func DecodeReply(b []byte) (*Reply, error) {
	r := new(Reply)
	if err := DecodeReplyInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReplyInto parses a reply message into r, setting every field (on
// an error, some): the rows, keys and LastKey alias b, and the row and
// key lists land in r's storage when it is large enough — so a requester
// that decodes into one Reply per statement allocates nothing for a
// READ's.
func DecodeReplyInto(r *Reply, b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("fsdp: empty reply")
	}
	r.Code, b = ErrCode(b[0]), b[1:]
	var err error
	var e []byte
	if e, b, err = takeBytes(b); err != nil {
		return err
	}
	r.Err = string(e)
	if r.Rows, b, err = takeSlices(r.Rows, b); err != nil {
		return err
	}
	if r.RowKeys, b, err = takeSlices(r.RowKeys, b); err != nil {
		return err
	}
	if r.LastKey, b, err = takeBytes(b); err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("fsdp: truncated done flag")
	}
	r.Done = b[0] == 1
	b = b[1:]
	var u uint64
	var n int
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad count")
	}
	r.Count = uint32(u)
	b = b[n:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad scb")
	}
	r.SCB = uint32(u)
	b = b[n:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad root")
	}
	r.Root = uint32(u)
	b = b[n:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad examined count")
	}
	r.Examined = uint32(u)
	b = b[n:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad blocks-read count")
	}
	r.BlocksRead = uint32(u)
	b = b[n:]
	u, n = binary.Uvarint(b)
	if n <= 0 {
		return fmt.Errorf("fsdp: bad cache-hit count")
	}
	r.CacheHits = uint32(u)
	b = b[n:]
	if len(b) != 0 {
		return fmt.Errorf("fsdp: %d trailing reply bytes", len(b))
	}
	return nil
}
