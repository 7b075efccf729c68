// Package wal implements the TMF audit trail ("auditing" is Tandem's
// term for journaling): LSN-stamped audit records with full-record or
// field-compressed before/after images, an audit buffer whose buffer-full
// condition triggers bulk log I/O, group commit paced by the audit volume
// (one leader/follower flush behind every force point), and the recovery
// scan used after a crash.
//
// Both SQL and ENSCRIBE share the same audit trail, exactly as in the
// paper; the only difference is the image format each puts inside its
// audit records.
package wal

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// LSN is a log sequence number: the offset-ordered position of a record
// in the audit trail. LSN 0 means "none".
type LSN uint64

// RecType identifies an audit record's kind.
type RecType uint8

const (
	RecInsert RecType = iota + 1
	RecUpdate
	RecDelete
	RecCommit
	RecAbort
	RecPrepare
	RecCheckpoint
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecPrepare:
		return "PREPARE"
	case RecCheckpoint:
		return "CHECKPOINT"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// A Record is one audit trail entry. For data records, Before/After hold
// either full-record images (ENSCRIBE default) or field-compressed images
// (SQL); FieldCompressed says which, so redo/undo pick the right decoder.
type Record struct {
	LSN             LSN // assigned by the trail on append
	Type            RecType
	TxID            uint64
	Volume          string // originating data volume
	File            string // file within the volume
	Key             []byte // primary key of the affected record
	Before          []byte // before image (undo)
	After           []byte // after image (redo)
	FieldCompressed bool
	// Compensation marks an undo action audited during an abort. Redo
	// replays it like any data record (repeating history), but the
	// recovery undo pass must never "undo" one: it carries no before
	// image, and undoing the forward record it compensates is already
	// the same state change.
	Compensation bool
}

// Size returns the encoded byte size of the record; this is what counts
// against the audit buffer and the trail volume, and what the paper's
// audit-compression claim measures. Computed, not encoded: every audited
// operation asks.
func (r *Record) Size() int {
	n := r.bodySize()
	return uvarintLen(uint64(n)) + 4 + n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func bytesLen(v int) int { return uvarintLen(uint64(v)) + v }

// bodySize is the length of the frame's body, which the frame states
// ahead of it: knowing it first lets Encode write the frame straight into
// its destination, with no body built on the side.
func (r *Record) bodySize() int {
	return 2 + uvarintLen(uint64(r.LSN)) + uvarintLen(r.TxID) +
		bytesLen(len(r.Volume)) + bytesLen(len(r.File)) +
		bytesLen(len(r.Key)) + bytesLen(len(r.Before)) + bytesLen(len(r.After))
}

// Encode appends the record's framed encoding (length prefix, checksum,
// body) to b. It is the trail's own frame format, reused verbatim as the
// checkpoint-shipping wire format so a replica applies exactly the bytes
// the primary audited.
func (r *Record) Encode(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(r.bodySize()))
	sumAt := len(b)
	b = append(b, 0, 0, 0, 0, byte(r.Type))
	var flags byte
	if r.FieldCompressed {
		flags |= 1
	}
	if r.Compensation {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(r.LSN))
	b = binary.AppendUvarint(b, r.TxID)
	b = appendBytes(b, r.Volume)
	b = appendBytes(b, r.File)
	b = appendBytes(b, r.Key)
	b = appendBytes(b, r.Before)
	b = appendBytes(b, r.After)
	binary.BigEndian.PutUint32(b[sumAt:], bodySum(b[sumAt+4:]))
	return b
}

// bodySum is the FNV-1a checksum guarding each frame. A torn block write
// can leave a frame whose length prefix landed but whose body tail is
// still zeros; without the checksum such a frame decodes "successfully"
// into a truncated record and recovery replays garbage. With it, the
// scan stops at the last fully-written record.
func bodySum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

func appendBytes[T []byte | string](b []byte, v T) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, fmt.Errorf("wal: truncated byte field")
	}
	if l == 0 {
		return nil, b[n:], nil
	}
	return b[n : n+int(l)], b[n+int(l):], nil
}

// Decode parses one framed record from b, returning the record and the
// remaining bytes. The checksum is verified, so a torn or corrupted
// shipped frame is rejected rather than applied.
func Decode(b []byte) (*Record, []byte, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < 4 || uint64(len(b)-n-4) < l {
		return nil, nil, fmt.Errorf("wal: truncated record frame")
	}
	sum := binary.BigEndian.Uint32(b[n:])
	body, rest := b[n+4:n+4+int(l)], b[n+4+int(l):]
	if bodySum(body) != sum {
		return nil, nil, fmt.Errorf("wal: record checksum mismatch (torn write)")
	}
	if len(body) < 2 {
		return nil, nil, fmt.Errorf("wal: record body too short")
	}
	r := &Record{Type: RecType(body[0]), FieldCompressed: body[1]&1 != 0, Compensation: body[1]&2 != 0}
	body = body[2:]
	lsn, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wal: bad LSN")
	}
	r.LSN = LSN(lsn)
	body = body[n:]
	tx, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wal: bad TxID")
	}
	r.TxID = tx
	body = body[n:]
	var err error
	var v []byte
	if v, body, err = takeBytes(body); err != nil {
		return nil, nil, err
	}
	r.Volume = string(v)
	if v, body, err = takeBytes(body); err != nil {
		return nil, nil, err
	}
	r.File = string(v)
	if r.Key, body, err = takeBytes(body); err != nil {
		return nil, nil, err
	}
	if r.Before, body, err = takeBytes(body); err != nil {
		return nil, nil, err
	}
	if r.After, body, err = takeBytes(body); err != nil {
		return nil, nil, err
	}
	if len(body) != 0 {
		return nil, nil, fmt.Errorf("wal: %d trailing record bytes", len(body))
	}
	return r, rest, nil
}
