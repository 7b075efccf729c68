package fsdp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"nonstopsql/internal/keys"
)

// refEncodeRequest is EncodeRequest as it was before it sized its
// buffer: grown from one byte. It defines the request's wire bytes; the
// single-allocation encoder must produce exactly these.
func refEncodeRequest(q *Request) []byte {
	b := []byte{byte(q.Kind)}
	b = binary.AppendUvarint(b, q.Tx)
	b = appendBytes(b, []byte(q.File))
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

// readRequest, updateKeyRequest and commitRequest are the three requests
// of a served point read and an autocommit update, as the File System
// builds them.
var (
	readRequest      = &Request{Kind: KReadRecord, Tx: 1 << 20, File: "ACCOUNT", Key: keys.AppendInt64(nil, 4242), Proj: []int{0, 1}, Hint: HintKeyed}
	updateKeyRequest = &Request{Kind: KUpdateKey, Tx: 1 << 20, File: "ACCOUNT", Key: keys.AppendInt64(nil, 4242),
		Assign: []byte{1, 1, 3, 0x80, 0, 0, 0, 0, 0, 0, 1}, Mode: 2, Hint: HintKeyed}
	commitRequest = &Request{Kind: KCommit, Tx: 1 << 20, CommitLSN: 1 << 30}
)

// TestEncodeRequestKeepsTheWireBytes: the sized encoder writes the
// reference encoder's bytes into a buffer exactly as long as they are —
// over the fuzz seeds, the three served shapes, a request with every
// field set, and random ones.
func TestEncodeRequestKeepsTheWireBytes(t *testing.T) {
	check := func(q *Request) {
		t.Helper()
		enc, ref := EncodeRequest(q), refEncodeRequest(q)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("request %+v:\n got %x\nwant %x", q, enc, ref)
		}
		if len(enc) != cap(enc) {
			t.Fatalf("request %+v: %d bytes in a buffer sized for %d", q, len(enc), cap(enc))
		}
	}
	requests, _, _, _ := fuzzSeeds()
	for _, data := range requests {
		q, err := DecodeRequest(data)
		if err != nil {
			t.Fatal(err)
		}
		check(q)
	}
	for _, q := range []*Request{readRequest, updateKeyRequest, commitRequest, {}} {
		check(q)
	}
	long := make([]byte, 300) // two-byte length prefixes
	check(&Request{Kind: KInsertBlock, Tx: ^uint64(0), File: string(long), Key: long, Row: long,
		Range: keys.Range{Low: long, High: []byte{}, LowExcl: true}, Pred: long, Proj: []int{0, 127, 128, 1 << 20},
		Assign: long, SCB: ^uint32(0), Rows: [][]byte{long, nil, {1}}, RowKeys: make([][]byte, 200), Mode: 1,
		Schema: long, Check: long, Audit: true, CommitLSN: 1 << 63, RowLimit: 1 << 31, Hint: HintSequential,
		Agg: long, ScanLimit: 1 << 14})
	rng := rand.New(rand.NewSource(1))
	rb := func() []byte {
		if n := rng.Intn(140); n > 0 {
			return make([]byte, n)
		}
		return nil
	}
	for i := 0; i < 500; i++ {
		q := &Request{Kind: Kind(rng.Intn(30)), Tx: rng.Uint64() >> rng.Intn(64), File: string(rb()), Key: rb(), Row: rb(),
			Pred: rb(), Assign: rb(), SCB: rng.Uint32() >> rng.Intn(32), Schema: rb(), Check: rb(), Audit: rng.Intn(2) == 0,
			CommitLSN: rng.Uint64() >> rng.Intn(64), RowLimit: rng.Uint32() >> rng.Intn(32), Agg: rb(), ScanLimit: rng.Uint32() >> rng.Intn(32)}
		if rng.Intn(2) == 0 {
			q.Range.Low = append(rb(), 1)
		}
		if rng.Intn(2) == 0 {
			q.Range.High = rb()
		}
		for j := rng.Intn(4); j > 0; j-- {
			q.Proj = append(q.Proj, rng.Intn(1<<rng.Intn(20)))
			q.Rows = append(q.Rows, rb())
			q.RowKeys = append(q.RowKeys, rb())
		}
		check(q)
	}
}

// TestAllocationCeilings: a request is encoded into the one buffer that
// carries it — the READ, UPDATE^KEY and COMMIT of the served path each
// allocate once (5, 5 and 4 times when the buffer grew from one byte),
// and nothing when that buffer is the sender's, reused. A READ's round
// through the Into decoders and the appending encoders — the request
// into a service slot's Request, its reply into the sender's buffer and
// back into the statement's Reply — allocates nothing.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var buf []byte
	for _, c := range []struct {
		name string
		q    *Request
	}{{"READ", readRequest}, {"UPDATE^KEY", updateKeyRequest}, {"COMMIT", commitRequest}} {
		if got := testing.AllocsPerRun(200, func() { requestSink = EncodeRequest(c.q) }); got > 1 {
			t.Errorf("encoding a %s request allocates %.1f objects, ceiling 1", c.name, got)
		}
		if got := testing.AllocsPerRun(200, func() { buf = AppendRequest(buf[:0], c.q) }); got > 0 {
			t.Errorf("appending a %s request to a reused buffer allocates %.1f objects, ceiling 0", c.name, got)
		}
	}
	readReply := &Reply{Rows: [][]byte{make([]byte, 150)}, RowKeys: [][]byte{readRequest.Key}, Examined: 1, CacheHits: 3}
	var q Request
	var r Reply
	var out []byte
	if got := testing.AllocsPerRun(200, func() {
		buf = AppendRequest(buf[:0], readRequest)
		if err := DecodeRequestInto(&q, buf, nil); err != nil {
			t.Fatal(err)
		}
		out = AppendReply(out[:0], readReply)
		if err := DecodeReplyInto(&r, out); err != nil || len(r.Rows) != 1 {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("a READ's request and reply through reused buffers and structs allocate %.1f objects, ceiling 0", got)
	}
}

var requestSink []byte
