package nsqlwire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nonstopsql/internal/record"
)

// refEncodeRequest and refEncodeReply are the encoders as they were
// before they sized their buffers: grown from nil, a record.Encode
// temporary per row. They define the wire bytes; the single-allocation
// encoders must produce exactly these.
func refEncodeRequest(q *Request) []byte {
	b := []byte{byte(q.Op)}
	b = refAppendBytes(b, []byte(q.Arg))
	b = binary.AppendUvarint(b, q.Handle)
	var params []byte
	if len(q.Params) > 0 {
		params = record.Encode(q.Params)
	}
	return refAppendBytes(b, params)
}

func refEncodeReply(r *Reply) []byte {
	b := refAppendBytes(nil, []byte(r.Err))
	b = binary.AppendUvarint(b, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		b = refAppendBytes(b, []byte(c))
	}
	b = binary.AppendUvarint(b, uint64(len(r.Rows)))
	for _, row := range r.Rows {
		b = refAppendBytes(b, record.Encode(row))
	}
	b = binary.AppendUvarint(b, r.Affected)
	b = refAppendBytes(b, []byte(r.Text))
	b = append(b, r.Code)
	return binary.AppendUvarint(b, r.Handle)
}

func refAppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func seedRequests() []Request {
	return []Request{
		{Op: OpPing},
		{Op: OpExec, Arg: "SELECT * FROM emp WHERE empno = 3"},
		{Op: OpPrepare, Arg: "SELECT name FROM emp WHERE empno = ?"},
		{Op: OpExecute, Handle: 7, Params: record.Row{record.Int(3)}},
		{Op: OpExecute, Handle: 1 << 40, Params: record.Row{
			record.Int(-12), record.Float(3.5), record.String("alice"), record.Bool(true), record.Null,
		}},
		{Op: OpExecute, Handle: 2, Params: record.Row{record.String(string(make([]byte, 300)))}},
		{Op: OpCloseStmt, Handle: 9},
	}
}

func seedReplies() []Reply {
	return []Reply{
		{},
		{Err: "sql: no table NOPE", Code: CodeBadStatement},
		{Err: "prepared statement handle 12 is unknown or was evicted", Code: CodeStaleHandle},
		{Columns: []string{"a", "b"}, Rows: []record.Row{
			{record.Int(1), record.String("x")},
			{record.Null, record.Float(2.25)},
		}, Affected: 2},
		{Rows: []record.Row{{}, {}}},
		{Handle: 42, Affected: 3},
		{Text: "plan: cached (hits=9)\n"},
	}
}

// checkRequestBytes and checkReplyBytes hold an encoding to the reference
// bytes and to its promise of one exactly sized allocation.
func checkRequestBytes(t *testing.T, q *Request) []byte {
	t.Helper()
	enc := EncodeRequest(q)
	if ref := refEncodeRequest(q); !bytes.Equal(enc, ref) {
		t.Fatalf("request %+v encodes to\n%x, the reference encoder to\n%x", q, enc, ref)
	}
	if len(enc) != cap(enc) {
		t.Fatalf("request %+v: %d bytes in a buffer sized for %d", q, len(enc), cap(enc))
	}
	return enc
}

func checkReplyBytes(t *testing.T, r *Reply) []byte {
	t.Helper()
	enc := EncodeReply(r)
	if ref := refEncodeReply(r); !bytes.Equal(enc, ref) {
		t.Fatalf("reply %+v encodes to\n%x, the reference encoder to\n%x", r, enc, ref)
	}
	if len(enc) != cap(enc) {
		t.Fatalf("reply %+v: %d bytes in a buffer sized for %d", r, len(enc), cap(enc))
	}
	return enc
}

func TestEncodersKeepTheWireBytes(t *testing.T) {
	for _, q := range seedRequests() {
		checkRequestBytes(t, &q)
	}
	for _, r := range seedReplies() {
		checkReplyBytes(t, &r)
	}
}

// FuzzNsqlwire feeds hostile payloads to both decoders: neither panics,
// and whatever decodes encodes to the reference bytes — the input's own
// bytes, unless the input padded a varint or spelt an empty parameter
// vector out — which decode to the same message again.
func FuzzNsqlwire(f *testing.F) {
	for _, q := range seedRequests() {
		f.Add(EncodeRequest(&q))
	}
	for _, r := range seedReplies() {
		f.Add(EncodeReply(&r))
	}
	f.Add([]byte{byte(OpExecute), 0, 5, 2, 0xff, 0xff}) // a row header promising 2^14 fields
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0x7f})            // a column count with nothing behind it
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := DecodeRequest(data); err == nil {
			enc := checkRequestBytes(t, q)
			if len(enc) > len(data) || (len(enc) == len(data) && !bytes.Equal(enc, data)) {
				t.Fatalf("request bytes\n%x decoded and re-encoded to\n%x", data, enc)
			}
			again, err := DecodeRequest(enc)
			if err != nil || !bytes.Equal(EncodeRequest(again), enc) {
				t.Fatalf("re-encoded request %x: decodes to %+v, %v", enc, again, err)
			}
		}
		if r, err := DecodeReply(data); err == nil {
			enc := checkReplyBytes(t, r)
			if len(enc) > len(data) || (len(enc) == len(data) && !bytes.Equal(enc, data)) {
				t.Fatalf("reply bytes\n%x decoded and re-encoded to\n%x", data, enc)
			}
			again, err := DecodeReply(enc)
			if err != nil || !bytes.Equal(EncodeReply(again), enc) {
				t.Fatalf("re-encoded reply %x: decodes to %+v, %v", enc, again, err)
			}
		}
	})
}

var (
	executeRequest = &Request{Op: OpExecute, Handle: 3, Params: record.Row{record.Int(4242)}}
	oneRowReply    = &Reply{Columns: []string{"bal", "pad"}, Rows: []record.Row{{record.Int(100), record.String("xxxxxxxxxxxxxxxx")}}}
)

// TestAllocationCeilings pins what the codecs allocate for the serving
// path's commonest conversation, a prepared one-row read: an encoder one
// buffer, a decoder only what the caller keeps (Request and its parameter
// row; Reply, Columns and the two names, Rows, the row and its string).
func TestAllocationCeilings(t *testing.T) {
	qb, rb := EncodeRequest(executeRequest), EncodeReply(oneRowReply)
	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"EncodeRequest", 1, func() { sink = EncodeRequest(executeRequest) }},
		{"EncodeReply", 1, func() { sink = EncodeReply(oneRowReply) }},
		{"DecodeRequest", 2, func() {
			if _, err := DecodeRequest(qb); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeReply", 7, func() {
			if _, err := DecodeReply(rb); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.ceiling {
			t.Errorf("%s allocates %.1f objects, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

var sink []byte

// BenchmarkExecuteCodec is the payload work of one prepared point read:
// EXECUTE request and one-row reply, each encoded and decoded once.
func BenchmarkExecuteCodec(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := DecodeRequest(EncodeRequest(executeRequest))
		if err != nil || q.Handle != 3 {
			b.Fatal(err)
		}
		r, err := DecodeReply(EncodeReply(oneRowReply))
		if err != nil || len(r.Rows) != 1 {
			b.Fatal(err)
		}
	}
}
