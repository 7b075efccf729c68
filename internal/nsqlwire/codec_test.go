package nsqlwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
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
		reuseIsFresh(t, data)
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
		// The input as a forwarded row: what a pass-through SELECT puts in
		// a reply is bytes nobody has looked at. The frame holds whatever
		// they are — a refusal names the row, never the framing — and rows
		// that decode are the record those bytes spell.
		forwarded := EncodeReply(&Reply{Columns: []string{"c"}, Encoded: [][]byte{data, data}, Affected: 2})
		r, err := DecodeReply(forwarded)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "nsqlwire: row 0: record: ") {
				t.Fatalf("forwarded row %x broke the frame: %v", data, err)
			}
			return
		}
		if len(r.Rows) != 2 || r.Affected != 2 || len(r.Columns) != 1 || r.Encoded != nil {
			t.Fatalf("forwarded row %x decoded to %+v", data, r)
		}
		for _, row := range r.Rows {
			if enc := record.Encode(row); len(enc) > len(data) || (len(enc) == len(data) && !bytes.Equal(enc, data)) {
				t.Fatalf("forwarded row %x decoded to %v, which encodes to %x", data, row, enc)
			}
		}
	})
}

// heldRequest and heldReply are what a service slot's Request and a
// client's Reply last held: every field set, so a decode into them that
// leaves one standing — stale Params above all — differs from a decode
// into a fresh one.
var (
	heldRequest = EncodeRequest(&Request{Op: OpExecute, Arg: "held", Handle: 9,
		Params: record.Row{record.Int(1), record.String("two"), record.Float(3), record.Null}})
	heldReply = EncodeReply(&Reply{Err: "held", Code: CodeServer, Columns: []string{"a", "b"},
		Rows: []record.Row{{record.Int(1), record.String("x")}}, Affected: 1, Text: "t", Handle: 3})
)

// reuseIsFresh holds the two Into decoders to their promise: decoding
// data into a struct that last held another message is decoding it into
// a new one — the same outcome, and a message that encodes to the same
// bytes (every field is encoded, and a NaN parameter is not DeepEqual to
// itself).
func reuseIsFresh(t *testing.T, data []byte) {
	var q Request
	if err := DecodeRequestInto(&q, heldRequest); err != nil {
		t.Fatal(err)
	}
	errReused := DecodeRequestInto(&q, data)
	fresh, err := DecodeRequest(data)
	if fmt.Sprint(err) != fmt.Sprint(errReused) || err == nil && (!bytes.Equal(EncodeRequest(&q), EncodeRequest(fresh)) || (q.Params == nil) != (fresh.Params == nil)) {
		t.Fatalf("request %x into a held one: %+v, %v; into a new one: %+v, %v", data, q, errReused, fresh, err)
	}
	var r Reply
	if err := DecodeReplyInto(&r, heldReply); err != nil {
		t.Fatal(err)
	}
	errReused = DecodeReplyInto(&r, data)
	freshReply, err := DecodeReply(data)
	if fmt.Sprint(err) != fmt.Sprint(errReused) || err == nil && (!bytes.Equal(EncodeReply(&r), EncodeReply(freshReply)) || r.Encoded != nil) {
		t.Fatalf("reply %x into a held one: %+v, %v; into a new one: %+v, %v", data, r, errReused, freshReply, err)
	}
}

// TestEncodedRowsAreRows: a reply's Encoded rows travel as Rows' would —
// the same bytes, after Rows, in one exactly sized buffer — and come back
// as Rows.
func TestEncodedRowsAreRows(t *testing.T) {
	rows := []record.Row{
		{record.Int(1), record.String("x"), record.Null},
		{record.Int(-2), record.String(""), record.Float(2.25)},
		{record.Int(3), record.Null, record.Bool(true)},
	}
	encoded := func(rows []record.Row) (out [][]byte) {
		for _, r := range rows {
			out = append(out, record.Encode(r))
		}
		return out
	}
	want := checkReplyBytes(t, &Reply{Columns: []string{"a", "b", "c"}, Rows: rows, Affected: 3})
	for split := 0; split <= len(rows); split++ {
		r := &Reply{Columns: []string{"a", "b", "c"}, Rows: rows[:split], Encoded: encoded(rows[split:]), Affected: 3}
		got := EncodeReply(r)
		if !bytes.Equal(got, want) || len(got) != cap(got) {
			t.Fatalf("%d rows as values and %d encoded: reply bytes\n%x (cap %d), want\n%x", split, len(rows)-split, got, cap(got), want)
		}
	}
	back, err := DecodeReply(want)
	if err != nil || !reflect.DeepEqual(back.Rows, rows) || back.Encoded != nil {
		t.Fatalf("decoded %+v, %v", back, err)
	}
	// The rows share one allocation and none can grow into the next.
	_ = append(back.Rows[0], record.Int(99))
	if !reflect.DeepEqual(back.Rows[1], rows[1]) {
		t.Fatalf("an append to row 0 rewrote row 1: %v", back.Rows[1])
	}
}

var (
	executeRequest = &Request{Op: OpExecute, Handle: 3, Params: record.Row{record.Int(4242)}}
	oneRowReply    = &Reply{Columns: []string{"bal", "pad"}, Rows: []record.Row{{record.Int(100), record.String("xxxxxxxxxxxxxxxx")}}}
	// scanReply is a pass-through range SELECT's reply as the endpoint
	// builds it: 1 000 rows of (id, bal), still encoded.
	scanReply = func() *Reply {
		r := &Reply{Columns: []string{"id", "bal"}, Affected: 1000}
		for i := 0; i < 1000; i++ {
			r.Encoded = append(r.Encoded, record.Encode(record.Row{record.Int(int64(i)), record.Float(float64(i) + 0.5)}))
		}
		return r
	}()
)

// TestAllocationCeilings pins what the codecs allocate for the serving
// path's commonest conversation, a prepared one-row read: an encoder one
// buffer, or none appending to a buffer its caller reuses; the request
// decoder nothing into a Request it reuses (the parameter row's storage
// is kept); the reply decoder only what the caller keeps (Reply, Columns
// and the one string both names are cut from, Rows, the row and its
// string). A 1 000-row reply costs per reply, not per row: one buffer to
// encode it from the forwarded rows; Reply, Columns and the names'
// string, Rows and the one arena every row's values land in to decode it.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	qb, rb, sb := EncodeRequest(executeRequest), EncodeReply(oneRowReply), EncodeReply(scanReply)
	var buf []byte
	var q Request
	for _, c := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"EncodeRequest", 1, func() { sink = EncodeRequest(executeRequest) }},
		{"EncodeReply", 1, func() { sink = EncodeReply(oneRowReply) }},
		{"AppendRequest to a reused buffer", 0, func() { buf = AppendRequest(buf[:0], executeRequest) }},
		{"AppendReply to a reused buffer", 0, func() { buf = AppendReply(buf[:0], oneRowReply) }},
		{"DecodeRequest", 2, func() {
			if _, err := DecodeRequest(qb); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeRequestInto a reused Request", 0, func() {
			if err := DecodeRequestInto(&q, qb); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeReply", 6, func() {
			if _, err := DecodeReply(rb); err != nil {
				t.Fatal(err)
			}
		}},
		{"EncodeReply of 1000 forwarded rows", 1, func() { sink = EncodeReply(scanReply) }},
		{"DecodeReply of 1000 rows", 5, func() {
			if r, err := DecodeReply(sb); err != nil || len(r.Rows) != 1000 {
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
