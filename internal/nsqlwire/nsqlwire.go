// Package nsqlwire is the application protocol of the SQL serving
// endpoint: the payload encoding carried inside wire request/reply
// frames between nsqlclient and the "$SQL" process an nsqld registers
// on its cluster's message network. The transport below it (msg/wire)
// only moves opaque (server, payload) conversations; this package gives
// those payloads their SQL meaning — a statement or meta operation out,
// a result set, rendered text, or an application error back.
//
// The encoding follows the FS-DP message style: uvarint-length-prefixed
// byte strings, rows in the record package's tagged value encoding. For a
// pass-through SELECT the rows are the Disk Processes' bytes — the
// endpoint appends what they shipped (Reply.Encoded) behind each row's
// length and looks inside none of it; every other row is encoded here
// to the same format, so a result row costs the same on the TCP wire as
// on the simulated interconnect and a client cannot tell the two apart.
// DecodeReply is where every row, whoever encoded it, is validated.
package nsqlwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"nonstopsql/internal/record"
)

// ServerName is the process name the SQL endpoint registers under.
const ServerName = "$SQL"

// An Op selects what the endpoint does with the request's argument.
type Op byte

const (
	// OpPing answers with an empty ok reply (liveness, warm-up).
	OpPing Op = iota + 1
	// OpExec parses and executes one SQL statement (autocommit).
	OpExec
	// OpExplain renders the statement's plan without running it.
	OpExplain
	// OpExplainAnalyze runs the statement and renders plan + actuals.
	OpExplainAnalyze
	// OpTables renders the catalog's table list, one name per line.
	OpTables
	// OpDescribe renders one table's definition.
	OpDescribe
	// OpStats renders the cumulative activity counters.
	OpStats
	// OpResetStats zeroes the activity counters.
	OpResetStats
	// OpCrash crashes a volume's Disk Process (fault injection).
	OpCrash
	// OpRestart recovers and restarts a volume's Disk Process.
	OpRestart
	// OpPrepare compiles Arg into a server-side prepared statement; the
	// reply carries the statement handle (Reply.Handle) and its parameter
	// count (Reply.Affected).
	OpPrepare
	// OpExecute runs the prepared statement named by Request.Handle with
	// Request.Params as its parameter vector.
	OpExecute
	// OpCloseStmt discards the server-side handle in Request.Handle.
	OpCloseStmt
)

// Error classes for Reply.Code, so remote callers can distinguish fault
// domains without parsing message text. Code 0 is no application error
// (Reply.Err is empty).
const (
	// CodeBadStatement: the statement itself is at fault — parse or bind
	// failure, wrong parameter count. Client error; retrying the same
	// bytes cannot succeed.
	CodeBadStatement byte = iota + 1
	// CodeStaleHandle: the prepared-statement handle is unknown or was
	// evicted from the server's handle table. Re-prepare and retry.
	CodeStaleHandle
	// CodeServer: the statement was well-formed but execution failed
	// (constraint violation, lock timeout, volume down, ...).
	CodeServer
)

// ErrBadStatement tags client-fault statement errors: the reply's error
// from a pool or free function matches errors.Is against this.
var ErrBadStatement = errors.New("nsqlwire: bad statement")

// ErrStaleHandle tags an EXECUTE whose server-side handle no longer
// exists (server restart, handle-table eviction). Callers re-prepare.
var ErrStaleHandle = errors.New("nsqlwire: stale statement handle")

// A Request is one operation: the op code and its argument — the SQL
// text for statement ops, an object name for Describe/Crash/Restart,
// empty otherwise. Prepared-statement ops carry the statement handle
// and (for Execute) the parameter vector instead of statement text, so
// an EXECUTE frame costs a uvarint plus the encoded values, not the SQL
// bytes.
type Request struct {
	Op     Op
	Arg    string
	Handle uint64
	Params record.Row
}

// EncodeRequest serializes a request payload, in one allocation of
// exactly its size.
func EncodeRequest(q *Request) []byte { return AppendRequest(make([]byte, 0, requestLen(q)), q) }

// AppendRequest appends a request payload to b, growing it at most once.
func AppendRequest(b []byte, q *Request) []byte {
	b = slices.Grow(b, requestLen(q))
	b = append(b, byte(q.Op))
	b = appendString(b, q.Arg)
	b = binary.AppendUvarint(b, q.Handle)
	if len(q.Params) == 0 {
		return append(b, 0) // no parameter vector: the empty byte string
	}
	return appendRow(b, q.Params)
}

// requestLen is the length AppendRequest writes for q.
func requestLen(q *Request) int {
	n := 1 + stringLen(q.Arg) + uvarintLen(q.Handle) + 1
	if len(q.Params) > 0 {
		n += rowLen(q.Params) - 1
	}
	return n
}

// DecodeRequest parses a request payload.
func DecodeRequest(b []byte) (*Request, error) {
	q := new(Request)
	if err := DecodeRequestInto(q, b); err != nil {
		return nil, err
	}
	return q, nil
}

// DecodeRequestInto parses a request payload into q, overwriting all of
// it. The parameter values land in q.Params' storage when it is large
// enough, and Arg is kept when it already holds the same text, so a
// server that decodes into one Request per service slot allocates for
// neither. Nothing in q aliases b.
func DecodeRequestInto(q *Request, b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("nsqlwire: empty request")
	}
	q.Op = Op(b[0])
	arg, b, err := takeBytes(b[1:])
	if err != nil {
		return err
	}
	if string(arg) != q.Arg {
		q.Arg = string(arg)
	}
	var sz int
	q.Handle, sz = binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("nsqlwire: bad statement handle")
	}
	b = b[sz:]
	params, b, err := takeBytes(b)
	if err != nil {
		return err
	}
	q.Params = q.Params[:0]
	if len(params) > 0 {
		if _, q.Params, err = record.AppendDecode(q.Params, params); err != nil {
			return fmt.Errorf("nsqlwire: params: %w", err)
		}
	}
	if len(q.Params) == 0 {
		q.Params = nil
	}
	if len(b) != 0 {
		return fmt.Errorf("nsqlwire: %d trailing request bytes", len(b))
	}
	return nil
}

// A Reply is one operation's outcome. Err carries the application-level
// error (parse failure, constraint violation, unknown table — "" means
// success); transport-level failures never reach this layer, they
// travel as wire error frames.
type Reply struct {
	Err      string
	Code     byte // error class when Err != "" (CodeBadStatement, ...)
	Columns  []string
	Rows     []record.Row
	Affected uint64
	Text     string // rendered output for the text ops
	Handle   uint64 // statement handle (OpPrepare replies)

	// Encoded holds rows already in the record encoding (a pass-through
	// SELECT's, as the Disk Processes shipped them). EncodeReply sends
	// them after Rows, as they are; DecodeReply never sets it — a decoded
	// reply has every row in Rows.
	Encoded [][]byte
}

// EncodeReply serializes a reply payload, in one allocation of exactly
// its size.
func EncodeReply(r *Reply) []byte { return AppendReply(make([]byte, 0, replyLen(r)), r) }

// AppendReply appends a reply payload to b, growing it at most once: each
// row behind its length — a row of Rows appended value by value, a row of
// Encoded copied. The length prefix is the framing, so nothing inside an
// Encoded row can break it; whether those bytes are a record is for
// DecodeReply to say.
func AppendReply(b []byte, r *Reply) []byte {
	b = slices.Grow(b, replyLen(r))
	b = appendString(b, r.Err)
	b = binary.AppendUvarint(b, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Rows)+len(r.Encoded)))
	for _, row := range r.Rows {
		b = appendRow(b, row)
	}
	for _, enc := range r.Encoded {
		b = binary.AppendUvarint(b, uint64(len(enc)))
		b = append(b, enc...)
	}
	b = binary.AppendUvarint(b, r.Affected)
	b = appendString(b, r.Text)
	b = append(b, r.Code)
	return binary.AppendUvarint(b, r.Handle)
}

// replyLen is the length AppendReply writes for r.
func replyLen(r *Reply) int {
	n := stringLen(r.Err) + uvarintLen(uint64(len(r.Columns))) + uvarintLen(uint64(len(r.Rows)+len(r.Encoded))) +
		uvarintLen(r.Affected) + stringLen(r.Text) + 1 + uvarintLen(r.Handle)
	for _, c := range r.Columns {
		n += stringLen(c)
	}
	for _, row := range r.Rows {
		n += rowLen(row)
	}
	for _, enc := range r.Encoded {
		n += uvarintLen(uint64(len(enc))) + len(enc)
	}
	return n
}

// DecodeReply parses a reply payload.
func DecodeReply(b []byte) (*Reply, error) {
	r := new(Reply)
	if err := DecodeReplyInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReplyInto parses a reply payload into r, overwriting all of it.
// Nothing in r aliases b, and none of r's old storage is written: the
// columns, rows and values are new, because a reply's rows are what its
// requester keeps. The column names share one string, and every row's
// values one arena.
func DecodeReplyInto(r *Reply, b []byte) error {
	*r = Reply{}
	e, b, err := takeBytes(b)
	if err != nil {
		return err
	}
	r.Err = string(e)
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("nsqlwire: bad column count")
	}
	b = b[sz:]
	// The counts are untrusted: a column takes at least one byte, a row
	// at least two, so the bytes present bound what is allocated.
	if n > 0 {
		r.Columns = make([]string, 0, min(n, uint64(len(b))))
		// Every name is cut from one string of the names' bytes, their
		// length prefixes included.
		names := b
		for i := uint64(0); i < n; i++ {
			if _, b, err = takeBytes(b); err != nil {
				return err
			}
		}
		names = names[:len(names)-len(b)]
		all := string(names)
		for off := 0; off < len(names); {
			l, sz := binary.Uvarint(names[off:])
			off += sz + int(l)
			r.Columns = append(r.Columns, all[off-int(l):off])
		}
	}
	n, sz = binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("nsqlwire: bad row count")
	}
	b = b[sz:]
	// Every row of the reply decodes into one arena (record.AppendDecode):
	// an allocation per reply, not per row. A value takes at least one
	// byte: the bytes present bound the arena too.
	var arena record.Row
	if n > 0 {
		rows := min(n, uint64(len(b)/2))
		r.Rows = make([]record.Row, 0, rows)
		arena = make(record.Row, 0, min(rows*uint64(len(r.Columns)), uint64(len(b))))
	}
	for i := uint64(0); i < n; i++ {
		var enc []byte
		if enc, b, err = takeBytes(b); err != nil {
			return err
		}
		var row record.Row
		if arena, row, err = record.AppendDecode(arena, enc); err != nil {
			return fmt.Errorf("nsqlwire: row %d: %w", i, err)
		}
		r.Rows = append(r.Rows, row)
	}
	r.Affected, sz = binary.Uvarint(b)
	if sz <= 0 {
		return fmt.Errorf("nsqlwire: bad affected count")
	}
	b = b[sz:]
	t, b, err := takeBytes(b)
	if err != nil {
		return err
	}
	r.Text = string(t)
	if len(b) == 0 {
		return fmt.Errorf("nsqlwire: truncated reply code")
	}
	r.Code = b[0]
	r.Handle, sz = binary.Uvarint(b[1:])
	if sz <= 0 {
		return fmt.Errorf("nsqlwire: bad reply handle")
	}
	b = b[1+sz:]
	if len(b) != 0 {
		return fmt.Errorf("nsqlwire: %d trailing reply bytes", len(b))
	}
	return nil
}

func appendString(b []byte, v string) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// appendRow appends a row as a byte string: its record encoding
// (record.Encode's bytes) behind that encoding's length.
func appendRow(b []byte, r record.Row) []byte {
	b = binary.AppendUvarint(b, uint64(record.EncodedLen(r)))
	b = binary.AppendUvarint(b, uint64(len(r)))
	for _, v := range r {
		b = record.AppendValue(b, v)
	}
	return b
}

// stringLen and rowLen are the sizes appendString and appendRow produce.
func stringLen(v string) int { return uvarintLen(uint64(len(v))) + len(v) }

func rowLen(r record.Row) int {
	n := record.EncodedLen(r)
	return uvarintLen(uint64(n)) + n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func takeBytes(b []byte) (v, rest []byte, err error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return nil, nil, fmt.Errorf("nsqlwire: truncated byte string")
	}
	return b[n : n+int(l)], b[n+int(l):], nil
}
