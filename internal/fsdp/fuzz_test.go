package fsdp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

func fuzzSeeds() (requests, replies, specs, groups [][]byte) {
	spec := &AggSpec{GroupBy: []int{1, 300}, Cols: []AggCol{{Fn: AggCount, Star: true}, {Fn: AggSum, Col: 2}, {Fn: AggMax, Col: 130}}}
	for _, q := range []Request{
		{Kind: KReadRecord, File: "T", Key: []byte{1}},
		{Kind: KAggFirst, Tx: 1 << 40, File: "ACCT", Range: keys.Range{Low: []byte{1}, High: []byte{2}, LowExcl: true, HighIncl: true},
			Pred: []byte{9, 9}, Agg: EncodeAggSpec(spec), Hint: HintSequential},
		{Kind: KGetNextVSBB, File: "EMP", Proj: []int{0, 3, 200}, SCB: 7, RowLimit: 16, ScanLimit: 10, Mode: 2},
		{Kind: KUpdateBlock, Tx: 3, File: "EMP", Rows: [][]byte{{1}, {}, {2, 2}}, RowKeys: [][]byte{{5}, {6}, {7}}},
		{Kind: KCreateFile, File: "T", Schema: []byte("schema"), Check: []byte("check"), Audit: true, CommitLSN: 1 << 33},
		{Kind: KUpdateKey, Tx: 9, File: "ACCT", Key: []byte{0x80, 0, 0, 0, 0, 0, 0, 42}, Pred: []byte{9, 9}, Assign: []byte{1, 2, 3}},
		{Kind: KDeleteKey, Tx: 9, File: "ACCT", Key: []byte{0x80, 0, 0, 0, 0, 0, 0, 43}},
	} {
		requests = append(requests, EncodeRequest(&q))
	}
	entry := AppendGroup(nil, 2, record.Encode(record.Row{record.Int(7), record.String("ENG")})[1:], []AggPartial{
		{Count: 3}, {Count: 3, SumI: -42, SumF: -42}, {Count: 2, SumF: 1.5, Float: true}, {Count: 5, Val: record.String("abc")}})
	for _, r := range []Reply{
		{},
		{Code: ErrConstraint, Err: "CHECK failed"},
		{Rows: [][]byte{{1, 2}, {3}}, RowKeys: [][]byte{{9}, {8}}, LastKey: []byte{4, 4}, SCB: 5, Examined: 640, BlocksRead: 7, CacheHits: 31},
		{Rows: [][]byte{entry, entry}, Done: true, Count: 2, Root: 99},
	} {
		replies = append(replies, EncodeReply(&r))
	}
	specs = [][]byte{EncodeAggSpec(spec), EncodeAggSpec(&AggSpec{Cols: []AggCol{{Fn: AggMin, Col: 1}}})}
	groups = [][]byte{append([]byte{4}, entry...), append([]byte{1}, AppendGroup(nil, 0, nil, []AggPartial{{Count: 9}})...)}
	return
}

// TestEncodersAreCanonical is the fuzzer's property on its own seeds, where
// it is exact: what an encoder wrote decodes and re-encodes byte for byte.
func TestEncodersAreCanonical(t *testing.T) {
	requests, replies, specs, groups := fuzzSeeds()
	for _, set := range [][][]byte{requests, replies, specs, groups} {
		for _, data := range set {
			encs := fuzzOne(t, data)
			if !slices.ContainsFunc(encs, func(enc []byte) bool { return bytes.Equal(enc, data) }) {
				t.Errorf("%x decoded and re-encoded to %x", data, encs)
			}
		}
	}
}

// TestHostileCountsAreRefused: a count straight off the wire once sized a
// slice — five bytes could ask for gigabytes.
func TestHostileCountsAreRefused(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // 2^35-1 elements, and nothing behind them
	q := EncodeRequest(&Request{Kind: KUpdateBlock, File: "T"})
	r := EncodeReply(&Reply{})
	for name, data := range map[string][]byte{
		"reply rows":         append(append([]byte{}, r[:2]...), huge...),
		"request projection": append(append([]byte{}, q[:bytes.IndexByte(q, 'T')+5]...), huge...),
	} {
		if enc := fuzzOne(t, data); enc != nil {
			t.Errorf("%s: a count of 2^35-1 with no elements decoded (%x)", name, enc)
		}
	}
}

// recoders decode a message and encode it again, one per decoder a Disk
// Process or a File System runs on what the network hands it.
var recoders = []struct {
	what   string
	recode func(t *testing.T, b []byte) ([]byte, error)
}{
	{"request", func(_ *testing.T, b []byte) ([]byte, error) {
		q, err := DecodeRequest(b)
		if err != nil {
			return nil, err
		}
		return EncodeRequest(q), nil
	}},
	{"reply", func(_ *testing.T, b []byte) ([]byte, error) {
		r, err := DecodeReply(b)
		if err != nil {
			return nil, err
		}
		return EncodeReply(r), nil
	}},
	{"agg spec", func(_ *testing.T, b []byte) ([]byte, error) {
		s, err := DecodeAggSpec(b)
		if err != nil {
			return nil, err
		}
		return EncodeAggSpec(s), nil
	}},
	// DecodeGroup is told the column count: the leading byte spells it.
	// GroupLen is held to AppendGroup here, on whatever partials the
	// fuzzer finds.
	{"group", func(t *testing.T, b []byte) ([]byte, error) {
		if len(b) == 0 {
			return nil, errors.New("no column count")
		}
		keyVals, partials, err := DecodeGroup(b[1:], int(b[0]%8), nil, nil)
		if err != nil {
			return nil, err
		}
		var keyFields []byte
		for _, v := range keyVals {
			keyFields = record.AppendValue(keyFields, v)
		}
		enc := AppendGroup([]byte{b[0]}, len(keyVals), keyFields, partials)
		if got := GroupLen(len(keyVals), len(keyFields), partials); got != len(enc)-1 {
			t.Fatalf("group %x: GroupLen says %d, AppendGroup wrote %d", b, got, len(enc)-1)
		}
		return enc, nil
	}},
}

// heldRequest and heldReply are what a service slot's Request and a
// statement's Reply last held: every field set, so a decode into them
// that leaves one standing — a stale Pred, Assign, Proj, Rows or RowKeys —
// differs from a decode into a fresh one.
var (
	heldRequest = EncodeRequest(&Request{Kind: KUpdateBlock, Tx: 77, File: "HELD", Key: []byte("key"), Row: []byte("row"),
		Range: keys.Range{Low: []byte{1}, High: []byte{}, LowExcl: true, HighIncl: true}, Pred: []byte{9, 9}, Proj: []int{3, 1, 2},
		Assign: []byte{1, 2}, SCB: 12, Rows: [][]byte{{1}, {2}, {3}}, RowKeys: [][]byte{{4}, {5}, {6}}, Mode: 2,
		Schema: []byte("s"), Check: []byte("c"), Audit: true, CommitLSN: 5, RowLimit: 6, Agg: []byte{7}, ScanLimit: 8, Hint: HintKeyed})
	heldReply = EncodeReply(&Reply{Code: ErrGeneral, Err: "held", Rows: [][]byte{{1}, {2}, {3}}, RowKeys: [][]byte{{4}, {5}, {6}},
		LastKey: []byte{7}, Done: true, Count: 3, SCB: 4, Root: 5, Examined: 6, BlocksRead: 7, CacheHits: 8})
)

// reuseIsFresh holds the two Into decoders to their promise: decoding
// data into a struct that last held another message is decoding it into
// a new one — the same outcome, the same message.
func reuseIsFresh(t *testing.T, data []byte) {
	var q Request
	if err := DecodeRequestInto(&q, heldRequest, nil); err != nil {
		t.Fatal(err)
	}
	errReused := DecodeRequestInto(&q, data, nil)
	fresh, err := DecodeRequest(data)
	if fmt.Sprint(err) != fmt.Sprint(errReused) || err == nil && !reflect.DeepEqual(&q, fresh) {
		t.Fatalf("request %x into a held one: %+v, %v; into a new one: %+v, %v", data, q, errReused, fresh, err)
	}
	var r Reply
	if err := DecodeReplyInto(&r, heldReply); err != nil {
		t.Fatal(err)
	}
	errReused = DecodeReplyInto(&r, data)
	freshReply, err := DecodeReply(data)
	if fmt.Sprint(err) != fmt.Sprint(errReused) || err == nil && !reflect.DeepEqual(&r, freshReply) {
		t.Fatalf("reply %x into a held one: %+v, %v; into a new one: %+v, %v", data, r, errReused, freshReply, err)
	}
}

// fuzzOne runs data through all four decoders. None may panic or allocate
// more than a small multiple of its input; it returns the re-encodings of
// whatever decoded, each checked to be no longer than the input and a
// fixed point of decode-encode.
func fuzzOne(t *testing.T, data []byte) (encs [][]byte) {
	reuseIsFresh(t, data)
	for _, c := range recoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := c.recode(t, data)
		runtime.ReadMemStats(&after)
		// The largest honest ratio is a [][]byte of empty slices: 24 bytes
		// of header per input byte, and the re-encoding on top.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d): %x", c.what, len(data), got, limit, data)
		}
		if err != nil {
			continue
		}
		if len(enc) > len(data) {
			t.Fatalf("%s %x re-encoded longer: %x", c.what, data, enc)
		}
		if twice, err := c.recode(t, enc); err != nil || !bytes.Equal(twice, enc) {
			t.Fatalf("%s %x re-encoded to %x, which decodes and encodes to %x, %v", c.what, data, enc, twice, err)
		}
		encs = append(encs, enc)
	}
	return encs
}

// FuzzFsdp feeds hostile bytes to the four decoders a Disk Process and a
// File System run on what the network hands them. What decodes re-encodes
// to the input's own bytes — unless the input padded a varint, overflowed
// a 32-bit field or spelt a flag as something other than 0 or 1, and then
// to something no longer that decodes to the same message again.
func FuzzFsdp(f *testing.F) {
	requests, replies, specs, groups := fuzzSeeds()
	for _, set := range [][][]byte{requests, replies, specs, groups} {
		for _, data := range set {
			f.Add(data)
		}
	}
	f.Add([]byte{0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}) // a reply promising 2^35-1 rows
	for _, spec := range hostileAggSpecs {
		f.Add(spec)
	}
	// A SUM of a VARCHAR field decodes: the Disk Process refuses it
	// against the record (dp's TestHostileAggSpecsAreRefused).
	f.Add(EncodeAggSpec(&AggSpec{GroupBy: []int{0}, Cols: []AggCol{{Fn: AggSum, Col: 1}}}))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzOne(t, data) })
}
