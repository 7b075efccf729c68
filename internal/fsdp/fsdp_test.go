package fsdp

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nonstopsql/internal/keys"
)

func TestRequestRoundTrip(t *testing.T) {
	q := &Request{
		Kind: KGetFirstVSBB,
		Tx:   42,
		File: "EMP",
		Key:  []byte{1, 2},
		Row:  []byte{3, 4, 5},
		Range: keys.Range{
			Low: keys.AppendInt64(nil, 1), High: keys.AppendInt64(nil, 1000), HighIncl: true,
		},
		Pred:      []byte{9, 9},
		Proj:      []int{1, 2},
		Assign:    []byte{7},
		SCB:       3,
		Rows:      [][]byte{{1}, {2, 2}},
		RowKeys:   [][]byte{{5}, {6}},
		Mode:      2,
		Schema:    []byte("schema"),
		Check:     []byte("check"),
		Audit:     true,
		CommitLSN: 77,
		RowLimit:  100,
		Agg:       []byte{11, 12},
		ScanLimit: 250,
	}
	got, err := DecodeRequest(EncodeRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, got) {
		t.Errorf("got %+v\nwant %+v", got, q)
	}
}

func TestRequestMinimal(t *testing.T) {
	q := &Request{Kind: KAbort, Tx: 1, File: "T"}
	got, err := DecodeRequest(EncodeRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KAbort || got.Tx != 1 || got.File != "T" || got.Proj != nil || got.Rows != nil {
		t.Errorf("got %+v", got)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := &Reply{
		Code:    ErrConstraint,
		Err:     "CHECK failed",
		Rows:    [][]byte{{1, 2}, {3}},
		RowKeys: [][]byte{{9}, {8}},
		LastKey: []byte{4, 4},
		Done:    true,
		Count:   12,
		SCB:     5,
		Root:    99,

		Examined:   640,
		BlocksRead: 7,
		CacheHits:  31,
	}
	got, err := DecodeReply(EncodeReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("got %+v\nwant %+v", got, r)
	}
	if got.OK() {
		t.Error("error reply claims OK")
	}
	if !(&Reply{}).OK() {
		t.Error("empty reply not OK")
	}
}

func TestRangeRoundTripVariants(t *testing.T) {
	cases := []keys.Range{
		{},
		keys.All(),
		keys.Point(keys.AppendInt64(nil, 5)),
		{Low: []byte{1}, LowExcl: true},
		{High: []byte{2}, HighIncl: true},
		{Low: []byte{}, High: []byte{0xFF}},
	}
	for _, r := range cases {
		q := &Request{Kind: KGetFirstRSBB, File: "T", Range: r}
		got, err := DecodeRequest(EncodeRequest(q))
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		g := got.Range
		if (g.Low == nil) != (r.Low == nil) || (g.High == nil) != (r.High == nil) ||
			!bytes.Equal(g.Low, r.Low) || !bytes.Equal(g.High, r.High) ||
			g.LowExcl != r.LowExcl || g.HighIncl != r.HighIncl {
			t.Errorf("range %v -> %v", r, g)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeRequest(nil); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := DecodeReply(nil); err == nil {
		t.Error("empty reply accepted")
	}
	good := EncodeRequest(&Request{Kind: KReadRecord, File: "T"})
	for cut := 1; cut < len(good); cut++ {
		if _, err := DecodeRequest(good[:cut]); err == nil {
			t.Errorf("truncated request at %d accepted", cut)
		}
	}
	if _, err := DecodeRequest(append(good, 0xFF)); err == nil {
		t.Error("trailing request bytes accepted")
	}
	goodR := EncodeReply(&Reply{Count: 1})
	for cut := 1; cut < len(goodR); cut++ {
		if _, err := DecodeReply(goodR[:cut]); err == nil {
			t.Errorf("truncated reply at %d accepted", cut)
		}
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rb := func() []byte {
			n := rng.Intn(20)
			if n == 0 {
				return nil
			}
			out := make([]byte, n)
			rng.Read(out)
			return out
		}
		q := &Request{
			Kind: Kind(rng.Intn(24) + 1),
			Tx:   rng.Uint64() >> 1,
			File: string(rb()),
			Key:  rb(),
			Row:  rb(),
			Pred: rb(),
		}
		if rng.Intn(2) == 0 {
			q.Range.Low = append(rb(), 1)
		}
		if rng.Intn(2) == 0 {
			q.Range.High = append(rb(), 2)
			q.Range.HighIncl = rng.Intn(2) == 0
		}
		for i := 0; i < rng.Intn(4); i++ {
			q.Rows = append(q.Rows, append(rb(), 3))
		}
		if rng.Intn(2) == 0 {
			q.Agg = append(rb(), 4)
			q.ScanLimit = rng.Uint32() >> 1
		}
		got, err := DecodeRequest(EncodeRequest(q))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(q, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindNames(t *testing.T) {
	if KGetFirstVSBB.String() != "GET^FIRST^VSBB" {
		t.Errorf("got %q", KGetFirstVSBB.String())
	}
	if KUpdateSubsetNext.String() != "UPDATE^SUBSET^NEXT" {
		t.Errorf("got %q", KUpdateSubsetNext.String())
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind renders empty")
	}
	for k, name := range kindNames {
		if want := strings.Replace(name, "^FIRST", "^NEXT", 1); want != name && k.Next().String() != want {
			t.Errorf("%s.Next() = %s, want %s", name, k.Next(), want)
		}
	}
}

func TestVSBBRequestSmallerThanRowsReturned(t *testing.T) {
	// Sanity on the economics: one VSBB request's size must be tiny
	// compared to a block of returned rows, so re-drives are cheap.
	q := &Request{Kind: KGetNextVSBB, Tx: 9, File: "EMP", SCB: 1,
		Range: keys.Range{Low: keys.AppendInt64(nil, 500), LowExcl: true, High: keys.AppendInt64(nil, 1000), HighIncl: true}}
	if len(EncodeRequest(q)) > 100 {
		t.Errorf("GET^NEXT^VSBB is %d bytes", len(EncodeRequest(q)))
	}
}
