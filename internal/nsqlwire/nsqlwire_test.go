package nsqlwire

import (
	"reflect"
	"testing"

	"nonstopsql/internal/record"
)

func TestRequestRoundTrip(t *testing.T) {
	for _, q := range seedRequests() {
		got, err := DecodeRequest(EncodeRequest(&q))
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if !reflect.DeepEqual(*got, q) {
			t.Errorf("round trip changed the request:\nsent: %+v\ngot:  %+v", q, *got)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, r := range seedReplies() {
		got, err := DecodeReply(EncodeReply(&r))
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if !reflect.DeepEqual(*got, r) {
			t.Errorf("round trip changed the reply:\nsent: %+v\ngot:  %+v", r, *got)
		}
	}
}

func TestDecodeRejectsTruncationAndTrailingBytes(t *testing.T) {
	qb := EncodeRequest(&Request{Op: OpExecute, Handle: 5, Params: record.Row{record.Int(1)}})
	for n := 0; n < len(qb); n++ {
		if _, err := DecodeRequest(qb[:n]); err == nil {
			t.Errorf("request truncated to %d bytes decoded", n)
		}
	}
	if _, err := DecodeRequest(append(qb, 0)); err == nil {
		t.Error("request with a trailing byte decoded")
	}

	rb := EncodeReply(&Reply{Handle: 5, Affected: 2})
	for n := 0; n < len(rb); n++ {
		if _, err := DecodeReply(rb[:n]); err == nil {
			t.Errorf("reply truncated to %d bytes decoded", n)
		}
	}
	if _, err := DecodeReply(append(rb, 0)); err == nil {
		t.Error("reply with a trailing byte decoded")
	}
}
