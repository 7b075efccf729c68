package wal

import (
	"fmt"
	"testing"
)

func TestFlushAfterCloseIsNoOp(t *testing.T) {
	tr, v := newTestTrail(t, Config{})
	tr.Append(dataRec(1, "k"))
	tr.Close()
	writesAtClose := v.Stats().Writes + v.Stats().BulkWrites
	tr.Append(dataRec(2, "late"))
	tr.Flush()
	tr.FlushTo(99)
	if got := v.Stats().Writes + v.Stats().BulkWrites; got != writesAtClose {
		t.Fatal("explicit flush after Close wrote to the volume")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	tr, v := newTestTrail(t, Config{})
	tr.Append(dataRec(1, "k"))
	tr.Close()
	writes := v.Stats().Writes + v.Stats().BulkWrites
	tr.Close()
	if got := v.Stats().Writes + v.Stats().BulkWrites; got != writes {
		t.Fatal("second Close re-flushed")
	}
}

// TestScanAfterManySmallFlushes round-trips a trail built from many tiny
// flushes, each of which re-fills the partial tail block. This covers
// the flush packer's run-origin tracking (a partial tail must extend the
// existing block, never restart the run at an unrelated origin).
func TestScanAfterManySmallFlushes(t *testing.T) {
	tr, v := newTestTrail(t, Config{})
	const n = 60
	for i := 0; i < n; i++ {
		tr.Append(dataRec(uint64(i+1), fmt.Sprintf("key-%03d", i)))
		tr.Flush()
	}
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("scanned %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) || r.TxID != uint64(i+1) || string(r.Key) != fmt.Sprintf("key-%03d", i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

// TestCompensationFlagRoundTrip checks the flag recovery relies on to
// skip compensations in its undo pass survives encode/decode.
func TestCompensationFlagRoundTrip(t *testing.T) {
	tr, v := newTestTrail(t, Config{})
	r := dataRec(7, "comp")
	r.Compensation = true
	tr.Append(r)
	plain := dataRec(8, "plain")
	tr.Append(plain)
	tr.Flush()
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if !recs[0].Compensation || recs[1].Compensation {
		t.Fatalf("compensation flags lost: %v %v", recs[0].Compensation, recs[1].Compensation)
	}
}
