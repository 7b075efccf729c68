package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"nonstopsql/internal/disk"
)

func newTestTrail(t *testing.T, cfg Config) (*Trail, *disk.Volume) {
	t.Helper()
	v := disk.NewVolume("$AUDIT", true)
	tr := newTrailOn(t, v, cfg)
	t.Cleanup(tr.Close)
	return tr, v
}

func dataRec(tx uint64, key string) *Record {
	return &Record{
		Type: RecUpdate, TxID: tx, Volume: "$DATA1", File: "EMP",
		Key: []byte(key), Before: []byte("before-image"), After: []byte("after-image"),
	}
}

func TestNewTrailRequiresVolume(t *testing.T) {
	if _, err := NewTrail(Config{}); err == nil {
		t.Error("nil volume accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := &Record{
		LSN: 7, Type: RecUpdate, TxID: 42, Volume: "$DATA1", File: "ACCOUNT",
		Key: []byte{1, 2, 3}, Before: []byte("b"), After: []byte("a"), FieldCompressed: true,
	}
	enc := r.Encode(nil)
	got, rest, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Error("trailing bytes")
	}
	if !reflect.DeepEqual(r, got) {
		t.Errorf("got %+v want %+v", got, r)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(tx uint64, vol, file string, key, before, after []byte, fc bool, typ uint8) bool {
		r := &Record{
			Type: RecType(typ%7 + 1), TxID: tx, Volume: vol, File: file,
			Key: key, Before: before, After: after, FieldCompressed: fc,
		}
		enc := r.Encode(nil)
		got, rest, err := Decode(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		// nil and empty slices are equivalent on the wire
		norm := func(b []byte) []byte {
			if len(b) == 0 {
				return nil
			}
			return b
		}
		return got.TxID == r.TxID && got.Volume == r.Volume && got.File == r.File &&
			bytes.Equal(norm(got.Key), norm(r.Key)) &&
			bytes.Equal(norm(got.Before), norm(r.Before)) &&
			bytes.Equal(norm(got.After), norm(r.After)) &&
			got.FieldCompressed == r.FieldCompressed && got.Type == r.Type
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	bad := [][]byte{
		{5, 1, 2},            // frame longer than data
		{2, 1, 0},            // body too short for fields
		{1, byte(RecUpdate)}, // missing flags
	}
	for _, b := range bad {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x) accepted", b)
		}
	}
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	tr, _ := newTestTrail(t, Config{})
	var last LSN
	for i := 0; i < 10; i++ {
		lsn := tr.Append(dataRec(1, fmt.Sprintf("k%d", i)))
		if lsn <= last {
			t.Fatalf("LSN %d not > %d", lsn, last)
		}
		last = lsn
	}
}

func TestFlushToMakesDurable(t *testing.T) {
	tr, _ := newTestTrail(t, Config{})
	lsn := tr.Append(dataRec(1, "k"))
	if tr.FlushedLSN() >= lsn {
		t.Fatal("record durable before flush")
	}
	tr.FlushTo(lsn)
	if tr.FlushedLSN() < lsn {
		t.Fatal("FlushTo did not flush")
	}
	// Second FlushTo is a no-op.
	s := tr.Stats()
	tr.FlushTo(lsn)
	if tr.Stats().Flushes != s.Flushes {
		t.Error("redundant FlushTo issued I/O")
	}
}

func TestBufferFullTriggersFlush(t *testing.T) {
	tr, _ := newTestTrail(t, Config{BufferFullBytes: 256})
	for i := 0; i < 20; i++ {
		tr.Append(dataRec(1, fmt.Sprintf("key-%04d", i)))
	}
	s := tr.Stats()
	if s.BufferFullFlushes == 0 {
		t.Error("no buffer-full flushes despite small buffer")
	}
}

// TestBufferLeavesTheFlushToItsCaller: Buffer never writes; the caller it
// tells the buffer is full flushes with FlushFull, and a FlushFull for a
// record another flush already took writes nothing.
func TestBufferLeavesTheFlushToItsCaller(t *testing.T) {
	tr, _ := newTestTrail(t, Config{BufferFullBytes: 256})
	var lsn LSN
	full := false
	for i := 0; !full; i++ {
		lsn, full = tr.Buffer(dataRec(1, fmt.Sprintf("key-%04d", i)))
		if tr.Stats().Flushes != 0 {
			t.Fatalf("Buffer wrote the trail at record %d", i)
		}
	}
	tr.FlushFull(lsn)
	if s := tr.Stats(); s.Flushes != 1 || s.BufferFullFlushes != 1 || tr.FlushedLSN() != lsn {
		t.Fatalf("after FlushFull: %+v, durable to %d, want 1 flush to %d", s, tr.FlushedLSN(), lsn)
	}
	tr.FlushFull(lsn)
	if s := tr.Stats(); s.Flushes != 1 {
		t.Errorf("a FlushFull for a record already durable flushed again: %d flushes", s.Flushes)
	}
}

func TestCompressedAuditFillsBufferSlower(t *testing.T) {
	// The paper: field compression → fewer buffer-full audit sends.
	run := func(compressed bool) uint64 {
		tr, _ := newTestTrail(t, Config{BufferFullBytes: 1024})
		for i := 0; i < 200; i++ {
			r := dataRec(1, fmt.Sprintf("key-%04d", i))
			if compressed {
				r.Before, r.After = []byte("b"), []byte("a")
				r.FieldCompressed = true
			} else {
				r.Before = bytes.Repeat([]byte("B"), 120)
				r.After = bytes.Repeat([]byte("A"), 120)
			}
			tr.Append(r)
		}
		return tr.Stats().BufferFullFlushes
	}
	full, comp := run(false), run(true)
	if comp*3 > full {
		t.Errorf("compressed flushes %d not ≪ full-image flushes %d", comp, full)
	}
}

func TestCommitWithoutGroupCommitFlushesImmediately(t *testing.T) {
	tr, _ := newTestTrail(t, Config{})
	lsn := tr.AppendCommit(1)
	if tr.FlushedLSN() < lsn {
		t.Fatal("commit not durable without group commit")
	}
	tr.WaitDurable(lsn) // must not block
}

func TestScanRecoversRecordsInOrder(t *testing.T) {
	tr, v := newTestTrail(t, Config{})
	var want []string
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%04d", i)
		tr.Append(dataRec(uint64(i), k))
		want = append(want, k)
	}
	tr.AppendCommit(99)
	tr.Flush()
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 51 {
		t.Fatalf("scanned %d records, want 51", len(recs))
	}
	for i := 0; i < 50; i++ {
		if string(recs[i].Key) != want[i] {
			t.Fatalf("record %d key %q want %q", i, recs[i].Key, want[i])
		}
		if recs[i].LSN != LSN(i+1) {
			t.Fatalf("record %d LSN %d", i, recs[i].LSN)
		}
	}
	if recs[50].Type != RecCommit || recs[50].TxID != 99 {
		t.Error("commit record wrong")
	}
}

func TestScanIgnoresUnflushedTail(t *testing.T) {
	tr, v := newTestTrail(t, Config{})
	tr.Append(dataRec(1, "durable"))
	tr.Flush()
	tr.Append(dataRec(2, "lost-in-crash"))
	// No flush: simulate crash by scanning the volume now.
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || string(recs[0].Key) != "durable" {
		t.Fatalf("scan got %d records", len(recs))
	}
}

func TestScanAcrossManyBlocks(t *testing.T) {
	tr, v := newTestTrail(t, Config{BufferFullBytes: 1 << 20})
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Append(dataRec(uint64(i), fmt.Sprintf("key-%06d", i)))
	}
	tr.Flush()
	if v.Size() < 10 {
		t.Fatalf("expected a multi-block trail, got %d blocks", v.Size())
	}
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("scanned %d, want %d", len(recs), n)
	}
}

func TestFlushUsesBulkIO(t *testing.T) {
	tr, v := newTestTrail(t, Config{BufferFullBytes: 1 << 20})
	for i := 0; i < 500; i++ {
		tr.Append(dataRec(uint64(i), fmt.Sprintf("key-%06d", i)))
	}
	v.ResetStats()
	tr.Flush()
	s := v.Stats()
	if s.Writes == 0 {
		t.Fatal("no writes")
	}
	if s.BlocksWritten <= s.Writes {
		t.Errorf("flush not bulk: %d blocks in %d I/Os", s.BlocksWritten, s.Writes)
	}
}

func TestMultipleFlushesShareTailBlock(t *testing.T) {
	// Small flushes must append into the same tail block, not burn one
	// block per flush.
	tr, v := newTestTrail(t, Config{})
	for i := 0; i < 10; i++ {
		tr.Append(dataRec(uint64(i), "k"))
		tr.Flush()
	}
	if v.Size() > 3 {
		t.Errorf("10 tiny flushes used %d blocks", v.Size())
	}
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Errorf("scan got %d records, want 10", len(recs))
	}
}

func TestStatsBytesMeasureCompression(t *testing.T) {
	// E4 core metric: audit bytes with field compression vs full images.
	full, _ := newTestTrail(t, Config{})
	comp, _ := newTestTrail(t, Config{})
	for i := 0; i < 100; i++ {
		full.Append(&Record{Type: RecUpdate, TxID: 1, Volume: "$D", File: "T",
			Key:    []byte("key"),
			Before: bytes.Repeat([]byte("x"), 200), After: bytes.Repeat([]byte("y"), 200)})
		comp.Append(&Record{Type: RecUpdate, TxID: 1, Volume: "$D", File: "T",
			Key:    []byte("key"),
			Before: []byte("x"), After: []byte("y"), FieldCompressed: true})
	}
	fb, cb := full.Stats().BytesAppended, comp.Stats().BytesAppended
	if cb*5 > fb {
		t.Errorf("compressed %dB not ≪ full %dB", cb, fb)
	}
}

func TestScanStopsAtCorruptTail(t *testing.T) {
	// A torn write (crash mid-flush) leaves garbage at the log tail; the
	// recovery scan must deliver the intact prefix and stop cleanly.
	tr, v := newTestTrail(t, Config{})
	for i := 0; i < 20; i++ {
		tr.Append(dataRec(uint64(i), fmt.Sprintf("key-%02d", i)))
	}
	tr.Flush()
	intact, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the frame right after the durable records by appending a
	// bogus length prefix into the tail block.
	tr.Append(dataRec(99, "torn"))
	tr.Flush()
	// Overwrite the last block's second half with garbage.
	last := tr.FirstBlock()
	buf := make([]byte, disk.BlockSize)
	for bn := last; ; bn++ {
		if err := v.Read(bn, buf); err != nil {
			break
		}
		last = bn
	}
	if err := v.Read(last, buf); err != nil {
		t.Fatal(err)
	}
	for i := disk.BlockSize / 2; i < disk.BlockSize; i++ {
		buf[i] = 0xFF
	}
	if err := v.Write(last, buf); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(v, tr.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < len(intact)/2 {
		t.Fatalf("scan salvaged only %d of %d records", len(recs), len(intact))
	}
	for i, r := range recs {
		if i < len(intact) && r.LSN != intact[i].LSN {
			t.Fatalf("salvaged record %d has wrong LSN", i)
		}
	}
}

func TestTrailNextLSN(t *testing.T) {
	tr, _ := newTestTrail(t, Config{})
	if tr.NextLSN() != 1 {
		t.Errorf("fresh trail NextLSN %d", tr.NextLSN())
	}
	tr.Append(dataRec(1, "k"))
	if tr.NextLSN() != 2 {
		t.Errorf("NextLSN %d", tr.NextLSN())
	}
}
