package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"nonstopsql/internal/disk"
)

// FuzzWALRecord feeds hostile bytes to the two readers of audit frames
// that take them from outside the process's memory: Decode, which a
// backup runs on checkpoint batches shipped over the network, and Scan,
// which recovery runs over a trail whose tail a crash may have torn.
// Neither panics; whatever Decode accepts re-encodes to a frame that
// decodes to an equal Record; and every record Scan returns is one that
// round-trips the same way. The checksum is no defence against a hostile
// sender, who can compute it, so the bytes are also decoded as the body
// of a frame with a valid length and sum: that is what reaches the field
// parser.
func FuzzWALRecord(f *testing.F) {
	var run []byte
	for typ := RecInsert; typ <= RecCheckpoint; typ++ {
		r := &Record{LSN: LSN(typ), Type: typ, TxID: 42}
		if typ <= RecDelete {
			r.Volume, r.File, r.Key = "$DATA1", "ACCOUNT", []byte{0x80, 0, 0, 0, 0, 0, 0, 7}
			r.Before, r.After = []byte("before-image"), []byte("after-image")
			r.FieldCompressed, r.Compensation = typ == RecUpdate, typ == RecDelete
		}
		enc := r.Encode(nil)
		f.Add(enc)
		run = append(run, enc...)
	}
	f.Add(run) // the frames one flush writes
	// A torn write: the last frame's length prefix landed, the tail of
	// its body is still zeros.
	torn := append([]byte(nil), run...)
	clear(torn[len(torn)-5:])
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		framed := binary.AppendUvarint(nil, uint64(len(data)))
		framed = binary.BigEndian.AppendUint32(framed, bodySum(data))
		for _, b := range [][]byte{data, append(framed, data...)} {
			if r, _, err := Decode(b); err == nil {
				roundTrip(t, r)
			}
		}
		v := disk.NewVolume("$AUDIT", false)
		blocks := len(data)/disk.BlockSize + 1 // zero-padded, as the trail leaves its tail
		first := v.AllocateRun(blocks)
		img := make([]byte, blocks*disk.BlockSize)
		copy(img, data)
		for i := 0; i < blocks; i++ {
			if err := v.Write(first+disk.BlockNum(i), img[i*disk.BlockSize:(i+1)*disk.BlockSize]); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := Scan(v, first)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			roundTrip(t, r)
		}
	})
}

// roundTrip fails t unless r encodes to one frame that decodes to r.
func roundTrip(t *testing.T, r *Record) {
	t.Helper()
	again, rest, err := Decode(r.Encode(nil))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(again, r) {
		t.Fatalf("%+v re-encodes to a frame that decodes to %+v, %d bytes left, %v", r, again, len(rest), err)
	}
}
