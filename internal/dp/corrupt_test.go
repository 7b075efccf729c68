package dp

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/disk/filevol"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// fileDP is testDP over a file-backed volume.
func fileDP(t *testing.T, prefetch bool) (*DP, *filevol.Volume) {
	t.Helper()
	vol, err := filevol.Open(filevol.Config{Path: filepath.Join(t.TempDir(), "data1.vol"), Name: "$DATA1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vol.Close() })
	trail, err := wal.NewTrail(wal.Config{Volume: disk.NewVolume("$AUDIT", true)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trail.Close)
	d, err := New(Config{Name: "$DATA1", Volume: vol, Audit: tmf.NewAuditPort(trail, nil, "", 0), Prefetch: prefetch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, vol
}

// TestCorruptRecordIsRefusedAtThePage garbles one record of one leaf on a
// file-backed volume — three ways, each keeping the cell's length, so the
// page itself stays well-formed — and reads it back from the volume, by
// demand reads and by pre-fetch. A scan that covers the leaf is refused
// before it counts a record of it: btree.ErrCorruptPage, naming the file,
// the block and the cell, from the walk that builds the leaf's record
// table. A one-record subset over the bad record walks just that record
// and fails with the very error record.Decode gives its bytes. Each
// refusal is counted, and the Disk Process answers what comes next: a
// READ on another leaf, and the same scan once the bad record is deleted
// and the leaf rewritten.
func TestCorruptRecordIsRefusedAtThePage(t *testing.T) {
	const rows, bad = 600, 300
	garble := map[string]func(rec []byte){
		// The last field, SALARY, is a FLOAT: a tag and eight bytes.
		"unknown tag": func(rec []byte) { rec[len(rec)-9] = 9 },
		"truncated varint": func(rec []byte) {
			rec[len(rec)-9] = 1 // an INTEGER whose varint never ends
			for i := len(rec) - 8; i < len(rec); i++ {
				rec[i] = 0x80
			}
		},
		"trailing byte": func(rec []byte) { rec[0]-- }, // one field fewer than the bytes hold
	}
	for name, damage := range garble {
		for _, prefetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/prefetch=%v", name, prefetch), func(t *testing.T) {
				d, vol := fileDP(t, prefetch)
				loadEmp(t, d, rows) // bulk-loaded and flushed to the volume
				bn, garbled := garbleOnVolume(t, vol, record.Encode(empRow(bad, fmt.Sprintf("emp-%05d", bad), 1000*bad)), damage)
				d.Pool().Crash() // the cache forgets the good image; the next look reads the volume
				_, want := record.Decode(garbled)
				if want == nil {
					t.Fatal("the garbled record still decodes")
				}

				scan := func(r keys.Range) *fsdp.Reply {
					return d.Serve(&fsdp.Request{Kind: fsdp.KCountFirst, File: "EMP", Range: r})
				}
				reply := scan(keys.All())
				if reply.OK() || !strings.Contains(reply.Err, fmt.Sprintf("btree: corrupt page: EMP block %d: cell ", bn)) || !strings.HasSuffix(reply.Err, want.Error()) {
					t.Fatalf("scan over the leaf: %+v; want the page refused, naming EMP block %d and %q", reply, bn, want)
				}
				if got := d.Pool().Stats().PrefetchedBlocks; (got > 0) != prefetch {
					t.Fatalf("%d blocks pre-fetched with pre-fetch %v", got, prefetch)
				}
				point := scan(keys.Range{Low: key1(bad), High: key1(bad), HighIncl: true})
				if point.OK() || point.Err != want.Error() {
					t.Fatalf("one-record subset: %+v; want %q", point, want)
				}
				if n := d.Stats().CorruptRefusals; n != 2 {
					t.Errorf("%d refusals counted, want 2", n)
				}

				if read := d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(3)}); !read.OK() || len(read.Rows) != 1 {
					t.Fatalf("READ on another leaf after the refusals: %+v", read)
				}
				tx := tmf.NewTxID()
				if del := d.Serve(&fsdp.Request{Kind: fsdp.KDeleteRecord, Tx: tx, File: "EMP", Key: key1(bad)}); !del.OK() {
					t.Fatalf("delete the bad record: %+v", del)
				}
				commitTx(t, d, tx)
				if reply := scan(keys.All()); !reply.OK() || !reply.Done || reply.Count != rows-1 {
					t.Fatalf("the same scan after the leaf was rewritten: %+v", reply)
				}
				if n := d.Stats().CorruptRefusals; n != 2 {
					t.Errorf("%d refusals counted after the leaf was rewritten, want 2", n)
				}
			})
		}
	}
}

// garbleOnVolume finds the block holding rec on vol, damages rec there in
// place and writes the block back, returning the block and the damaged
// record.
func garbleOnVolume(t *testing.T, vol *filevol.Volume, rec []byte, damage func([]byte)) (disk.BlockNum, []byte) {
	t.Helper()
	buf := make([]byte, disk.BlockSize)
	for bn := disk.BlockNum(1); int(bn) <= vol.Size(); bn++ {
		if err := vol.Read(bn, buf); err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(buf, rec)
		if at < 0 {
			continue
		}
		garbled := buf[at : at+len(rec)]
		damage(garbled)
		if err := vol.Write(bn, buf); err != nil {
			t.Fatal(err)
		}
		if err := vol.Sync(); err != nil {
			t.Fatal(err)
		}
		return bn, append([]byte(nil), garbled...)
	}
	t.Fatal("no block holds the record")
	return 0, nil
}
