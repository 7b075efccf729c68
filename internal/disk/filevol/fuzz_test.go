package filevol

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"nonstopsql/internal/disk"
)

// header builds a header block: magic, version, mark, clean flag, free list.
func header(next disk.BlockNum, clean bool, free ...disk.BlockNum) []byte {
	b := make([]byte, offFree+4*len(free))
	copy(b[offMagic:], magic)
	binary.LittleEndian.PutUint32(b[offVersion:], version)
	binary.LittleEndian.PutUint32(b[offNext:], uint32(next))
	if clean {
		binary.LittleEndian.PutUint32(b[offClean:], 1)
	}
	binary.LittleEndian.PutUint32(b[offFreeN:], uint32(len(free)))
	for i, bn := range free {
		binary.LittleEndian.PutUint32(b[offFree+4*i:], uint32(bn))
	}
	return b
}

// FuzzVolumeHeader: hostile bytes as block 0 of a volume file. Open either
// refuses the file or opens it with a mark of at least 1 and a free list of
// distinct blocks below the mark; and blocks Allocate hands out before a
// crash (the file closed without Close) are never handed out again by the
// volume reopened after it.
func FuzzVolumeHeader(f *testing.F) {
	f.Add(header(allocChunk, false))
	f.Add(header(10, true, 3, 5, 3, 0, 12, 9))
	f.Add(header(1, true, 1))
	f.Add([]byte("NSQLVOL1"))
	// A mark within one allocChunk of 2^32: the in-use header's round-up
	// wrapped to 0, the "nothing written yet" mark, so it was never written,
	// and the reopened volume handed out block 0xFFFFFFF0 a second time.
	f.Add(header(0xFFFFFFF0, false))
	f.Fuzz(func(t *testing.T, hdr []byte) {
		path := filepath.Join(t.TempDir(), "vol")
		block := make([]byte, headerSize)
		copy(block, hdr)
		if err := os.WriteFile(path, block, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := Open(Config{Path: path, Name: "$F", Mode: SyncPerWrite})
		if err != nil {
			return // refused
		}
		if v.next < 1 {
			t.Fatalf("opened with mark %d", v.next)
		}
		seen := map[disk.BlockNum]bool{}
		for _, bn := range v.free {
			if bn < 1 || bn >= v.next || seen[bn] {
				t.Fatalf("free list %v with mark %d", v.free, v.next)
			}
			seen[bn] = true
		}
		var taken []disk.BlockNum
		for i := 0; i < 3; i++ {
			taken = append(taken, v.Allocate())
		}
		_ = v.f.Close() // crash: no Close

		v2, err := Open(Config{Path: path, Name: "$F", Mode: SyncPerWrite})
		if err != nil {
			return // refused after the crash: nothing is handed out twice
		}
		defer v2.Close()
		mark := v2.next
		fresh := v2.Allocate()
		for _, bn := range taken {
			if bn >= mark || bn == fresh {
				t.Fatalf("block %d, handed out before the crash, is not covered after it (mark %d, next Allocate %d)", bn, mark, fresh)
			}
		}
	})
}
