package btree

import (
	"encoding/binary"
	"fmt"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
	"nonstopsql/internal/wal"
)

// The entry-sequenced access method keeps a one-page block directory: a
// fixed metadata block listing the file's data blocks in order. One 4 KB
// directory addresses ~1000 data blocks (≈4 MB), which is ample for the
// simulated volumes.

const dirHeader = 8 // [0:4] entry count, [4:8] per-file metadata

func dirCapacity() int { return (disk.BlockSize - dirHeader) / 4 }

func readDir(buf []byte) (meta uint32, blocks []disk.BlockNum) {
	n := binary.LittleEndian.Uint32(buf[0:4])
	meta = binary.LittleEndian.Uint32(buf[4:8])
	blocks = make([]disk.BlockNum, n)
	for i := range blocks {
		blocks[i] = disk.BlockNum(binary.LittleEndian.Uint32(buf[dirHeader+4*i:]))
	}
	return meta, blocks
}

func writeDir(buf []byte, meta uint32, blocks []disk.BlockNum) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(blocks)))
	binary.LittleEndian.PutUint32(buf[4:8], meta)
	for i, bn := range blocks {
		binary.LittleEndian.PutUint32(buf[dirHeader+4*i:], uint32(bn))
	}
}

// An EntryFile is an entry-sequenced file: variable-length records,
// insert at EOF only, direct access for reads via the record address
// returned by Append.
type EntryFile struct {
	pool *cache.Pool
	vol  disk.BlockDev
	name string
	dir  disk.BlockNum
}

// entry block layout: records packed as [len uvarint][bytes]; a zero
// length byte terminates the block's used region.

// NewEntry creates an entry-sequenced file.
func NewEntry(pool *cache.Pool, vol disk.BlockDev, name string) (*EntryFile, error) {
	dir := vol.Allocate()
	f := &EntryFile{pool: pool, vol: vol, name: name, dir: dir}
	pg, err := pool.Get(dir)
	if err != nil {
		return nil, err
	}
	writeDir(pg.Data(), 0, nil)
	pg.MarkDirty(0)
	pg.Release()
	return f, nil
}

// Addr is a record's stable address: block index and byte offset.
type Addr uint64

func makeAddr(blockIdx, off int) Addr { return Addr(blockIdx)<<16 | Addr(off) }

// Block returns the address's block index within the file.
func (a Addr) Block() int { return int(a >> 16) }

// Offset returns the address's byte offset within the block.
func (a Addr) Offset() int { return int(a & 0xFFFF) }

// Append adds a record at EOF and returns its address.
func (f *EntryFile) Append(data []byte, lsn wal.LSN) (Addr, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("btree: %s: empty records are not supported", f.name)
	}
	need := uvarintLen(len(data)) + len(data)
	if need > disk.BlockSize-1 {
		return 0, fmt.Errorf("btree: %s record of %d bytes exceeds block size", f.name, len(data))
	}
	dirPg, err := f.pool.Get(f.dir)
	if err != nil {
		return 0, err
	}
	defer dirPg.Release()
	tailOff, blocks := readDir(dirPg.Data())

	if len(blocks) == 0 || int(tailOff)+need > disk.BlockSize-1 {
		if len(blocks) >= dirCapacity() {
			return 0, fmt.Errorf("btree: %s exceeds maximum entry file size", f.name)
		}
		blocks = append(blocks, f.vol.Allocate())
		tailOff = 0
	}
	blockIdx := len(blocks) - 1
	bn := blocks[blockIdx]
	pg, err := f.pool.Get(bn)
	if err != nil {
		return 0, err
	}
	off := int(tailOff)
	n := binary.PutUvarint(pg.Data()[off:], uint64(len(data)))
	copy(pg.Data()[off+n:], data)
	pg.MarkDirty(lsn)
	pg.Release()

	writeDir(dirPg.Data(), uint32(off+need), blocks)
	dirPg.MarkDirty(lsn)
	return makeAddr(blockIdx, off), nil
}

// Read returns the record at addr.
func (f *EntryFile) Read(addr Addr) ([]byte, error) {
	dirPg, err := f.pool.Get(f.dir)
	if err != nil {
		return nil, err
	}
	_, blocks := readDir(dirPg.Data())
	dirPg.Release()
	if addr.Block() >= len(blocks) {
		return nil, fmt.Errorf("%w (%s addr %d)", ErrNotFound, f.name, addr)
	}
	pg, err := f.pool.Get(blocks[addr.Block()])
	if err != nil {
		return nil, err
	}
	defer pg.Release()
	buf := pg.Data()[addr.Offset():]
	l, n := binary.Uvarint(buf)
	if n <= 0 || l == 0 || int(l)+n > len(buf) {
		return nil, fmt.Errorf("%w (%s addr %d)", ErrNotFound, f.name, addr)
	}
	return append([]byte(nil), buf[n:n+int(l)]...), nil
}

// Scan visits every record in append order.
func (f *EntryFile) Scan(fn func(addr Addr, data []byte) (bool, error)) error {
	dirPg, err := f.pool.Get(f.dir)
	if err != nil {
		return err
	}
	tailOff, blocks := readDir(dirPg.Data())
	dirPg.Release()
	for bi, bn := range blocks {
		pg, err := f.pool.Get(bn)
		if err != nil {
			return err
		}
		data := pg.Data()
		off := 0
		for {
			if bi == len(blocks)-1 && off >= int(tailOff) {
				break
			}
			l, n := binary.Uvarint(data[off:])
			if n <= 0 || l == 0 {
				break
			}
			cont, err := fn(makeAddr(bi, off), append([]byte(nil), data[off+n:off+n+int(l)]...))
			if err != nil || !cont {
				pg.Release()
				return err
			}
			off += n + int(l)
		}
		pg.Release()
	}
	return nil
}
