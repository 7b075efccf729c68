package btree

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nonstopsql/internal/cache"
	"nonstopsql/internal/disk"
)

func newPool(t testing.TB) (*cache.Pool, *disk.Volume) {
	t.Helper()
	v := disk.NewVolume("$DATA", false)
	return cache.NewPool(v, 128, nil), v
}

func TestEntryAppendRead(t *testing.T) {
	p, v := newPool(t)
	f, err := NewEntry(p, v, "LOG")
	if err != nil {
		t.Fatal(err)
	}
	var addrs []Addr
	for i := 0; i < 100; i++ {
		a, err := f.Append([]byte(fmt.Sprintf("entry-%03d", i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i, a := range addrs {
		got, err := f.Read(a)
		if err != nil || string(got) != fmt.Sprintf("entry-%03d", i) {
			t.Fatalf("read %d: %q %v", i, got, err)
		}
	}
}

func TestEntryScanOrder(t *testing.T) {
	p, v := newPool(t)
	f, _ := NewEntry(p, v, "LOG")
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := f.Append([]byte(fmt.Sprintf("e%06d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err := f.Scan(func(a Addr, data []byte) (bool, error) {
		if string(data) != fmt.Sprintf("e%06d", i) {
			return false, fmt.Errorf("out of order at %d: %q", i, data)
		}
		i++
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scanned %d of %d", i, n)
	}
}

func TestEntryValidation(t *testing.T) {
	p, v := newPool(t)
	f, _ := NewEntry(p, v, "LOG")
	if _, err := f.Append(nil, 1); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := f.Append(make([]byte, disk.BlockSize), 1); err == nil {
		t.Error("oversized record accepted")
	}
	if _, err := f.Read(makeAddr(99, 0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad addr read: %v", err)
	}
}

func TestEntryLargeRecordsSpanBlocks(t *testing.T) {
	p, v := newPool(t)
	f, _ := NewEntry(p, v, "LOG")
	big := bytes.Repeat([]byte("B"), 3000)
	var addrs []Addr
	for i := 0; i < 10; i++ {
		a, err := f.Append(big, 1)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	// 3000-byte records: one per block (no two fit in 4095 usable bytes).
	if addrs[0].Block() == addrs[1].Block() {
		t.Error("two 3000B records share a block")
	}
	for _, a := range addrs {
		got, err := f.Read(a)
		if err != nil || !bytes.Equal(got, big) {
			t.Fatal("large record read failed")
		}
	}
}

func TestEntryScanEarlyStop(t *testing.T) {
	p, v := newPool(t)
	f, _ := NewEntry(p, v, "LOG")
	for i := 0; i < 50; i++ {
		f.Append([]byte("x"), 1)
	}
	n := 0
	f.Scan(func(Addr, []byte) (bool, error) {
		n++
		return n < 5, nil
	})
	if n != 5 {
		t.Errorf("visited %d", n)
	}
}
