package enscribe_test

import (
	"fmt"
	"testing"

	"nonstopsql/internal/cluster"
	"nonstopsql/internal/enscribe"
	"nonstopsql/internal/fs"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

type rig struct {
	c  *cluster.Cluster
	fs *fs.FS
}

func newRig(t testing.TB) *rig {
	t.Helper()
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.AddVolume(0, 0, "$DATA1"); err != nil {
		t.Fatal(err)
	}
	return &rig{c: c, fs: c.NewFS(0, 1)}
}

func accountDef() *fs.FileDef {
	return &fs.FileDef{
		Name: "ACCOUNT",
		Schema: record.MustSchema("ACCOUNT", []record.Field{
			{Name: "ACCTNO", Type: record.TypeInt, NotNull: true},
			{Name: "BALANCE", Type: record.TypeFloat},
			{Name: "OWNER", Type: record.TypeString},
		}, []int{0}),
		Partitions: []fs.Partition{{Server: "$DATA1"}},
		FieldAudit: false, // ENSCRIBE audits full record images
	}
}

func ik(v int64) []byte { return keys.AppendInt64(nil, v) }

func loadAccounts(t testing.TB, r *rig, file *enscribe.File, n int) {
	t.Helper()
	tx := r.fs.Begin()
	for i := 0; i < n; i++ {
		row := record.Row{record.Int(int64(i)), record.Float(float64(100 * i)), record.String(fmt.Sprintf("owner-%04d", i))}
		if err := file.Write(tx, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRewriteDelete(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	if err := r.fs.Create(def); err != nil {
		t.Fatal(err)
	}
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 5)

	row, err := file.Read(nil, ik(3))
	if err != nil || row[2].S != "owner-0003" {
		t.Fatalf("%v %v", row, err)
	}
	tx := r.fs.Begin()
	row[1] = record.Float(999)
	if err := file.Rewrite(tx, ik(3), row); err != nil {
		t.Fatal(err)
	}
	if err := file.Delete(tx, ik(4)); err != nil {
		t.Fatal(err)
	}
	if err := r.fs.Commit(tx); err != nil {
		t.Fatal(err)
	}
	row, _ = file.Read(nil, ik(3))
	if row[1].F != 999 {
		t.Errorf("balance %v", row[1].F)
	}
	if _, err := file.Read(nil, ik(4)); err == nil {
		t.Error("deleted record read")
	}
}

func TestReadNextSequentialOrder(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 50)

	cur := file.KeyPosition(nil)
	var got []int64
	for {
		row, _, err := cur.ReadNext(nil)
		if enscribe.EOF(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, row[0].I)
	}
	if len(got) != 50 {
		t.Fatalf("read %d records", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestKeyPositionMidFile(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 20)
	cur := file.KeyPosition(ik(15))
	row, _, err := cur.ReadNext(nil)
	if err != nil || row[0].I != 15 {
		t.Fatalf("%v %v", row, err)
	}
}

func TestRecordAtATimeCostsOneMessagePerRecord(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 100)

	cur := file.KeyPosition(nil)
	r.c.Net.ResetStats()
	n := 0
	for {
		_, _, err := cur.ReadNext(nil)
		if enscribe.EOF(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	msgs := r.c.Net.Stats().Requests
	if n != 100 {
		t.Fatalf("read %d", n)
	}
	// One message per record (+1 EOF probe).
	if msgs < 100 || msgs > 102 {
		t.Errorf("record-at-a-time used %d messages for 100 records", msgs)
	}
}

func TestSBBReducesMessagesByBlockingFactor(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 1000)

	tx := r.fs.Begin()
	if err := file.EnableSBB(tx); err != nil {
		t.Fatal(err)
	}
	cur := file.KeyPosition(nil)
	r.c.Net.ResetStats()
	n := 0
	for {
		_, _, err := cur.ReadNext(tx)
		if enscribe.EOF(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	msgs := r.c.Net.Stats().Requests
	r.fs.Commit(tx)
	if n != 1000 {
		t.Fatalf("read %d", n)
	}
	// Rough blocking factor for ~40B records into 4KB blocks is huge; at
	// minimum we demand >10x fewer messages than records.
	if msgs*10 > 1000 {
		t.Errorf("SBB used %d messages for 1000 records", msgs)
	}
}

func TestSBBRequiresFileLockExcludingWriters(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 10)

	reader := r.fs.Begin()
	if err := file.EnableSBB(reader); err != nil {
		t.Fatal(err)
	}
	// A writer under another transaction must block (and time out).
	writer := r.fs.Begin()
	err := file.Rewrite(writer, ik(3), record.Row{record.Int(3), record.Float(1), record.String("x")})
	if err == nil {
		t.Fatal("writer proceeded under SBB file lock")
	}
	r.fs.Abort(writer)
	r.fs.Commit(reader)
}

func TestReadUpdateRewriteTwoMessages(t *testing.T) {
	// The ENSCRIBE update pattern the paper contrasts with SQL pushdown.
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 10)

	tx := r.fs.Begin()
	r.c.Net.ResetStats()
	err := file.ReadUpdateRewrite(tx, ik(5), func(row record.Row) record.Row {
		row[1] = record.Float(row[1].F - 50) // debit
		return row
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs := r.c.Net.Stats().Requests; msgs != 2 {
		t.Errorf("read-update-rewrite used %d messages, want 2", msgs)
	}
	r.fs.Commit(tx)
	row, _ := file.Read(nil, ik(5))
	if row[1].F != 450 {
		t.Errorf("balance %v", row[1].F)
	}
}

func TestLockRecordExplicit(t *testing.T) {
	r := newRig(t)
	def := accountDef()
	r.fs.Create(def)
	file := enscribe.Open(r.fs, def)
	loadAccounts(t, r, file, 5)

	tx1 := r.fs.Begin()
	if err := file.LockRecord(tx1, ik(2), true); err != nil {
		t.Fatal(err)
	}
	tx2 := r.fs.Begin()
	if err := file.LockRecord(tx2, ik(2), true); err == nil {
		t.Error("conflicting record lock granted")
	}
	r.fs.Abort(tx2)
	r.fs.Commit(tx1)
}

func TestPartitionedEnscribeScan(t *testing.T) {
	c, err := cluster.New(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.AddVolume(0, 0, "$P1")
	c.AddVolume(0, 1, "$P2")
	f := c.NewFS(0, 2)
	def := accountDef()
	def.Partitions = []fs.Partition{
		{Server: "$P1"},
		{Server: "$P2", LowKey: ik(50)},
	}
	if err := f.Create(def); err != nil {
		t.Fatal(err)
	}
	file := enscribe.Open(f, def)
	tx := f.Begin()
	for i := 0; i < 100; i++ {
		file.Write(tx, record.Row{record.Int(int64(i)), record.Float(1), record.String("o")})
	}
	f.Commit(tx)
	cur := file.KeyPosition(nil)
	n := 0
	last := int64(-1)
	for {
		row, _, err := cur.ReadNext(nil)
		if enscribe.EOF(err) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if row[0].I <= last {
			t.Fatal("cross-partition order broken")
		}
		last = row[0].I
		n++
	}
	if n != 100 {
		t.Fatalf("read %d", n)
	}
}
