package dp

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/keys"
	"nonstopsql/internal/record"
)

// The AGG^FIRST/NEXT conversation, counted: these tests drive it message
// by message against one Disk Process and look at every reply. The groups
// are the conversation's — they ride on the Subset Control Block, ship
// when a reply block is full of them or the range is exhausted, and a
// message that ends on the row or time budget carries none.

// acct is the benchmark's table: grp cycles through 100 values in key
// order, so every run of 100 records meets every group.
func loadAcct(t testing.TB, d *DP, n int, note func(id int) string) {
	t.Helper()
	createAcct(t, d)
	rows := make([]record.Row, n)
	for i := range rows {
		rows[i] = record.Row{record.Int(int64(i)), record.Int(int64(i % 100)), record.Float(float64(i)), record.String(note(i))}
	}
	if err := d.BulkLoad("ACCT", rows); err != nil {
		t.Fatal(err)
	}
}

// createAcct creates ACCT (ID INTEGER key, GRP INTEGER, BAL FLOAT, NOTE
// VARCHAR), empty.
func createAcct(t testing.TB, d *DP) {
	t.Helper()
	s := record.MustSchema("ACCT", []record.Field{
		{Name: "ID", Type: record.TypeInt, NotNull: true},
		{Name: "GRP", Type: record.TypeInt},
		{Name: "BAL", Type: record.TypeFloat},
		{Name: "NOTE", Type: record.TypeString},
	}, []int{0})
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "ACCT", Schema: record.EncodeSchema(s)}); !reply.OK() {
		t.Fatalf("create: %s", reply.Err)
	}
}

func noNote(int) string { return "" }

// aggConv is one conversation's transcript.
type aggConv struct {
	replies []*fsdp.Reply
	groups  map[string][]fsdp.AggPartial // merged as fs.Agg merges, keyed by the key values' key bytes
	shipped map[string]int               // how many entries carried each group
}

// driveAgg runs AGG^FIRST/NEXT over all of ACCT to Done, merging the
// entries and checking what every reply must obey: entries only on a full
// block or at the end, never more than a block and one entry of them, and
// the Disk Process's scan counter whole at every message boundary.
func driveAgg(t *testing.T, d *DP, spec *fsdp.AggSpec, tx uint64, rowLimit uint32) *aggConv {
	t.Helper()
	c := &aggConv{groups: map[string][]fsdp.AggPartial{}, shipped: map[string]int{}}
	scanned := d.Stats().RowsScanned
	req := &fsdp.Request{Kind: fsdp.KAggFirst, Tx: tx, File: "ACCT", Range: keys.All(), Agg: fsdp.EncodeAggSpec(spec), RowLimit: rowLimit}
	for {
		reply := d.Serve(req)
		if !reply.OK() {
			t.Fatalf("message %d: %s", len(c.replies)+1, reply.Err)
		}
		c.replies = append(c.replies, reply)
		if scanned += uint64(reply.Examined); d.Stats().RowsScanned != scanned {
			t.Fatalf("message %d: replies examined %d so far, dp.Stats().RowsScanned = %d", len(c.replies), scanned, d.Stats().RowsScanned)
		}
		bytes, largest := 0, 0
		for _, entry := range reply.Rows {
			bytes, largest = bytes+len(entry), max(largest, len(entry))
			k, partials, err := decodeEntry(entry, spec.Cols)
			if err != nil {
				t.Fatal(err)
			}
			c.shipped[k]++
			if have, ok := c.groups[k]; ok {
				for i := range have {
					have[i].Merge(spec.Cols[i].Fn, partials[i])
				}
				continue
			}
			c.groups[k] = partials
		}
		if int(reply.Count) != len(reply.Rows) {
			t.Errorf("message %d: Count = %d with %d entries", len(c.replies), reply.Count, len(reply.Rows))
		}
		if max := d.cfg.MaxReplyBytes; bytes > max+largest {
			t.Errorf("message %d: %d bytes of entries, over the %d-byte block by more than one entry (%d)", len(c.replies), bytes, max, largest)
		} else if !reply.Done && bytes > 0 && bytes < max {
			t.Errorf("message %d: shipped %d bytes of entries with the block (%d) not full and the range not exhausted", len(c.replies), bytes, max)
		}
		if reply.Done {
			if scbs := d.OpenState().SCBs; scbs != 0 {
				t.Errorf("%d SCBs open after Done", scbs)
			}
			return c
		}
		req = &fsdp.Request{Kind: fsdp.KAggNext, Tx: tx, File: "ACCT", SCB: reply.SCB, Range: req.Range.Continue(reply.LastKey), RowLimit: rowLimit}
	}
}

// decodeEntry decodes one AGG reply entry the File System's way, into a
// fresh fsdp.GroupTable: the group's key bytes and its partial states.
func decodeEntry(entry []byte, cols []fsdp.AggCol) (string, []fsdp.AggPartial, error) {
	var gt fsdp.GroupTable
	gt.Reset(len(cols))
	if err := gt.Merge(entry, cols); err != nil {
		return "", nil, err
	}
	return string(gt.Key(0)), gt.Partials(0), nil
}

// key is a group's key bytes.
func key(vals ...record.Value) string {
	var b []byte
	for _, v := range vals {
		b = v.AppendKey(b)
	}
	return string(b)
}

var countSum = &fsdp.AggSpec{GroupBy: []int{1}, Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 2}}}

// TestAggCyclingGroupsCostMessagesPerRowBudget is the benchmark's shape:
// 10 000 records, 100 groups cycling in key order, default budgets. It
// used to take 139 messages — every 72 records met 72 "new" groups and
// filled a block with them; it takes the row budget's three, and ships
// each group once.
func TestAggCyclingGroupsCostMessagesPerRowBudget(t *testing.T) {
	const rows = 10000
	d, _, _ := testDP(t, nil)
	loadAcct(t, d, rows, noNote)
	c := driveAgg(t, d, countSum, 0, 0)

	if limit := (rows+d.cfg.MaxRowsPerMsg-1)/d.cfg.MaxRowsPerMsg + 1; len(c.replies) > limit {
		t.Errorf("%d messages for %d records, want at most ceil(rows/MaxRowsPerMsg)+1 = %d", len(c.replies), rows, limit)
	}
	for i, reply := range c.replies[:len(c.replies)-1] {
		if len(reply.Rows) != 0 || len(reply.LastKey) == 0 || reply.Examined != uint32(d.cfg.MaxRowsPerMsg) {
			t.Errorf("message %d ended on the row budget: %d entries, LastKey %x, examined %d", i+1, len(reply.Rows), reply.LastKey, reply.Examined)
		}
	}
	if len(c.groups) != 100 {
		t.Fatalf("%d groups, want 100", len(c.groups))
	}
	for g := int64(0); g < 100; g++ {
		k := key(record.Int(g))
		// ids g, g+100, ..., g+9900: a hundred of them, summing to 100g + 100*(0+...+99)
		if p := c.groups[k]; p[0].Count != 100 || p[1].SumF != float64(100*g+495000) {
			t.Errorf("group %d: %+v", g, p)
		}
		if c.shipped[k] != 1 {
			t.Errorf("group %d shipped %d times with no block ever full", g, c.shipped[k])
		}
	}
	if got := d.Stats().Redrives; got != uint64(len(c.replies)-1) {
		t.Errorf("Redrives = %d over %d messages", got, len(c.replies))
	}
}

// TestAggMoreGroupsThanABlock: a GROUP BY on the unique key has more
// groups than a block holds, so the conversation degrades to a block of
// entries per message — every block full, nothing over it (driveAgg) —
// and the merged result is still the table.
func TestAggMoreGroupsThanABlock(t *testing.T) {
	const rows = 10000
	d, _, _ := testDP(t, nil)
	loadAcct(t, d, rows, noNote)
	spec := &fsdp.AggSpec{GroupBy: []int{0}, Cols: countSum.Cols}
	c := driveAgg(t, d, spec, 0, 0)

	if len(c.groups) != rows {
		t.Fatalf("%d groups, want %d", len(c.groups), rows)
	}
	for id := int64(0); id < rows; id++ {
		k := key(record.Int(id))
		if p := c.groups[k]; p[0].Count != 1 || p[1].SumF != float64(id) || c.shipped[k] != 1 {
			t.Fatalf("group %d: %+v, shipped %d times", id, p, c.shipped[k])
		}
	}
	// A 4 KiB block of ~22-byte entries: well over a hundred groups a message.
	if perMsg := rows / len(c.replies); perMsg < 100 {
		t.Errorf("%d messages: %d groups per block", len(c.replies), perMsg)
	}
}

// TestAggLongMinMaxStaysInTheBlock: MAX over a VARCHAR that keeps growing
// (every record's NOTE is longer than the last, and greater) makes entries
// heavier after their group was opened. The block is charged what they
// weigh now, so a reply still holds a block and at most one entry more
// (driveAgg) — not a hundred 600-byte strings because a hundred groups
// once fitted.
func TestAggLongMinMaxStaysInTheBlock(t *testing.T) {
	const rows = 3000
	note := func(id int) string { return strings.Repeat("z", 1+id/5) }
	d, _, _ := testDP(t, nil)
	loadAcct(t, d, rows, note)
	spec := &fsdp.AggSpec{GroupBy: []int{1}, Cols: []fsdp.AggCol{{Fn: fsdp.AggMin, Col: 3}, {Fn: fsdp.AggMax, Col: 3}, {Fn: fsdp.AggCount, Col: 3}}}
	c := driveAgg(t, d, spec, 0, 0)

	if len(c.groups) != 100 {
		t.Fatalf("%d groups, want 100", len(c.groups))
	}
	blocks := 0
	for _, reply := range c.replies {
		if len(reply.Rows) > 0 {
			blocks++
		}
	}
	if blocks < 3 {
		t.Errorf("only %d replies carried entries: the strings never filled a block, the test is too small", blocks)
	}
	for g := 0; g < 100; g++ {
		p := c.groups[key(record.Int(int64(g)))]
		if p[0].Val.S != note(g) || p[1].Val.S != note(rows-100+g) || p[2].Count != rows/100 {
			t.Errorf("group %d: MIN %d bytes, MAX %d bytes, COUNT %d; want %d, %d, %d",
				g, len(p[0].Val.S), len(p[1].Val.S), p[2].Count, len(note(g)), len(note(rows-100+g)), rows/100)
		}
	}
}

// TestAggBudgetEndedMessagesCarryNoEntries: a message the row limit or the
// time limit ended replies with where it got to and nothing else; the
// groups wait on the SCB.
func TestAggBudgetEndedMessagesCarryNoEntries(t *testing.T) {
	for name, c := range map[string]struct {
		cfg      func(*Config)
		rowLimit uint32
		messages int
	}{
		"RowLimit":  {nil, 64, 8},                                                // 500 records, 64 at a time
		"TimeLimit": {func(c *Config) { c.TimeLimit = time.Nanosecond }, 0, 500}, // one record a message
	} {
		t.Run(name, func(t *testing.T) {
			d, _, _ := testDP(t, c.cfg)
			loadAcct(t, d, 500, noNote)
			conv := driveAgg(t, d, countSum, 0, c.rowLimit)
			if len(conv.replies) != c.messages {
				t.Errorf("%d messages, want %d", len(conv.replies), c.messages)
			}
			for i, reply := range conv.replies[:len(conv.replies)-1] {
				if len(reply.Rows) != 0 || reply.Count != 0 {
					t.Fatalf("message %d ended on the budget with %d entries (Count %d)", i+1, len(reply.Rows), reply.Count)
				}
			}
			for g := int64(0); g < 100; g++ {
				if p := conv.groups[key(record.Int(g))]; p == nil || p[0].Count != 5 || p[1].SumF != float64(5*g+1000) {
					t.Errorf("group %d: %+v", g, p)
				}
			}
		})
	}
}

// TestAggLostSCBFailsTheStatement: the groups folded so far exist only on
// the Subset Control Block. When it is gone — the processor was lost, the
// requester closed it, or a message of the conversation failed after
// folding some of its records in — the re-drive is refused. Resuming would
// reply Done with the sums of the records after LastKey alone.
func TestAggLostSCBFailsTheStatement(t *testing.T) {
	countStar := fsdp.EncodeAggSpec(&fsdp.AggSpec{Cols: countSum.Cols[:1]})
	first := func(d *DP, tx uint64) (*fsdp.Reply, *fsdp.Request) {
		reply := d.Serve(&fsdp.Request{Kind: fsdp.KAggFirst, Tx: tx, File: "EMP", Range: keys.All(), Agg: countStar, RowLimit: 100})
		if !reply.OK() || reply.Done || reply.SCB == 0 || len(reply.Rows) != 0 {
			t.Fatalf("AGG^FIRST: %+v", reply)
		}
		return reply, &fsdp.Request{Kind: fsdp.KAggNext, Tx: tx, File: "EMP", SCB: reply.SCB,
			Range: keys.All().Continue(reply.LastKey), RowLimit: 100}
	}
	refused := func(t *testing.T, d *DP, next *fsdp.Request) {
		t.Helper()
		if reply := d.Serve(next); reply.OK() {
			t.Fatalf("re-drive against a lost SCB answered: Done=%v, %d entries", reply.Done, len(reply.Rows))
		}
	}

	t.Run("Crash and restart", func(t *testing.T) {
		r := newCrashRig(t)
		for i := int64(0); i < 300; i++ {
			insertEmp(t, r.d, r.schema, 1, empRow(i, "e", 1))
		}
		commitTx(t, r.d, 1)
		_, next := first(r.d, 0)
		r.crashAndRecover(t)
		refused(t, r.d, next)
		// The restarted Disk Process serves a new conversation whole.
		var count int64
		req := &fsdp.Request{Kind: fsdp.KAggFirst, File: "EMP", Range: keys.All(), Agg: countStar, RowLimit: 100}
		for {
			reply := r.d.Serve(req)
			if !reply.OK() {
				t.Fatal(reply.Err)
			}
			for _, entry := range reply.Rows {
				_, p, err := decodeEntry(entry, countSum.Cols[:1])
				if err != nil {
					t.Fatal(err)
				}
				count += p[0].Count
			}
			if reply.Done {
				break
			}
			req = &fsdp.Request{Kind: fsdp.KAggNext, File: "EMP", SCB: reply.SCB, Range: req.Range.Continue(reply.LastKey), RowLimit: 100}
		}
		if count != 300 {
			t.Errorf("COUNT(*) after restart = %d, want 300", count)
		}
	})

	t.Run("CLOSE^SUBSET", func(t *testing.T) {
		d, _, _ := testDP(t, nil)
		loadEmp(t, d, 300)
		reply, next := first(d, 0)
		d.Serve(&fsdp.Request{Kind: fsdp.KCloseSubset, File: "EMP", SCB: reply.SCB})
		refused(t, d, next)
	})

	t.Run("a failed message", func(t *testing.T) {
		d, _, _ := testDP(t, func(c *Config) { c.LockTimeout = 20 * time.Millisecond })
		s := loadEmp(t, d, 300)
		// Transaction 7 holds record 150 exclusively; transaction 9's second
		// message folds records 100-149 in, then cannot lock its virtual
		// block and fails.
		insertEmp(t, d, s, 7, empRow(1000, "blocker", 1))
		if reply := d.Serve(&fsdp.Request{Kind: fsdp.KUpdateRecord, Tx: 7, File: "EMP", Key: key1(150),
			Row: record.Encode(empRow(150, "held", 1))}); !reply.OK() {
			t.Fatal(reply.Err)
		}
		_, next := first(d, 9)
		refused(t, d, next)
		commitTx(t, d, 7)
		refused(t, d, next) // and stays refused: a retry would fold 100-199 in twice
		if scbs := d.OpenState().SCBs; scbs != 0 {
			t.Errorf("%d SCBs open after the conversation failed", scbs)
		}
		d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: 9})
	})
}

// TestAggFedFromFieldBytesIsFeed: visitAgg builds the group key from the
// encoded key fields and feeds COUNT and SUM the field's integer or float
// without a record.Value in between; everything else goes through the
// general AggPartial.Feed. The reference folds every record's decoded
// values through Feed alone, and the conversation's merged partials must be
// that, field for field — negative and NULL arguments, a sum that changes
// sign and length, counts that cross a varint byte, MIN and MAX. (A SUM
// over a VARCHAR or a BOOLEAN column is refused:
// TestHostileAggSpecsAreRefused.) driveAgg holds every reply to the block
// budget, and finishAgg refuses to ship entries that weigh anything but
// what the partials said they grew to.
func TestAggFedFromFieldBytesIsFeed(t *testing.T) {
	const rows = 5000
	d, _, _ := testDP(t, nil)
	s := record.MustSchema("ACCT", []record.Field{
		{Name: "ID", Type: record.TypeInt, NotNull: true},
		{Name: "GRP", Type: record.TypeString},
		{Name: "N", Type: record.TypeInt},
		{Name: "F", Type: record.TypeFloat},
		{Name: "OK", Type: record.TypeBool},
		{Name: "NOTE", Type: record.TypeString},
	}, []int{0})
	if reply := d.Serve(&fsdp.Request{Kind: fsdp.KCreateFile, File: "ACCT", Schema: record.EncodeSchema(s)}); !reply.OK() {
		t.Fatalf("create: %s", reply.Err)
	}
	spec := &fsdp.AggSpec{GroupBy: []int{1, 4}, Cols: []fsdp.AggCol{
		{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 2}, {Fn: fsdp.AggSum, Col: 3}, {Fn: fsdp.AggCount, Col: 2},
		{Fn: fsdp.AggMin, Col: 2}, {Fn: fsdp.AggMax, Col: 5}, {Fn: fsdp.AggSum, Col: 0},
	}}
	table := make([]record.Row, rows)
	want := map[string][]fsdp.AggPartial{}
	for i := range table {
		row := record.Row{record.Int(int64(i)), record.String(string(rune('a' + i%7))), record.Int(int64((i%13 - 6) * (1 << (i % 40)))),
			record.Float(float64(i) / 4), record.Bool(i%3 == 0), record.String(strings.Repeat("n", i%50))}
		for _, f := range []int{1, 2, 3, 4, 5} {
			if (i+f)%11 == 0 {
				row[f] = record.Null
			}
		}
		table[i] = row
		k := key(row[1], row[4])
		if want[k] == nil {
			want[k] = make([]fsdp.AggPartial, len(spec.Cols))
		}
		for j, c := range spec.Cols {
			switch {
			case c.Star:
				want[k][j].Count++
			case !row[c.Col].IsNull():
				want[k][j].Feed(c.Fn, row[c.Col])
			}
		}
	}
	if err := d.BulkLoad("ACCT", table); err != nil {
		t.Fatal(err)
	}
	for _, rowLimit := range []uint32{0, 97} {
		c := driveAgg(t, d, spec, 0, rowLimit)
		if len(c.groups) != len(want) {
			t.Fatalf("row limit %d: %d groups, want %d", rowLimit, len(c.groups), len(want))
		}
		for k, w := range want {
			if got := c.groups[k]; !reflect.DeepEqual(got, w) {
				t.Errorf("row limit %d: group %x:\n got %+v\nwant %+v", rowLimit, k, got, w)
			}
		}
	}
}

// TestHostileAggSpecsAreRefused: an aggregate specification is bytes off
// the network, and the Disk Process answers only one it can honour. Each
// of these used to be answered: an unknown function folded as a COUNT, a
// SUM of a VARCHAR field counted with nothing added, and an ordinal of
// 2^63 refused in words that named it "-".
func TestHostileAggSpecsAreRefused(t *testing.T) {
	d, _, _ := testDP(t, nil)
	loadEmp(t, d, 10)
	for _, c := range []struct {
		name string
		spec *fsdp.AggSpec
		err  string
	}{
		{"unknown function", &fsdp.AggSpec{Cols: []fsdp.AggCol{{Fn: fsdp.AggFn(99), Col: 0}}}, "unknown aggregate function 99"},
		{"SUM of a VARCHAR", &fsdp.AggSpec{GroupBy: []int{0}, Cols: []fsdp.AggCol{{Fn: fsdp.AggSum, Col: 1}}}, "SUM of field 1 of EMP, which is VARCHAR, not a number"},
		{"group-by ordinal 2^63", &fsdp.AggSpec{GroupBy: []int{math.MinInt64}, Cols: countSum.Cols[:1]}, "bad agg group-by ordinal"},
		{"column ordinal 2^31", &fsdp.AggSpec{Cols: []fsdp.AggCol{{Fn: fsdp.AggMax, Col: 1 << 31}}}, "bad agg column ordinal"},
		{"group-by ordinal 2^31-1", &fsdp.AggSpec{GroupBy: []int{math.MaxInt32}, Cols: countSum.Cols[:1]}, "dp: aggregate field ordinal 2147483647 out of range for EMP"},
		{"column ordinals past the record", &fsdp.AggSpec{GroupBy: []int{0}, Cols: []fsdp.AggCol{{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggMax, Col: 9}, {Fn: fsdp.AggMin, Col: 12}}},
			"dp: aggregate field ordinal 12 out of range for EMP"},
	} {
		reply := d.Serve(&fsdp.Request{Kind: fsdp.KAggFirst, File: "EMP", Range: keys.All(), Agg: fsdp.EncodeAggSpec(c.spec)})
		if reply.Code != fsdp.ErrBadRequest || !strings.Contains(reply.Err, c.err) {
			t.Errorf("%s: code %d %q with %d entries; want ErrBadRequest saying %q", c.name, reply.Code, reply.Err, len(reply.Rows), c.err)
		}
	}
	if scbs := d.OpenState().SCBs; scbs != 0 {
		t.Errorf("%d SCBs open after refusals", scbs)
	}
}

// TestAggIntKeyEntriesAreTheByteKeyEntries: a single INTEGER group key is
// found by its int64 (the int path), everything else by its key bytes
// (the byte path), and what ships is the same either way. One
// conversation over 1000 records, 40 a message, grouped on an INTEGER
// column holding NULL (the byte path, beside the int path in one table),
// 0, -1, MinInt64, MaxInt64 and 245 more values of both signs: 250 groups,
// so the table grows in the middle of the first message and again in the
// second, after a re-drive. The reply's entries are, byte for byte, the
// ones fsdp.AppendGroup builds from the reference partials in key-byte
// order.
func TestAggIntKeyEntriesAreTheByteKeyEntries(t *testing.T) {
	const rows, ngroups = 1000, 250
	grp := func(i int) record.Value {
		switch j := i % ngroups; j {
		case 0:
			return record.Null
		case 1:
			return record.Int(0)
		case 2:
			return record.Int(-1)
		case 3:
			return record.Int(math.MinInt64)
		case 4:
			return record.Int(math.MaxInt64)
		default:
			return record.Int(int64(j) * 1_000_003 * int64(1-2*(j%2)))
		}
	}
	d, _, _ := testDP(t, func(c *Config) { c.MaxReplyBytes = 1 << 20 })
	createAcct(t, d)
	table := make([]record.Row, rows)
	spec := &fsdp.AggSpec{GroupBy: []int{1}, Cols: []fsdp.AggCol{
		{Fn: fsdp.AggCount, Star: true}, {Fn: fsdp.AggSum, Col: 2}, {Fn: fsdp.AggSum, Col: 0}, {Fn: fsdp.AggMin, Col: 3}, {Fn: fsdp.AggCount, Col: 1}}}
	want := map[string][]fsdp.AggPartial{} // by key bytes
	for i := range table {
		table[i] = record.Row{record.Int(int64(i)), grp(i), record.Float(float64(i) / 2), record.String(strings.Repeat("n", 1+i%5))}
		k := string(table[i][1].AppendKey(nil))
		if want[k] == nil {
			want[k] = make([]fsdp.AggPartial, len(spec.Cols))
		}
		for j, c := range spec.Cols {
			switch {
			case c.Star:
				want[k][j].AddCount()
			case !table[i][c.Col].IsNull():
				want[k][j].Feed(c.Fn, table[i][c.Col])
			}
		}
	}
	if err := d.BulkLoad("ACCT", table); err != nil {
		t.Fatal(err)
	}
	var entries [][]byte
	var sorted []string
	for k := range want {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	keyOf := map[string]record.Value{}
	for i := 0; i < ngroups; i++ {
		keyOf[string(grp(i).AppendKey(nil))] = grp(i)
	}
	for _, k := range sorted {
		entries = append(entries, fsdp.AppendGroup(nil, 1, record.AppendValue(nil, keyOf[k]), want[k]))
	}

	tableLen := func(scb uint32) int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.scbs[scb].groups.Slots()
	}
	var got [][]byte
	var grown []int // the table's size after each message but the last
	req := &fsdp.Request{Kind: fsdp.KAggFirst, File: "ACCT", Range: keys.All(), Agg: fsdp.EncodeAggSpec(spec), RowLimit: 40}
	for {
		reply := d.Serve(req)
		if !reply.OK() {
			t.Fatalf("message %d: %s", len(grown)+1, reply.Err)
		}
		got = append(got, reply.Rows...)
		if reply.Done {
			break
		}
		grown = append(grown, tableLen(reply.SCB))
		req = &fsdp.Request{Kind: fsdp.KAggNext, File: "ACCT", SCB: reply.SCB, Range: req.Range.Continue(reply.LastKey), RowLimit: 40}
	}
	if len(grown) != rows/40-1 || grown[0] != 128 || grown[1] != 256 {
		t.Fatalf("table sizes after each message %v: want 128 after the first (40 groups) and 256 after the second (80)", grown)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if !bytes.Equal(got[i], entries[i]) {
			t.Errorf("entry %d (key %v):\n got %x\nwant %x", i, keyOf[sorted[i]], got[i], entries[i])
		}
	}
}
