package dp

import (
	"sync"
	"testing"

	"nonstopsql/internal/disk"
	"nonstopsql/internal/fsdp"
	"nonstopsql/internal/record"
	"nonstopsql/internal/tmf"
	"nonstopsql/internal/wal"
)

// TestAbortShipsCompensations is the regression test for the undo
// path writing compensation records straight to the trail instead of
// through appendAudit. The backup of a replicated group learns about
// state changes only from the Ship stream; an abort that skips it
// leaves the backup believing the aborted rows still exist, so a
// takeover right after the abort resurrects them. Post-fix, every
// compensation and the abort record itself must reach the stream.
func TestAbortShipsCompensations(t *testing.T) {
	var mu sync.Mutex
	var shipped []wal.Record
	vol := disk.NewVolume("$DATA1", true)
	auditVol := disk.NewVolume("$AUDIT", true)
	trail, err := wal.NewTrail(wal.Config{Volume: auditVol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trail.Close)
	d, err := New(Config{
		Name: "$DATA1", Volume: vol,
		Audit: tmf.NewAuditPort(trail, nil, "", 0),
		Ship: func(rec *wal.Record) {
			mu.Lock()
			shipped = append(shipped, *rec)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := createEmp(t, d, nil)

	tx := tmf.NewTxID()
	insertEmp(t, d, s, tx, empRow(1, "doomed-a", 10))
	insertEmp(t, d, s, tx, empRow(2, "doomed-b", 20))
	mu.Lock()
	base := len(shipped)
	mu.Unlock()

	reply := d.Serve(&fsdp.Request{Kind: fsdp.KAbort, Tx: tx})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	// Two compensating deletes, then the abort record: three records
	// on the stream to the backup, in that order.
	mu.Lock()
	got := shipped[base:]
	mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("abort shipped %d records, want 3 (2 compensations + abort)", len(got))
	}
	for i, r := range got {
		want := wal.RecDelete
		if i == 2 {
			want = wal.RecAbort
		}
		if r.TxID != tx || r.Type != want || r.Compensation != (i < 2) {
			t.Errorf("shipped record %d: %s tx %d compensation %v, want %s of tx %d", i, r.Type, r.TxID, r.Compensation, want, tx)
		}
	}

	// The trail agrees: compensations flagged, abort last, and one flush
	// covers all of them.
	trail.Flush()
	recs, err := wal.Scan(auditVol, trail.FirstBlock())
	if err != nil {
		t.Fatal(err)
	}
	var comps, aborts int
	for _, r := range recs {
		if r.TxID != tx {
			continue
		}
		if r.Compensation {
			if r.Type != wal.RecDelete {
				t.Errorf("compensation for an insert should be a delete, got %s", r.Type)
			}
			comps++
		}
		if r.Type == wal.RecAbort {
			aborts++
			if comps != 2 {
				t.Errorf("abort record audited before its %d/2 compensations", comps)
			}
		}
	}
	if comps != 2 || aborts != 1 {
		t.Fatalf("trail has %d compensations and %d abort records, want 2 and 1", comps, aborts)
	}

	// The keys are reusable immediately (locks + undo state dropped).
	tx2 := tmf.NewTxID()
	insertEmp(t, d, s, tx2, empRow(1, "fresh", 30))
	commitTx(t, d, tx2)
	reply = d.Serve(&fsdp.Request{Kind: fsdp.KReadRecord, File: "EMP", Key: key1(1)})
	if !reply.OK() {
		t.Fatal(reply.Err)
	}
	row, _ := record.Decode(reply.Rows[0])
	if row[1].S != "fresh" {
		t.Fatalf("key not reusable after abort: %v", row)
	}
}
