package fault

import "testing"

func TestDisabledIsNoOp(t *testing.T) {
	Reset()
	defer Reset()
	fired := false
	Arm(DiskWrite, 0, func() { fired = true })
	Inject(DiskWrite)
	if fired {
		t.Fatal("armed action fired while the registry was disabled")
	}
	if Hits(DiskWrite) != 0 {
		t.Fatalf("hits counted while disabled: %d", Hits(DiskWrite))
	}
}

func TestSkipThenFireOnce(t *testing.T) {
	Reset()
	defer Reset()
	fires := 0
	Arm(WALFlushBeforeWrite, 2, func() { fires++ })
	Enable()
	for i := 0; i < 5; i++ {
		Inject(WALFlushBeforeWrite)
	}
	if fires != 1 {
		t.Fatalf("one-shot action fired %d times, want 1", fires)
	}
	if !Fired(WALFlushBeforeWrite) {
		t.Fatal("Fired not reported")
	}
	if Hits(WALFlushBeforeWrite) != 5 {
		t.Fatalf("hits %d, want 5", Hits(WALFlushBeforeWrite))
	}
	// The skip is consumed in order: hits 1 and 2 pass, hit 3 fires.
	Reset()
	n := 0
	Arm(DPAbortMidUndo, 1, func() { n = int(Hits(DPAbortMidUndo)) })
	Enable()
	Inject(DPAbortMidUndo)
	Inject(DPAbortMidUndo)
	if n != 2 {
		t.Fatalf("fired on hit %d, want 2", n)
	}
}

func TestResetClears(t *testing.T) {
	Reset()
	Enable()
	Inject(DiskBulkWrite)
	Arm(DiskBulkWrite, 0, func() {})
	Reset()
	if reg.enabled.Load() {
		t.Fatal("Reset left the registry enabled")
	}
	if Hits(DiskBulkWrite) != 0 {
		t.Fatal("Reset left hit counts")
	}
	if Fired(DiskBulkWrite) {
		t.Fatal("Reset left armings")
	}
}

func TestPointsCoverage(t *testing.T) {
	pts := Points()
	if len(pts) < 12 {
		t.Fatalf("%d crash points, want at least 12", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate point %q", p)
		}
		seen[p] = true
	}
	// Every subsystem layer is represented.
	for _, p := range []string{DiskWrite, WALFlushBeforeWrite, CacheWriteBehind, DPInsertAfterAudit, TMFAfterPrepare} {
		if !seen[p] {
			t.Fatalf("point %q missing from Points()", p)
		}
	}
}
