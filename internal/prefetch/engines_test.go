package prefetch

import (
	"testing"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

type fakeQueue map[[2]int64]int

func (q fakeQueue) PendingReadsForRow(bank int, row int64) int {
	return q[[2]int64{int64(bank), row}]
}

func testCtx(q QueueView) Context {
	return Context{Banks: 16, LinesPerRow: 16, RowsPerBank: 8192, Queue: q}
}

func TestSchemeStringsAndParse(t *testing.T) {
	names := []string{"BASE", "BASE-HIT", "MMD", "CAMPS", "CAMPS-MOD"}
	for i, s := range Schemes() {
		if s.String() != names[i] {
			t.Errorf("scheme %d = %q, want %q", i, s.String(), names[i])
		}
		got, err := ParseScheme(names[i])
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", names[i], got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme accepted bogus name")
	}
	if Scheme(42).String() == "" {
		t.Error("unknown scheme produced empty string")
	}
}

func TestSchemeBufferPolicy(t *testing.T) {
	for _, s := range Schemes() {
		want := pfbuffer.LRU
		if s == CAMPSMOD {
			want = pfbuffer.UtilRecency
		}
		if got := Describe(s).Policy; got != want {
			t.Errorf("%v buffer policy = %v, want %v", s, got, want)
		}
	}
}

func TestNewConstructsEveryScheme(t *testing.T) {
	cfg := config.Default()
	for _, s := range AllSchemes() {
		if e := New(s, cfg, testCtx(fakeQueue{})); e == nil {
			t.Errorf("New(%v) returned nil", s)
		}
	}
}

func TestBaseFetchesEveryDemand(t *testing.T) {
	e := newBase(testCtx(nil))
	for _, state := range []dram.RowState{dram.RowHit, dram.RowMiss, dram.RowConflict} {
		f := e.OnDemandServed(nil, Request{Bank: 3, Row: 7, Line: 2}, state, dram.NoRow)
		if len(f) != 1 || f[0].Bank != 3 || f[0].Row != 7 || !f[0].CloseAfter {
			t.Fatalf("BASE on %v returned %+v", state, f)
		}
	}
}

func TestBaseHitNeedsTwoPending(t *testing.T) {
	q := fakeQueue{}
	e := newBaseHit(testCtx(q))
	req := Request{Bank: 1, Row: 5, Line: 0}
	if f := e.OnDemandServed(nil, req, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("BASE-HIT fetched with 0 pending: %+v", f)
	}
	q[[2]int64{1, 5}] = 1
	if f := e.OnDemandServed(nil, req, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("BASE-HIT fetched with 1 pending: %+v", f)
	}
	q[[2]int64{1, 5}] = 2
	f := e.OnDemandServed(nil, req, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 5 || f[0].CloseAfter {
		t.Fatalf("BASE-HIT with 2 pending returned %+v, want open-row fetch", f)
	}
}

func TestBaseHitNilQueue(t *testing.T) {
	e := newBaseHit(testCtx(nil))
	if f := e.OnDemandServed(nil, Request{}, dram.RowHit, dram.NoRow); f != nil {
		t.Fatal("BASE-HIT with nil queue should not fetch")
	}
}

func TestCAMPSUtilizationTrigger(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	req := func(line int) Request { return Request{Bank: 2, Row: 11, Line: line} }

	// First access: a miss (row just opened, not in CT) -> tracked, no fetch.
	if f := e.OnDemandServed(nil, req(0), dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("fetch on first access: %+v", f)
	}
	// Three more distinct lines as row hits; the 4th distinct line reaches
	// the threshold of 4 and triggers the fetch.
	if f := e.OnDemandServed(nil, req(1), dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("premature fetch at util 2: %+v", f)
	}
	if f := e.OnDemandServed(nil, req(2), dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("premature fetch at util 3: %+v", f)
	}
	f := e.OnDemandServed(nil, req(3), dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 11 || f[0].Bank != 2 || !f[0].CloseAfter {
		t.Fatalf("no fetch at util 4: %+v", f)
	}
	// RUT entry cleared after the fetch.
	if u := NewRUT(16).Util(2); u != 0 {
		t.Fatalf("fresh RUT should be 0, got %d", u)
	}
	if e.rut.Util(2) != 0 {
		t.Fatalf("RUT not cleared after fetch: util=%d", e.rut.Util(2))
	}
}

func TestCAMPSRepeatedLinesDoNotTrigger(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	req := Request{Bank: 0, Row: 1, Line: 5}
	e.OnDemandServed(nil, req, dram.RowMiss, dram.NoRow)
	for i := 0; i < 10; i++ {
		if f := e.OnDemandServed(nil, req, dram.RowHit, dram.NoRow); len(f) != 0 {
			t.Fatalf("same-line hits triggered fetch: %+v", f)
		}
	}
}

func TestCAMPSConflictPath(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))

	// Row 100 opens in bank 0 and is profiled.
	e.OnDemandServed(nil, Request{Bank: 0, Row: 100, Line: 0}, dram.RowMiss, dram.NoRow)
	// Row 200 conflicts with row 100: 100 moves to the CT; 200 not in CT,
	// so no fetch yet.
	if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 200, Line: 0}, dram.RowConflict, 100); len(f) != 0 {
		t.Fatalf("fetch on first conflict: %+v", f)
	}
	if e.CTLen() != 1 {
		t.Fatalf("CT len = %d, want 1", e.CTLen())
	}
	// Row 100 comes back (conflicting with 200): it IS in the CT -> fetch
	// it whole, remove from CT.
	f := e.OnDemandServed(nil, Request{Bank: 0, Row: 100, Line: 3}, dram.RowConflict, 200)
	if len(f) != 1 || f[0].Row != 100 || !f[0].CloseAfter {
		t.Fatalf("conflict-prone row not fetched: %+v", f)
	}
	// Row 100 gone from CT; row 200 entered it when displaced.
	if e.CTLen() != 1 {
		t.Fatalf("CT len after fetch = %d, want 1 (row 200)", e.CTLen())
	}
}

func TestCAMPSConflictWithUntrackedDisplacedRow(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	// A conflict whose displaced row was never in the RUT (e.g. opened by a
	// writeback) still lands in the CT via the displacedRow argument.
	e.OnDemandServed(nil, Request{Bank: 1, Row: 50, Line: 0}, dram.RowConflict, 49)
	if e.CTLen() != 1 {
		t.Fatalf("CT len = %d, want 1", e.CTLen())
	}
	f := e.OnDemandServed(nil, Request{Bank: 1, Row: 49, Line: 0}, dram.RowConflict, 50)
	if len(f) != 1 || f[0].Row != 49 {
		t.Fatalf("untracked displaced row not treated as conflict-prone: %+v", f)
	}
}

func TestCAMPSMissAfterCampsFetchIsNotConflictProne(t *testing.T) {
	cfg := config.Default()
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	// Reach the utilization threshold, fetch, bank precharged.
	for i := 0; i < 4; i++ {
		st := dram.RowHit
		if i == 0 {
			st = dram.RowMiss
		}
		e.OnDemandServed(nil, Request{Bank: 0, Row: 7, Line: i}, st, dram.NoRow)
	}
	// New row opens as a plain miss (bank was precharged): no CT entry,
	// so it should be profiled, not fetched.
	if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 8, Line: 0}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("plain miss triggered fetch: %+v", f)
	}
}

func TestCAMPSThresholdOneFetchesImmediately(t *testing.T) {
	cfg := config.Default()
	cfg.CAMPS.UtilThreshold = 1
	e := newCAMPS(cfg.CAMPS, testCtx(nil))
	f := e.OnDemandServed(nil, Request{Bank: 0, Row: 3, Line: 0}, dram.RowMiss, dram.NoRow)
	if len(f) != 1 {
		t.Fatalf("threshold-1 engine should fetch on first access: %+v", f)
	}
}

func TestMMDTwoTouchConfirmation(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	e := newMMD(cfg.MMD, testCtx(nil))
	// First distinct line: no fetch yet.
	if f := e.OnDemandServed(nil, Request{Bank: 4, Row: 10, Line: 0}, dram.RowMiss, dram.NoRow); len(f) != 0 {
		t.Fatalf("fetch on first touch: %+v", f)
	}
	// Same line again: still one distinct line, no fetch.
	if f := e.OnDemandServed(nil, Request{Bank: 4, Row: 10, Line: 0}, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("fetch on repeated line: %+v", f)
	}
	// Second distinct line confirms the row: degree-1 fetch of the row
	// itself, left open (CloseAfter false — MMD is not conflict-aware).
	f := e.OnDemandServed(nil, Request{Bank: 4, Row: 10, Line: 1}, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 10 || f[0].Bank != 4 || f[0].CloseAfter {
		t.Fatalf("confirmation fetch = %+v, want open-row fetch of row 10", f)
	}
	// Touch history cleared after the fetch.
	if f := e.OnDemandServed(nil, Request{Bank: 4, Row: 10, Line: 2}, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("immediate re-fetch after trigger: %+v", f)
	}
}

func TestMMDRowChangeRestartsHistory(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	e := newMMD(cfg.MMD, testCtx(nil))
	e.OnDemandServed(nil, Request{Bank: 0, Row: 1, Line: 0}, dram.RowMiss, dram.NoRow)
	// Conflict opens row 2: history restarts, so its first touch cannot
	// trigger even though the RUT slot was half full.
	if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 2, Line: 1}, dram.RowConflict, 1); len(f) != 0 {
		t.Fatalf("fetch after row change: %+v", f)
	}
}

func TestMMDDegreeAdaptation(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	cfg.MMD.EpochRequests = 4
	e := newMMD(cfg.MMD, testCtx(nil))
	if e.Degree() != 1 {
		t.Fatalf("initial degree = %d, want 1", e.Degree())
	}
	if e.EpochRequests() != 4 {
		t.Fatalf("EpochRequests = %d, want 4", e.EpochRequests())
	}
	// An epoch of entirely useful evictions: degree rises.
	e.OnEpoch(EpochStats{UsefulTimely: 6, UsefulLate: 2})
	if e.Degree() != 2 {
		t.Fatalf("degree after useful epoch = %d, want 2", e.Degree())
	}
	// At degree 2, a confirmed row also fetches its successor, precharged
	// after the copy.
	e.OnDemandServed(nil, Request{Bank: 3, Row: 50, Line: 0}, dram.RowMiss, dram.NoRow)
	f := e.OnDemandServed(nil, Request{Bank: 3, Row: 50, Line: 1}, dram.RowHit, dram.NoRow)
	if len(f) != 2 || f[0].Row != 50 || f[1].Row != 51 || !f[1].CloseAfter {
		t.Fatalf("degree-2 fetches = %+v", f)
	}
	// An epoch of useless evictions: degree falls.
	e.OnEpoch(EpochStats{EvictedUnused: 8})
	if e.Degree() != 1 {
		t.Fatalf("degree after useless epoch = %d, want 1", e.Degree())
	}
	// OnEviction is inert — classification happens in the vault controller.
	e.OnEviction(pfbuffer.Eviction{Used: false})
	if e.Degree() != 1 {
		t.Fatalf("OnEviction changed degree to %d", e.Degree())
	}
}

func TestMMDRespectsRowBound(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	cfg.MMD.EpochRequests = 4
	ctx := testCtx(nil)
	ctx.RowsPerBank = 11
	e := newMMD(cfg.MMD, ctx)
	e.degree = 2
	e.OnDemandServed(nil, Request{Bank: 0, Row: 10, Line: 0}, dram.RowMiss, dram.NoRow)
	f := e.OnDemandServed(nil, Request{Bank: 0, Row: 10, Line: 1}, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 10 {
		t.Fatalf("next-row fetch beyond the last row: %+v", f)
	}
}

func TestMMDZeroDegreeFetchesNothingAndProbes(t *testing.T) {
	cfg := config.Default()
	cfg.MMD.TouchThreshold = 2
	e := newMMD(cfg.MMD, testCtx(nil))
	// Drive accuracy to zero across epochs until degree hits 0.
	for i := 0; i < 10 && e.Degree() > 0; i++ {
		e.OnEpoch(EpochStats{EvictedUnused: 1})
	}
	if e.Degree() != 0 {
		t.Fatalf("degree = %d, want 0", e.Degree())
	}
	// A zero-degree engine must not fetch even for a confirmed row.
	e.OnDemandServed(nil, Request{Bank: 0, Row: 5, Line: 0}, dram.RowMiss, dram.NoRow)
	if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 5, Line: 1}, dram.RowHit, dram.NoRow); len(f) != 0 {
		t.Fatalf("zero-degree engine fetched: %+v", f)
	}
	// With no evictions arriving, the next epoch probes back to degree 1.
	e.OnEpoch(EpochStats{})
	if e.Degree() != 1 {
		t.Fatalf("degree after probe epoch = %d, want 1", e.Degree())
	}
}

func TestNoneNeverFetches(t *testing.T) {
	e := newNone()
	for _, state := range []dram.RowState{dram.RowHit, dram.RowMiss, dram.RowConflict} {
		if f := e.OnDemandServed(nil, Request{Bank: 1, Row: 2, Line: 3}, state, dram.NoRow); f != nil {
			t.Fatalf("NONE fetched on %v: %+v", state, f)
		}
	}
	e.OnBufferHit(Request{})
	e.OnEviction(pfbuffer.Eviction{})
}

func TestASDConfirmsAscendingStream(t *testing.T) {
	e := newASD(testCtx(nil))
	// First touch opens the episode.
	if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 9, Line: 0}, dram.RowMiss, dram.NoRow); f != nil {
		t.Fatalf("fetch on episode open: %+v", f)
	}
	// One ascending touch: not confirmed yet.
	if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 9, Line: 1}, dram.RowHit, dram.NoRow); f != nil {
		t.Fatalf("fetch after one ascending touch: %+v", f)
	}
	// Second ascending touch confirms.
	f := e.OnDemandServed(nil, Request{Bank: 0, Row: 9, Line: 2}, dram.RowHit, dram.NoRow)
	if len(f) != 1 || f[0].Row != 9 || f[0].CloseAfter {
		t.Fatalf("confirmation = %+v, want open-row fetch of row 9", f)
	}
}

func TestASDIgnoresNonMonotonicAccess(t *testing.T) {
	e := newASD(testCtx(nil))
	e.OnDemandServed(nil, Request{Bank: 0, Row: 9, Line: 5}, dram.RowMiss, dram.NoRow)
	// Descending and repeated lines never confirm.
	for _, line := range []int{4, 3, 3, 2, 1, 0} {
		if f := e.OnDemandServed(nil, Request{Bank: 0, Row: 9, Line: line}, dram.RowHit, dram.NoRow); f != nil {
			t.Fatalf("non-monotonic access fetched: %+v", f)
		}
	}
}

func TestASDDepthAdaptsToLongEpisodes(t *testing.T) {
	e := newASD(testCtx(nil))
	if e.Depth() != 1 {
		t.Fatalf("initial depth = %d", e.Depth())
	}
	// Feed asdEpoch long episodes (full 16-line sweeps).
	for ep := 0; ep < asdEpoch+1; ep++ {
		row := int64(ep)
		e.OnDemandServed(nil, Request{Bank: 0, Row: row, Line: 0}, dram.RowMiss, dram.NoRow)
		for l := 1; l < 16; l++ {
			e.OnDemandServed(nil, Request{Bank: 0, Row: row, Line: l}, dram.RowHit, dram.NoRow)
		}
	}
	if e.Depth() != 2 {
		t.Fatalf("depth after long episodes = %d, want 2", e.Depth())
	}
	// At depth 2 a confirmation also fetches the successor row.
	e.OnDemandServed(nil, Request{Bank: 3, Row: 100, Line: 0}, dram.RowMiss, dram.NoRow)
	e.OnDemandServed(nil, Request{Bank: 3, Row: 100, Line: 1}, dram.RowHit, dram.NoRow)
	f := e.OnDemandServed(nil, Request{Bank: 3, Row: 100, Line: 2}, dram.RowHit, dram.NoRow)
	if len(f) != 2 || f[1].Row != 101 || !f[1].CloseAfter {
		t.Fatalf("depth-2 fetches = %+v", f)
	}
	// Feed short episodes: depth falls back to 1.
	for ep := 0; ep < 2*asdEpoch+1; ep++ {
		row := int64(1000 + ep)
		e.OnDemandServed(nil, Request{Bank: 1, Row: row, Line: 0}, dram.RowConflict, row-1)
		e.OnDemandServed(nil, Request{Bank: 1, Row: row, Line: 1}, dram.RowHit, dram.NoRow)
	}
	if e.Depth() != 1 {
		t.Fatalf("depth after short episodes = %d, want 1", e.Depth())
	}
}

func TestAllSchemesIncludesExtensions(t *testing.T) {
	// 11 builtins; other tests may register extra probe engines.
	all := AllSchemes()
	if len(all) < 11 {
		t.Fatalf("AllSchemes = %v", all)
	}
	for _, tc := range []struct {
		name string
		want Scheme
	}{
		{"NONE", None}, {"ASD", ASD}, {"ghb", GHB}, {"sisb", SISB},
		{"bestoffset", BestOffset}, {"best-offset", BestOffset}, {"hybrid", Hybrid},
	} {
		if s, err := ParseScheme(tc.name); err != nil || s != tc.want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", tc.name, s, err, tc.want)
		}
	}
	// The paper's figure set stays at five.
	if len(Schemes()) != 5 {
		t.Fatalf("Schemes() = %v", Schemes())
	}
}
