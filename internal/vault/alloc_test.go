package vault

import (
	"testing"

	"camps/internal/prefetch"
	"camps/internal/sim"
)

// TestFetchPathSteadyStateZeroAlloc drives a CAMPS-MOD vault through both
// fetch paths, from demand through fill, and requires zero allocations per
// round once the reused buffers have grown: the engine appends into the
// controller's directive buffer, and a fill event carries a recycled slot
// index instead of a closure over the fetch.
//
// One round: a row-buffer conflict ping-pong on bank 0 whose third demand
// finds its row in the Conflict Table and copies it inline, a demand that
// hits the copied row in the buffer, and a directive for a bank-1 row that
// goes through the fetch queue. Row numbers advance every round, so the
// buffer fills, evicts and writes rows back.
func TestFetchPathSteadyStateZeroAlloc(t *testing.T) {
	cfg := smallCfg()
	eng, c := newVault(t, cfg, prefetch.CAMPSMOD)
	rows := int64(cfg.HMC.RowsPerBank)
	done := func(sim.Time) {}
	var next int64
	queued := make([]prefetch.Fetch, 1)
	round := func() {
		a, b, q := next%rows, (next+1)%rows, (next+2)%rows
		next += 3
		for i, row := range [...]int64{a, b, a} {
			c.Submit(Request{Bank: 0, Row: row, Line: i, Done: done})
			eng.Run()
		}
		c.Submit(Request{Bank: 0, Row: a, Line: 7, Done: done})
		queued[0] = prefetch.Fetch{Bank: 1, Row: q, CloseAfter: true}
		c.enqueueFetches(queued)
		c.schedule()
		eng.Run()
	}

	for i := 0; i < 2000; i++ {
		round()
	}
	s := c.Stats()
	issued, hits := s.FetchesIssued.Value(), s.BufferHits.Value()
	// One AllocsPerRun run of many rounds reports the exact total; a
	// per-round mean is truncated to an integer and would hide an
	// allocation amortized over many rounds.
	const rounds = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d steady-state rounds allocated %.0f times, want 0", rounds, allocs)
	}
	// AllocsPerRun makes one extra warm-up run. Every round must have
	// issued an inline and a queued fetch and served one buffer hit.
	if got, want := s.FetchesIssued.Value()-issued, uint64(2*2*rounds); got != want {
		t.Fatalf("measured rounds issued %d fetches, want %d", got, want)
	}
	if got, want := s.BufferHits.Value()-hits, uint64(2*rounds); got != want {
		t.Fatalf("measured rounds served %d buffer hits, want %d", got, want)
	}
	if c.BufferStats().Evictions == 0 || s.RowWritebacks.Value() == 0 {
		t.Fatal("buffer never evicted or wrote back; the rounds do not reach steady state")
	}
}
