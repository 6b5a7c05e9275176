package prefetch

import (
	"testing"

	"camps/internal/config"
)

// TestEnginesSteadyStateZeroAlloc gates the whole registry at zero
// steady-state allocations, the engine-side counterpart of
// sim.TestEngineSteadyStateZeroAlloc: the tables are fixed-size, and
// OnDemandServed appends into the caller's buffer. Each engine is warmed
// on the seeded conformance stream until its tables and the reused
// buffers reach their high-water marks; after that every hook must run
// without allocating. Demand serves carry the epoch feedback the
// controller delivers immediately before them.
func TestEnginesSteadyStateZeroAlloc(t *testing.T) {
	const warm = 50_000
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			ctx := testCtx(evenRowQueue{})
			e := New(s, config.Default(), ctx)
			rng := confStream{s: 0x853c49e6748fea9b}
			var buf []Fetch
			for i := 0; i < warm; i++ {
				buf = rng.step(e, ctx, i, buf[:0])
			}
			eo, _ := e.(EpochObserver)
			served := 0
			hooks := []struct {
				name string
				op   func()
			}{
				{"OnDemandServed", func() {
					if served++; eo != nil && served%confEpoch == 0 {
						eo.OnEpoch(rng.epochStats())
					}
					st, displaced := rng.outcome(ctx)
					buf = e.OnDemandServed(buf[:0], rng.request(ctx), st, displaced)
				}},
				{"OnBufferHit", func() { e.OnBufferHit(rng.request(ctx)) }},
				{"OnEviction", func() { e.OnEviction(rng.eviction(rng.request(ctx))) }},
			}
			// One AllocsPerRun run of many calls reports the exact total;
			// a per-call mean is truncated to an integer and would hide an
			// allocation amortized over many calls.
			const calls = 5000
			for _, h := range hooks {
				allocs := testing.AllocsPerRun(1, func() {
					for i := 0; i < calls; i++ {
						h.op()
					}
				})
				if allocs != 0 {
					t.Errorf("%d steady-state %s calls allocated %.0f times, want 0", calls, h.name, allocs)
				}
			}
		})
	}
}
