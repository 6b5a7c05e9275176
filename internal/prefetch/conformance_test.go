package prefetch

// Conformance suite: every registered engine — builtin or third-party —
// must satisfy the same contract the vault controller relies on. The
// suite runs New() against the full registry, so registering an engine
// is enough to put it under test.

import (
	"fmt"
	"reflect"
	"testing"

	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// confStream is a deterministic xorshift64* generator; no math/rand so the
// suite stays reproducible and simdeterminism-clean.
type confStream struct{ s uint64 }

func (r *confStream) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s * 0x2545f4914f6cdd1d
}

// request draws one demand access within the vault's geometry. Three in
// four target one of a bank's four hot rows, so the row-local engines
// (MMD, ASD, the RUT) see repeated touches; the rest spread over every
// row, so the history tables fill and evict.
func (r *confStream) request(ctx Context) Request {
	req := Request{
		Bank:  int(r.next() % uint64(ctx.Banks)),
		Row:   int64(r.next() % uint64(ctx.RowsPerBank)),
		Line:  int(r.next() % uint64(ctx.LinesPerRow)),
		Write: r.next()%8 == 0,
	}
	if r.next()%4 != 0 {
		req.Row %= 4
	}
	return req
}

// outcome draws a row-buffer outcome (hits twice as likely as a miss or a
// conflict) and, for a conflict, the displaced row.
func (r *confStream) outcome(ctx Context) (dram.RowState, int64) {
	states := [...]dram.RowState{dram.RowHit, dram.RowHit, dram.RowMiss, dram.RowConflict}
	st := states[r.next()%4]
	displaced := dram.NoRow
	if st == dram.RowConflict {
		displaced = int64(r.next() % uint64(ctx.RowsPerBank))
	}
	return st, displaced
}

// eviction draws an eviction of req's row, which the engine may never
// have fetched (the controller emits those for poisoned fetches).
func (r *confStream) eviction(req Request) pfbuffer.Eviction {
	return pfbuffer.Eviction{
		ID:    pfbuffer.RowID{Bank: req.Bank, Row: req.Row},
		Used:  r.next()%2 == 0,
		Late:  r.next()%4 == 0,
		Dirty: r.next()%4 == 0,
		Util:  int(r.next() % 16),
	}
}

// epochStats draws one epoch's efficacy feedback.
func (r *confStream) epochStats() EpochStats {
	return EpochStats{
		Demands:       200,
		BufferHits:    r.next() % 50,
		FetchesIssued: r.next() % 40,
		UsefulTimely:  r.next() % 20,
		UsefulLate:    r.next() % 5,
		EvictedUnused: r.next() % 20,
	}
}

// confEpoch is the stream's epoch cadence for EpochObserver engines.
const confEpoch = 257

// step feeds e the stream's i-th event — a demand serve, a buffer hit or
// an eviction, then epoch feedback every confEpoch events — and returns
// dst extended with any fetches the serve produced.
func (r *confStream) step(e Engine, ctx Context, i int, dst []Fetch) []Fetch {
	req := r.request(ctx)
	switch r.next() % 16 {
	case 0:
		e.OnBufferHit(req)
	case 1:
		e.OnEviction(r.eviction(req))
	default:
		st, displaced := r.outcome(ctx)
		dst = e.OnDemandServed(dst, req, st, displaced)
	}
	if eo, ok := e.(EpochObserver); ok && i%confEpoch == confEpoch-1 {
		eo.OnEpoch(r.epochStats())
	}
	return dst
}

// drive feeds engine e a fixed pseudo-random mix of demand serves, buffer
// hits, evictions, and epoch feedback, and returns the concatenated fetch
// log.
func drive(e Engine, ctx Context, seed uint64, events int) []Fetch {
	rng := confStream{s: seed}
	var log []Fetch
	for i := 0; i < events; i++ {
		log = rng.step(e, ctx, i, log)
	}
	return log
}

func TestEngineConformance(t *testing.T) {
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := config.Default()
			ctx := testCtx(fakeQueue{})
			e := New(s, cfg, ctx)

			// Fetches stay within the vault's geometry and carry a valid
			// touched-line bitmap.
			lineMask := uint64(1)<<uint(ctx.LinesPerRow) - 1
			log := drive(e, ctx, 0x9e3779b97f4a7c15, 4000)
			for _, f := range log {
				if f.Bank < 0 || f.Bank >= ctx.Banks {
					t.Fatalf("fetch bank %d out of [0,%d)", f.Bank, ctx.Banks)
				}
				if f.Row < 0 || f.Row >= ctx.RowsPerBank {
					t.Fatalf("fetch row %d out of [0,%d)", f.Row, ctx.RowsPerBank)
				}
				if f.Touched&^lineMask != 0 {
					t.Fatalf("fetch touched bitmap %#x exceeds %d lines", f.Touched, ctx.LinesPerRow)
				}
			}
			if s == None && len(log) != 0 {
				t.Fatalf("NONE issued %d fetches", len(log))
			}

			// Same seed, fresh engine: identical fetch log.
			again := drive(New(s, cfg, ctx), ctx, 0x9e3779b97f4a7c15, 4000)
			if !reflect.DeepEqual(log, again) {
				t.Fatalf("engine is non-deterministic: %d vs %d fetches", len(log), len(again))
			}

			// An epoch observer must advertise a positive cadence.
			if eo, ok := e.(EpochObserver); ok && eo.EpochRequests() <= 0 {
				t.Fatalf("EpochRequests() = %d, want > 0", eo.EpochRequests())
			}
		})
	}
}

// evenRowQueue reports two queued reads for every even row, so BASE-HIT
// fires on half the stream instead of never.
type evenRowQueue struct{}

func (evenRowQueue) PendingReadsForRow(_ int, row int64) int { return 2 * int(1-row%2) }

// TestEngineAppendContract pins the OnDemandServed buffer contract the
// vault controller relies on to reuse one buffer: an engine appends to
// dst, never modifies dst[:len(dst)], and never keeps dst. Twin engines
// see the same stream; one is handed a dst already holding sentinel
// fetches, the other nil. The sentinels must survive, the appended tail
// must equal the twin's output call for call, and scribbling over the
// returned buffer between calls must not change later predictions.
func TestEngineAppendContract(t *testing.T) {
	sentinels := []Fetch{
		{Bank: -1, Row: -1, CloseAfter: true, Touched: ^uint64(0)},
		{Bank: -2, Row: -2},
	}
	for _, s := range AllSchemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			cfg := config.Default()
			ctx := testCtx(evenRowQueue{})
			withDst, twin := New(s, cfg, ctx), New(s, cfg, ctx)
			rng := confStream{s: 0x2545f4914f6cdd1d}
			var buf []Fetch
			fetches := 0
			for i := 0; i < 6000; i++ {
				req := rng.request(ctx)
				switch rng.next() % 16 {
				case 0:
					withDst.OnBufferHit(req)
					twin.OnBufferHit(req)
				case 1:
					ev := rng.eviction(req)
					withDst.OnEviction(ev)
					twin.OnEviction(ev)
				default:
					st, displaced := rng.outcome(ctx)
					dst := append(buf[:0], sentinels...)
					out := withDst.OnDemandServed(dst, req, st, displaced)
					want := twin.OnDemandServed(nil, req, st, displaced)
					if len(out) < len(sentinels) || !reflect.DeepEqual(out[:len(sentinels)], sentinels) ||
						!reflect.DeepEqual(dst, sentinels) {
						t.Fatalf("call %d: dst prefix modified: %+v", i, out)
					}
					if tail := out[len(sentinels):]; len(tail) != len(want) ||
						(len(want) > 0 && !reflect.DeepEqual(tail, want)) {
						t.Fatalf("call %d: appended %+v, twin returned %+v", i, tail, want)
					}
					fetches += len(want)
					// An engine that kept dst would now read garbage.
					buf = out[:cap(out)]
					for j := range buf {
						buf[j] = Fetch{Bank: -9, Row: -9, Touched: ^uint64(0)}
					}
				}
				if i%confEpoch == confEpoch-1 {
					if eo, ok := withDst.(EpochObserver); ok {
						st := rng.epochStats()
						eo.OnEpoch(st)
						twin.(EpochObserver).OnEpoch(st)
					}
				}
			}
			if s != None && fetches == 0 {
				t.Fatalf("%s issued no fetches; the stream does not exercise the contract", s)
			}
		})
	}
}

// TestEvictionOfNeverFetchedRowDoesNotPanic pins the poison-fetch contract:
// the controller reports evictions (with only the RowID populated) for rows
// an engine never asked for, and no engine may panic on them.
func TestEvictionOfNeverFetchedRowDoesNotPanic(t *testing.T) {
	for _, s := range AllSchemes() {
		e := New(s, config.Default(), testCtx(fakeQueue{}))
		for i := 0; i < 64; i++ {
			e.OnEviction(pfbuffer.Eviction{ID: pfbuffer.RowID{Bank: i % 16, Row: int64(i * 31)}})
		}
	}
}

// TestRegistryExtension registers a throwaway engine and checks that every
// registry-driven surface — name parsing, listing, knobs, New — picks it up
// without further wiring. It deliberately uses the public extension path.
func TestRegistryExtension(t *testing.T) {
	name := fmt.Sprintf("conformance-probe-%d", len(Names()))
	s := Register(name, Descriptor{
		Name:   name,
		Doc:    "test-only probe engine",
		Policy: pfbuffer.LRU,
		Knobs: []Knob{{Name: name + ".knob", Help: "probe knob",
			Apply: func(cfg *config.Config, v int64) {}}},
		New: func(cfg config.Config, ctx Context) Engine { return newNone() },
	})
	got, err := ParseScheme(name)
	if err != nil || got != s {
		t.Fatalf("ParseScheme(%q) = %v, %v", name, got, err)
	}
	if s.String() != name {
		t.Fatalf("String() = %q, want %q", s.String(), name)
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() does not list %q", name)
	}
	found = false
	for _, k := range EngineKnobs() {
		if k.Name == name+".knob" {
			found = true
		}
	}
	if !found {
		t.Fatal("EngineKnobs() does not list the probe knob")
	}
	if e := New(s, config.Default(), testCtx(nil)); e == nil {
		t.Fatal("New returned nil for registered probe")
	}
	// Probe stays out of the paper figure set.
	for _, ps := range Schemes() {
		if ps == s {
			t.Fatal("probe leaked into Schemes()")
		}
	}
}

func TestRegisterRejectsDuplicatesAndNilFactory(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate name", func() {
		Register("mmd", Descriptor{Name: "mmd",
			New: func(config.Config, Context) Engine { return newNone() }})
	})
	mustPanic("duplicate alias", func() {
		Register("probe-alias-dup", Descriptor{Name: "probe-alias-dup",
			Aliases: []string{"Best-Offset"},
			New:     func(config.Config, Context) Engine { return newNone() }})
	})
	mustPanic("nil factory", func() {
		Register("probe-nil-new", Descriptor{Name: "probe-nil-new"})
	})
	mustPanic("empty name", func() {
		Register("", Descriptor{New: func(config.Config, Context) Engine { return newNone() }})
	})
}

func TestParseSchemeErrorListsAllNames(t *testing.T) {
	_, err := ParseScheme("definitely-not-registered")
	if err == nil {
		t.Fatal("ParseScheme accepted an unknown name")
	}
	for _, n := range []string{"BASE", "CAMPS-MOD", "ghb", "sisb", "bestoffset", "hybrid"} {
		if !containsSub(err.Error(), n) {
			t.Fatalf("error %q does not enumerate %q", err, n)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestValidateConfigRejectsBadHybridCandidates(t *testing.T) {
	cfg := config.Default()
	if err := ValidateConfig(cfg); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cfg.Hybrid.Candidates = []string{"MMD", "nope"}
	if err := ValidateConfig(cfg); err == nil {
		t.Fatal("unknown hybrid candidate accepted")
	}
	cfg.Hybrid.Candidates = []string{"hybrid"}
	if err := ValidateConfig(cfg); err == nil {
		t.Fatal("meta-engine accepted as its own candidate")
	}
}
