package cache

import (
	"math/rand"
	"testing"

	"camps/internal/config"
)

func tinyLevel(ways int) *Level {
	return NewLevel(config.CacheLevel{
		SizeBytes:  int64(ways * 4 * 64), // 4 sets
		Ways:       ways,
		LineBytes:  64,
		HitLatency: 2,
		MSHRs:      4,
	})
}

func TestLevelHitMiss(t *testing.T) {
	l := tinyLevel(2)
	if l.Lookup(0, false) {
		t.Fatal("hit on empty cache")
	}
	l.Install(0, false)
	if !l.Lookup(0, false) {
		t.Fatal("miss after install")
	}
	if !l.Contains(0) || l.Contains(64) {
		t.Fatal("Contains wrong")
	}
	if l.Hits() != 1 || l.Misses() != 1 {
		t.Fatalf("hits %d misses %d", l.Hits(), l.Misses())
	}
}

func TestLevelLRUEviction(t *testing.T) {
	l := tinyLevel(2) // 4 sets, so same-set addresses differ by 4*64=256
	a, b, c := uint64(0), uint64(256), uint64(512)
	l.Install(a, false)
	l.Install(b, false)
	l.Lookup(a, false) // a MRU, b LRU
	v := l.Install(c, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("evicted %+v, want line %#x", v, b)
	}
	if !l.Contains(a) || !l.Contains(c) || l.Contains(b) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestLevelDirtyEviction(t *testing.T) {
	l := tinyLevel(1)
	l.Install(0, false)
	l.Lookup(0, true) // dirty via write hit
	v := l.Install(256, false)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Fatalf("dirty eviction = %+v", v)
	}
	if l.Writebacks() != 1 {
		t.Fatalf("writebacks = %d", l.Writebacks())
	}
	// Clean eviction.
	v = l.Install(512, false)
	if v.Dirty {
		t.Fatal("clean line evicted dirty")
	}
}

func TestLevelInstallExistingRefreshes(t *testing.T) {
	l := tinyLevel(2)
	l.Install(0, false)
	v := l.Install(0, true) // refresh + dirty
	if v.Valid {
		t.Fatal("reinstall evicted something")
	}
	v2 := l.Install(256, false)
	if v2.Valid {
		t.Fatal("install into free way evicted")
	}
	v3 := l.Install(512, false) // evicts LRU = line 256? No: 0 refreshed first, then 256 -> LRU is 0.
	if !v3.Valid || v3.Addr != 0 || !v3.Dirty {
		t.Fatalf("evicted %+v, want dirty line 0", v3)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	l := tinyLevel(1)
	addr := uint64(0xABCD00) // set = (0xABCD00>>6)&3
	l.Install(addr, false)
	conflict := addr + 256 // same set, different tag (4 sets * 64B)
	v := l.Install(conflict, false)
	if !v.Valid || v.Addr != addr {
		t.Fatalf("reconstructed victim %#x, want %#x", v.Addr, addr)
	}
}

// refLine is one resident line of the reference model.
type refLine struct {
	addr        uint64
	dirty, pref bool
}

// refLevel is a deliberately naive true-LRU cache: each set is a slice in
// recency order, most recent first, and every access moves its line to
// the front.
type refLevel struct {
	sets, ways int
	lines      [][]refLine
	useful     uint64
}

func newRefLevel(sets, ways int) *refLevel {
	return &refLevel{sets: sets, ways: ways, lines: make([][]refLine, sets)}
}

func (r *refLevel) find(addr uint64) (set, pos int) {
	set = int(addr/64) % r.sets
	for i, ln := range r.lines[set] {
		if ln.addr == addr {
			return set, i
		}
	}
	return set, -1
}

// toFront moves position pos of set to the front and returns the line.
func (r *refLevel) toFront(set, pos int) *refLine {
	s := r.lines[set]
	ln := s[pos]
	copy(s[1:pos+1], s[:pos])
	s[0] = ln
	return &s[0]
}

func (r *refLevel) lookup(addr uint64, write bool) bool {
	set, pos := r.find(addr)
	if pos < 0 {
		return false
	}
	ln := r.toFront(set, pos)
	ln.dirty = ln.dirty || write
	if ln.pref {
		ln.pref = false
		r.useful++
	}
	return true
}

func (r *refLevel) install(addr uint64, dirty, pref bool) Victim {
	set, pos := r.find(addr)
	if pos >= 0 {
		ln := r.toFront(set, pos)
		ln.dirty = ln.dirty || dirty
		return Victim{}
	}
	var v Victim
	s := r.lines[set]
	if len(s) == r.ways {
		old := s[len(s)-1]
		v = Victim{Addr: old.addr, Dirty: old.dirty, Valid: true}
		s = s[:len(s)-1]
	}
	r.lines[set] = append([]refLine{{addr: addr, dirty: dirty, pref: pref}}, s...)
	return v
}

// TestLevelMatchesReferenceLRU drives a Level and the naive move-to-front
// model with the same random Lookup/Install/InstallPrefetched streams and
// requires every hit result and every victim (address, dirty and valid
// flags) to agree. Every set sees thousands of touches, far past the 255
// its clock holds before it must re-rank; in the one-set geometries all
// 40000 operations hit the same set.
func TestLevelMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 16} {
		for _, sets := range []int{1, 4} {
			l := NewLevel(config.CacheLevel{
				SizeBytes: int64(sets * ways * 64), Ways: ways, LineBytes: 64, HitLatency: 1,
			})
			ref := newRefLevel(sets, ways)
			rng := rand.New(rand.NewSource(int64(ways*100 + sets)))
			// Enough distinct lines to overflow every set, few enough that
			// hits are common.
			pool := 2 * sets * ways
			for i := 0; i < 40000; i++ {
				addr := uint64(rng.Intn(pool)) * 64
				write := rng.Intn(4) == 0
				switch op := rng.Intn(3); op {
				case 0:
					if got, want := l.Lookup(addr, write), ref.lookup(addr, write); got != want {
						t.Fatalf("%d-way %d-set op %d: Lookup(%#x) = %v, reference %v", ways, sets, i, addr, got, want)
					}
				case 1, 2:
					var got, want Victim
					if op == 1 {
						got, want = l.Install(addr, write), ref.install(addr, write, false)
					} else {
						got, want = l.InstallPrefetched(addr), ref.install(addr, false, true)
					}
					if got != want {
						t.Fatalf("%d-way %d-set op %d: install(%#x) evicted %+v, reference %+v", ways, sets, i, addr, got, want)
					}
				}
				probe := uint64(rng.Intn(pool)) * 64
				if _, pos := ref.find(probe); l.Contains(probe) != (pos >= 0) {
					t.Fatalf("%d-way %d-set op %d: Contains(%#x) = %v, reference %v", ways, sets, i, probe, !(pos >= 0), pos >= 0)
				}
			}
			if l.PrefetchUseful() != ref.useful {
				t.Fatalf("%d-way %d-set: %d useful prefetches, reference %d", ways, sets, l.PrefetchUseful(), ref.useful)
			}
		}
	}
}

// TestLevelSteadyStateZeroAlloc warms a Level, then drives hits, installs
// and evictions long enough for every set clock to wrap many times, and
// requires zero allocations over the whole run.
func TestLevelSteadyStateZeroAlloc(t *testing.T) {
	l := tinyLevel(16)
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(128)) * 64
	}
	run := func() {
		for i, a := range addrs {
			if !l.Lookup(a, i%5 == 0) {
				if i%3 == 0 {
					l.InstallPrefetched(a)
				} else {
					l.Install(a, i%7 == 0)
				}
			}
		}
	}
	run()
	hits, evicts := l.Hits(), l.evicts.Value()
	// One AllocsPerRun run of many passes reports the exact total; a
	// per-pass mean is truncated to an integer.
	const passes = 50
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < passes; i++ {
			run()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d passes allocated %.0f times, want 0", passes, allocs)
	}
	// 4 sets, so each set sees thousands of touches: far past a clock wrap.
	if l.Hits()-hits < uint64(passes*len(addrs)/4) || l.evicts.Value() == evicts {
		t.Fatalf("run did not reach steady state: %d hits, %d evictions", l.Hits()-hits, l.evicts.Value()-evicts)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	// Cold miss: level 4, latency 2+6+20.
	r := h.Access(0, 0, false)
	if r.Level != 4 || r.Latency != 28 {
		t.Fatalf("cold access = %+v, want level 4 latency 28", r)
	}
	// Immediately after: L1 hit.
	r = h.Access(0, 0, false)
	if r.Level != 1 || r.Latency != 2 {
		t.Fatalf("repeat access = %+v, want level 1 latency 2", r)
	}
	if h.L3Misses(0) != 1 {
		t.Fatalf("L3 misses = %d, want 1", h.L3Misses(0))
	}
}

func TestHierarchyL2AndL3Hits(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	h.Access(0, 0, false) // install everywhere
	// Evict from L1 (32KB, 2-way, 64B -> 256 sets; same L1 set every 16KB)
	// while staying in L2 (256KB, 4-way -> 1024 sets; same set every 64KB).
	h.Access(0, 16384, false)
	h.Access(0, 32768, false) // L1 set now {16K, 32K}; 0 evicted from L1
	r := h.Access(0, 0, false)
	if r.Level != 2 || r.Latency != 8 {
		t.Fatalf("L2 hit = %+v, want level 2 latency 8", r)
	}
	// L3 hit by another core (L3 shared; its L1/L2 are cold).
	r = h.Access(1, 0, false)
	if r.Level != 3 || r.Latency != 28 {
		t.Fatalf("cross-core L3 hit = %+v, want level 3 latency 28", r)
	}
}

func TestHierarchyWritebackSurfacesAtMemory(t *testing.T) {
	cfg := config.Default()
	// Shrink L3 so we can force dirty evictions quickly.
	cfg.L1 = config.CacheLevel{SizeBytes: 128, Ways: 1, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	cfg.L2 = config.CacheLevel{SizeBytes: 256, Ways: 1, LineBytes: 64, HitLatency: 6, MSHRs: 4}
	cfg.L3 = config.CacheLevel{SizeBytes: 512, Ways: 1, LineBytes: 64, HitLatency: 20, MSHRs: 4, Shared: true}
	h := NewHierarchy(cfg)

	h.Access(0, 0, true) // dirty line 0 in L1
	// Walk addresses mapping to the same sets until line 0 is forced out
	// of all three levels; collect writebacks.
	var wbs []uint64
	for i := 1; i <= 64; i++ {
		r := h.Access(0, uint64(i)*512*8, true)
		wbs = append(wbs, r.Writebacks...)
	}
	found := false
	for _, a := range wbs {
		if a == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty line 0 never surfaced as a memory writeback (got %v)", wbs)
	}
}

func TestHierarchyPrivateness(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	h.Access(0, 4096, false)
	// Core 1's private caches must not hold core 0's line.
	if h.L1(1).Contains(4096) || h.L2(1).Contains(4096) {
		t.Fatal("private caches leaked across cores")
	}
	if !h.L3().Contains(4096) {
		t.Fatal("shared L3 missing the line")
	}
}

func TestHierarchyCoreRangePanics(t *testing.T) {
	h := NewHierarchy(config.Default())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range core did not panic")
		}
	}()
	h.Access(99, 0, false)
}

func TestHierarchyFootprintDrivesMissRate(t *testing.T) {
	cfg := config.Default()
	h := NewHierarchy(cfg)
	// Small footprint (1 MiB): after warmup, high hit rate.
	rng := rand.New(rand.NewSource(1))
	warm := func(foot uint64, core int, n int) (miss uint64) {
		pre := h.L3Misses(core)
		for i := 0; i < n; i++ {
			h.Access(core, (uint64(rng.Intn(int(foot/64))))*64, false)
		}
		return h.L3Misses(core) - pre
	}
	warm(1<<20, 0, 50000) // warmup
	smallMisses := warm(1<<20, 0, 50000)
	// Large footprint (256 MiB) on another core: mostly misses.
	warm(256<<20, 1, 50000)
	largeMisses := warm(256<<20, 1, 50000)
	if smallMisses*10 >= largeMisses {
		t.Fatalf("footprint does not differentiate miss rates: small %d, large %d",
			smallMisses, largeMisses)
	}
}
