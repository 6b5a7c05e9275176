package cache

import (
	"math/rand"
	"testing"
	"unsafe"

	"camps/internal/config"
)

// wide is an address bit far enough up that a tinyLevel tag (address
// bits 8 and up) needs more than 32 bits for it.
const wide = uint64(1) << 44

// bytesPerLine is the level's per-line storage: tag halves, state and
// recency stamp (the per-set clocks are not per line).
func bytesPerLine(l *Level) uintptr {
	n := uintptr(len(l.state))
	total := uintptr(len(l.tags))*unsafe.Sizeof(l.tags[0]) +
		uintptr(len(l.tagsHi))*unsafe.Sizeof(uint32(0)) +
		n*unsafe.Sizeof(l.state[0]) + uintptr(len(l.stamp))*unsafe.Sizeof(l.stamp[0])
	return total / n
}

// TestSplitTagsWideAndNarrowShareASet puts a narrow and a wide address
// whose tags have the same low 32 bits into one set: they must stay
// distinct lines, and before any wide tag is resident a wide probe is a
// miss even though its low half matches.
func TestSplitTagsWideAndNarrowShareASet(t *testing.T) {
	l := tinyLevel(4)
	narrow := uint64(0x1200)
	alias := narrow | wide // same set, same low tag half
	l.Install(narrow, false)
	if l.tagsHi != nil {
		t.Fatal("a narrow install allocated the high tag halves")
	}
	if l.Contains(alias) || l.Lookup(alias, false) {
		t.Fatal("a wide probe matched a narrow line on its low tag half")
	}
	if v := l.Install(alias, true); v.Valid {
		t.Fatalf("installing into a free way evicted %+v", v)
	}
	if l.tagsHi == nil {
		t.Fatal("a wide install did not allocate the high tag halves")
	}
	for _, a := range []uint64{narrow, alias} {
		if !l.Contains(a) || !l.Lookup(a, false) {
			t.Fatalf("%#x not resident after both installs", a)
		}
	}
	if l.Contains(narrow|wide<<1) || l.Contains(narrow+256) {
		t.Fatal("Contains matched a line that was never installed")
	}
}

// TestSplitTagsVictimReconstruction evicts narrow and wide lines from a
// one-line level, before and after the high halves exist, and requires
// the exact victim address every time, up to the topmost address bit.
func TestSplitTagsVictimReconstruction(t *testing.T) {
	l := NewLevel(config.CacheLevel{SizeBytes: 64, Ways: 1, LineBytes: 64, HitLatency: 1})
	seq := []uint64{
		0x1240,                 // narrow, high halves not yet allocated
		0x5280,                 // narrow victim on the narrow path
		0x1240 | wide,          // promotes; narrow victim
		0x1240 | 1<<63 | 1<<50, // wide victim, same low tag half
		0xFFFF_FFFF_FFFF_FFC0,  // every tag bit set
		0x5280,                 // wide victim, narrow newcomer
	}
	for i, a := range seq {
		v := l.Install(a, i%2 == 0)
		if i > 0 {
			prev, dirty := seq[i-1], (i-1)%2 == 0
			if !v.Valid || v.Addr != prev || v.Dirty != dirty {
				t.Fatalf("install %d (%#x): victim %+v, want %#x dirty=%v", i, a, v, prev, dirty)
			}
			if l.Contains(prev) {
				t.Fatalf("install %d: evicted %#x still resident", i, prev)
			}
		}
		if !l.Contains(a) {
			t.Fatalf("install %d: %#x not resident", i, a)
		}
	}
}

// TestSplitTagsMatchReferenceAcrossPromotion drives a Level and the naive
// move-to-front model with narrow addresses first and then, mid-run, with
// wide addresses aliasing the narrow ones' low tag halves. Every hit,
// victim and Contains answer must agree on both sides of the promotion.
func TestSplitTagsMatchReferenceAcrossPromotion(t *testing.T) {
	for _, ways := range []int{1, 4, 16} {
		const sets = 4
		l := NewLevel(config.CacheLevel{SizeBytes: int64(sets * ways * 64), Ways: ways, LineBytes: 64, HitLatency: 1})
		ref := newRefLevel(sets, ways)
		rng := rand.New(rand.NewSource(int64(ways)))
		pool := 2 * sets * ways
		const ops, promoteAt = 20000, 10000
		for i := 0; i < ops; i++ {
			pick := func() uint64 {
				a := uint64(rng.Intn(pool)) * 64
				if i >= promoteAt && rng.Intn(2) == 0 {
					a |= wide << uint(rng.Intn(3)) // three high halves per low half
				}
				return a
			}
			addr, write := pick(), rng.Intn(4) == 0
			if rng.Intn(2) == 0 {
				if got, want := l.Lookup(addr, write), ref.lookup(addr, write); got != want {
					t.Fatalf("%d-way op %d: Lookup(%#x) = %v, reference %v", ways, i, addr, got, want)
				}
			} else if got, want := l.Install(addr, write), ref.install(addr, write, false); got != want {
				t.Fatalf("%d-way op %d: Install(%#x) evicted %+v, reference %+v", ways, i, addr, got, want)
			}
			probe := pick()
			if _, pos := ref.find(probe); l.Contains(probe) != (pos >= 0) {
				t.Fatalf("%d-way op %d: Contains(%#x) = %v, reference %v", ways, i, probe, pos < 0, pos >= 0)
			}
			if i == promoteAt-1 && l.tagsHi != nil {
				t.Fatalf("%d-way: high tag halves allocated before any wide address", ways)
			}
		}
		if l.tagsHi == nil {
			t.Fatalf("%d-way: wide addresses never promoted the level", ways)
		}
	}
}

// TestSplitTagsBytesPerLine pins the per-line storage: 6 bytes while
// every tag fits 32 bits, 10 once a wide tag has been installed.
func TestSplitTagsBytesPerLine(t *testing.T) {
	l := NewLevel(config.Default().L3)
	for a := uint64(0); a < 1<<24; a += 64 {
		l.Install(a, a%3 == 0)
	}
	if got := bytesPerLine(l); got != 6 {
		t.Fatalf("narrow level stores %d bytes per line, want 6", got)
	}
	l.Install(wide<<8, false)
	if got := bytesPerLine(l); got != 10 {
		t.Fatalf("promoted level stores %d bytes per line, want 10", got)
	}
}

// TestSplitTagsSteadyStateZeroAlloc is TestLevelSteadyStateZeroAlloc on a
// promoted level: once the high halves exist, wide and narrow traffic
// allocates nothing.
func TestSplitTagsSteadyStateZeroAlloc(t *testing.T) {
	l := tinyLevel(16)
	rng := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(128)) * 64
		if i%2 == 1 {
			addrs[i] |= wide
		}
	}
	run := func() {
		for i, a := range addrs {
			if !l.Lookup(a, i%5 == 0) {
				l.Install(a, i%7 == 0)
			}
		}
	}
	run()
	if l.tagsHi == nil {
		t.Fatal("wide addresses did not promote the level")
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 50; i++ {
			run()
		}
	}); allocs != 0 {
		t.Fatalf("promoted level allocated %.0f times, want 0", allocs)
	}
}

// TestHierarchyCloneIsIndependent warms a hierarchy, clones it, and then
// drives the clone and a replayed twin of the original with the same
// references: every access must resolve identically, and driving the
// clone must leave the original's contents and statistics untouched.
func TestHierarchyCloneIsIndependent(t *testing.T) {
	cfg := config.Default()
	cfg.Processor.Cores = 2
	rng := rand.New(rand.NewSource(9))
	type ref struct {
		core  int
		addr  uint64
		write bool
	}
	refs := make([]ref, 60000)
	for i := range refs {
		refs[i] = ref{rng.Intn(2), uint64(rng.Intn(1<<16)) * 64, rng.Intn(3) == 0}
	}
	warm, twin := NewHierarchy(cfg), NewHierarchy(cfg)
	for _, r := range refs[:30000] {
		warm.Access(r.core, r.addr, r.write)
		twin.Access(r.core, r.addr, r.write)
	}
	clone := warm.Clone()
	for i, r := range refs[30000:] {
		got, want := clone.Access(r.core, r.addr, r.write), twin.Access(r.core, r.addr, r.write)
		if got.Level != want.Level || got.Latency != want.Latency || len(got.Writebacks) != len(want.Writebacks) {
			t.Fatalf("access %d after clone: %+v, twin %+v", i, got, want)
		}
	}
	for core := 0; core < 2; core++ {
		if clone.L3Misses(core) != twin.L3Misses(core) || clone.L1(core).Hits() != twin.L1(core).Hits() {
			t.Fatalf("core %d: clone statistics diverged from the twin", core)
		}
	}
	// The original stopped at the clone point: its statistics are those
	// of the first 30000 references, and the clone's traffic left no trace.
	fresh := NewHierarchy(cfg)
	for _, r := range refs[:30000] {
		fresh.Access(r.core, r.addr, r.write)
	}
	for core := 0; core < 2; core++ {
		if warm.L3Misses(core) != fresh.L3Misses(core) || warm.L2(core).Misses() != fresh.L2(core).Misses() {
			t.Fatalf("core %d: driving the clone changed the original", core)
		}
	}
	for _, r := range refs[30000:] {
		if warm.L3().Contains(r.addr) != fresh.L3().Contains(r.addr) {
			t.Fatalf("L3 residency of %#x differs from a fresh replay", r.addr)
		}
	}
}
