// Package cache implements the three-level cache hierarchy of Table I:
// private L1 and L2 per core and one shared L3, all with 64-byte lines,
// true-LRU set associativity, and write-back/write-allocate semantics.
//
// Lines are never invalidated, and a miss fills the first free way before
// it evicts, so each set's valid lines occupy a prefix of its ways: a
// probe stops at the first invalid way. LRU order is kept with per-line
// recency stamps drawn from a per-set clock, so a hit updates one byte;
// when a set evicts, all its ways are valid and "evict the smallest stamp"
// picks the same victim as a full recency ranking.
//
// Tags are stored split: the low 32 bits of every line's tag in one array,
// the high 32 bits in a second array that is allocated only when the first
// tag needing them is installed. Until then every resident tag's high half
// is zero, so a probe whose tag has high bits set is a certain miss; the
// layout is exact for any 64-bit address while costing 6 bytes per line
// (tag half, state, stamp) on the narrow addresses every synthetic
// workload generates.
//
// The caches are functional models with timing metadata: an access
// resolves, in zero simulated time, to the level that services it plus the
// cumulative lookup latency; misses past L3 and dirty L3 evictions are the
// traffic that reaches the HMC.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"camps/internal/config"
	"camps/internal/obs"
	"camps/internal/stats"
)

// Level is one set-associative cache.
type Level struct {
	sets      int
	ways      int
	lineShift uint
	setBits   uint // log2(sets): the line-address bits that select the set
	setMask   uint64
	tags      []uint32 // sets*ways: the low 32 bits of each line's tag
	tagsHi    []uint32 // the high 32 bits; nil until a tag needs them
	state     []uint8  // bit0 valid, bit1 dirty
	stamp     []uint8  // recency stamp per line; larger = more recent
	clock     []uint8  // per set: the stamp of its most recent touch
	hitLat    int64

	hits   stats.Counter
	misses stats.Counter
	evicts stats.Counter
	wbacks stats.Counter

	prefInstalled stats.Counter
	prefUseful    stats.Counter
}

const (
	stValid uint8 = 1 << 0
	stDirty uint8 = 1 << 1
	stPref  uint8 = 1 << 2 // installed by a core-side prefetch, unused yet
)

// maxWays bounds associativity so a re-ranked set (stamps 0..ways-1)
// always leaves its clock room for the next touch. config.Validate
// rejects larger configurations.
const maxWays = 255

// NewLevel builds a cache level from its configuration.
func NewLevel(cfg config.CacheLevel) *Level {
	sets := int(cfg.SizeBytes) / cfg.Ways / cfg.LineBytes
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a positive power of two", sets))
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways exceed the %d-way limit of 8-bit recency stamps", cfg.Ways, maxWays))
	}
	n := sets * cfg.Ways
	return &Level{
		sets:      sets,
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineBytes))),
		setBits:   uint(bits.TrailingZeros64(uint64(sets))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint32, n),
		state:     make([]uint8, n),
		stamp:     make([]uint8, n),
		clock:     make([]uint8, sets),
		hitLat:    cfg.HitLatency,
	}
}

// HitLatency returns the level's lookup latency in CPU cycles.
func (l *Level) HitLatency() int64 { return l.hitLat }

// Sets returns the number of sets.
func (l *Level) Sets() int { return l.sets }

// Hits returns the hit count.
func (l *Level) Hits() uint64 { return l.hits.Value() }

// Misses returns the miss count.
func (l *Level) Misses() uint64 { return l.misses.Value() }

// Writebacks returns the number of dirty lines evicted.
func (l *Level) Writebacks() uint64 { return l.wbacks.Value() }

func (l *Level) index(addr uint64) (set int, lineTag uint64) {
	line := addr >> l.lineShift
	return int(line & l.setMask), line >> l.setBits
}

// find returns the index of tag's line in set, or -1 when it is not
// resident. The high tag half is compared only on a low-half match.
func (l *Level) find(set int, tag uint64) int {
	lo, hi := uint32(tag), uint32(tag>>32)
	if hi != 0 && l.tagsHi == nil {
		return -1 // no resident tag has high bits
	}
	base := set * l.ways
	for i := base; i < base+l.ways; i++ {
		if l.state[i]&stValid == 0 {
			break // the set's valid lines end here
		}
		if l.tags[i] == lo && l.hiTag(i) == hi {
			return i
		}
	}
	return -1
}

// hiTag returns the high half of line i's tag.
func (l *Level) hiTag(i int) uint32 {
	if l.tagsHi == nil {
		return 0
	}
	return l.tagsHi[i]
}

// setTag stores tag as line i's tag, allocating the high halves on the
// first tag that needs them.
func (l *Level) setTag(i int, tag uint64) {
	l.tags[i] = uint32(tag)
	if hi := uint32(tag >> 32); hi != 0 && l.tagsHi == nil {
		l.tagsHi = make([]uint32, len(l.tags))
	}
	if l.tagsHi != nil {
		l.tagsHi[i] = uint32(tag >> 32)
	}
}

// Lookup probes for addr; on a hit it refreshes LRU and, for writes, sets
// the dirty bit.
func (l *Level) Lookup(addr uint64, write bool) bool {
	set, tag := l.index(addr)
	i := l.find(set, tag)
	if i < 0 {
		l.misses.Inc()
		return false
	}
	l.touch(set, i)
	if write {
		l.state[i] |= stDirty
	}
	if l.state[i]&stPref != 0 {
		l.state[i] &^= stPref
		l.prefUseful.Inc()
	}
	l.hits.Inc()
	return true
}

// Contains probes without disturbing LRU or statistics.
func (l *Level) Contains(addr uint64) bool {
	set, tag := l.index(addr)
	return l.find(set, tag) >= 0
}

// Victim describes a line displaced by Install.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Install places addr into its set as MRU, returning the displaced line.
// Installing an already-present line refreshes it (and may set dirty).
func (l *Level) Install(addr uint64, dirty bool) Victim {
	return l.install(addr, dirty, false)
}

// InstallPrefetched installs a line brought in by a core-side prefetcher;
// its first demand hit counts toward prefetch usefulness.
func (l *Level) InstallPrefetched(addr uint64) Victim {
	l.prefInstalled.Inc()
	return l.install(addr, false, true)
}

func (l *Level) install(addr uint64, dirty, prefetched bool) Victim {
	set, tag := l.index(addr)
	lo, hi := uint32(tag), uint32(tag>>32)
	base := set * l.ways
	// One pass over the valid prefix: the line itself if present, else the
	// first free way, else the LRU (smallest-stamp) way. Stamps within a
	// set are distinct, so the LRU way is unique.
	free, lru := -1, base
	for i := base; i < base+l.ways; i++ {
		if l.state[i]&stValid == 0 {
			free = i
			break
		}
		if l.tags[i] == lo && l.hiTag(i) == hi {
			// Already present: refresh (a prefetch overlay never
			// downgrades the line's state).
			l.touch(set, i)
			if dirty {
				l.state[i] |= stDirty
			}
			return Victim{}
		}
		if l.stamp[i] < l.stamp[lru] {
			lru = i
		}
	}
	var victim Victim
	i := free
	if i < 0 {
		i = lru
		victim = Victim{
			Addr:  l.reconstruct(set, uint64(l.tags[i])|uint64(l.hiTag(i))<<32),
			Dirty: l.state[i]&stDirty != 0,
			Valid: true,
		}
		l.evicts.Inc()
		if victim.Dirty {
			l.wbacks.Inc()
		}
	}
	l.setTag(i, tag)
	l.state[i] = stValid
	if dirty {
		l.state[i] |= stDirty
	}
	if prefetched {
		l.state[i] |= stPref
	}
	l.touch(set, i)
	return victim
}

// PrefetchInstalled returns lines installed by a core-side prefetcher.
func (l *Level) PrefetchInstalled() uint64 { return l.prefInstalled.Value() }

// PrefetchUseful returns prefetched lines that saw a demand hit.
func (l *Level) PrefetchUseful() uint64 { return l.prefUseful.Value() }

// reconstruct rebuilds a line's base address from set and tag.
func (l *Level) reconstruct(set int, tag uint64) uint64 {
	line := tag<<l.setBits | uint64(set)
	return line << l.lineShift
}

// touch makes line i, which lies in set, the set's MRU entry by giving
// it the set's next clock value.
func (l *Level) touch(set, i int) {
	c := l.clock[set]
	if c == 0xFF {
		c = l.rerank(set)
	}
	c++
	l.clock[set] = c
	l.stamp[i] = c
}

// rerank compresses the set's valid stamps to 0..k-1 in recency order
// before its clock wraps, returning the new clock (the largest stamp). An
// insertion sort of way indices by stamp keeps it allocation-free; a set
// holds at most maxWays lines.
func (l *Level) rerank(set int) uint8 {
	base := set * l.ways
	var order [maxWays]uint8
	k := 0
	for w := 0; w < l.ways; w++ {
		if l.state[base+w]&stValid == 0 {
			continue
		}
		j := k
		for j > 0 && l.stamp[base+int(order[j-1])] > l.stamp[base+w] {
			order[j] = order[j-1]
			j--
		}
		order[j] = uint8(w)
		k++
	}
	for r := 0; r < k; r++ {
		l.stamp[base+int(order[r])] = uint8(r)
	}
	return uint8(k - 1)
}

// clone returns a deep copy of the level: contents, recency state and
// statistics.
func (l *Level) clone() *Level {
	c := *l
	c.tags = slices.Clone(l.tags)
	c.tagsHi = slices.Clone(l.tagsHi)
	c.state = slices.Clone(l.state)
	c.stamp = slices.Clone(l.stamp)
	c.clock = slices.Clone(l.clock)
	return &c
}

// Hierarchy is the full per-chip cache stack.
type Hierarchy struct {
	l1, l2 []*Level
	l3     *Level

	l3MissPerCore []stats.Counter
}

// NewHierarchy builds the stack for cfg.Processor.Cores cores.
func NewHierarchy(cfg config.Config) *Hierarchy {
	h := &Hierarchy{l3: NewLevel(cfg.L3)}
	h.l1 = make([]*Level, cfg.Processor.Cores)
	h.l2 = make([]*Level, cfg.Processor.Cores)
	h.l3MissPerCore = make([]stats.Counter, cfg.Processor.Cores)
	for i := range h.l1 {
		h.l1[i] = NewLevel(cfg.L1)
		h.l2[i] = NewLevel(cfg.L2)
	}
	return h
}

// Clone returns a deep copy of the hierarchy: every level's contents,
// recency state and statistics, and the per-core L3 miss counts. The copy
// shares nothing with h, so the two evolve independently.
func (h *Hierarchy) Clone() *Hierarchy {
	c := &Hierarchy{
		l1:            make([]*Level, len(h.l1)),
		l2:            make([]*Level, len(h.l2)),
		l3:            h.l3.clone(),
		l3MissPerCore: slices.Clone(h.l3MissPerCore),
	}
	for i := range h.l1 {
		c.l1[i] = h.l1[i].clone()
		c.l2[i] = h.l2[i].clone()
	}
	return c
}

// Instrument registers the hierarchy's hit/miss counters with the
// observability registry under the cache.* namespace (private levels are
// aggregated across cores at snapshot time).
func (h *Hierarchy) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, l := range h.l1 {
		reg.CounterFunc("cache.l1_hits", l.hits.Value)
		reg.CounterFunc("cache.l1_misses", l.misses.Value)
	}
	for _, l := range h.l2 {
		reg.CounterFunc("cache.l2_hits", l.hits.Value)
		reg.CounterFunc("cache.l2_misses", l.misses.Value)
	}
	reg.CounterFunc("cache.l3_hits", h.l3.hits.Value)
	reg.CounterFunc("cache.l3_misses", h.l3.misses.Value)
}

// Result describes how an access resolved.
type Result struct {
	// Level that serviced the access: 1..3, or 4 for main memory.
	Level int
	// Latency is the cumulative lookup latency in CPU cycles, excluding
	// main-memory time (added by the caller for Level 4).
	Latency int64
	// Writebacks lists dirty L3 victims that must be written to memory.
	Writebacks []uint64
}

// Access performs one data reference for core. Misses install the line in
// every level on the path; dirty victims cascade downward, and dirty L3
// victims surface as memory writebacks.
func (h *Hierarchy) Access(core int, addr uint64, write bool) Result {
	if core < 0 || core >= len(h.l1) {
		panic(fmt.Sprintf("cache: core %d out of range", core))
	}
	l1, l2 := h.l1[core], h.l2[core]
	res := Result{Latency: l1.HitLatency()}
	if l1.Lookup(addr, write) {
		res.Level = 1
		return res
	}
	res.Latency += l2.HitLatency()
	if l2.Lookup(addr, false) {
		res.Level = 2
		h.fillL1(core, addr, write, &res)
		return res
	}
	res.Latency += h.l3.HitLatency()
	if h.l3.Lookup(addr, false) {
		res.Level = 3
		h.fillL2(core, addr, &res)
		h.fillL1(core, addr, write, &res)
		return res
	}
	// Miss to memory: install everywhere on the way back.
	res.Level = 4
	h.l3MissPerCore[core].Inc()
	if v := h.l3.Install(addr, false); v.Valid && v.Dirty {
		res.Writebacks = append(res.Writebacks, v.Addr)
	}
	h.fillL2(core, addr, &res)
	h.fillL1(core, addr, write, &res)
	return res
}

// fillL1 installs addr into core's L1, cascading a dirty victim into L2.
func (h *Hierarchy) fillL1(core int, addr uint64, write bool, res *Result) {
	if v := h.l1[core].Install(addr, write); v.Valid && v.Dirty {
		h.installDirty(h.l2[core], v.Addr, res, func(v2 Victim) {
			h.installDirty(h.l3, v2.Addr, res, func(v3 Victim) {
				res.Writebacks = append(res.Writebacks, v3.Addr)
			})
		})
	}
}

// fillL2 installs addr into core's L2, cascading a dirty victim into L3.
func (h *Hierarchy) fillL2(core int, addr uint64, res *Result) {
	if v := h.l2[core].Install(addr, false); v.Valid && v.Dirty {
		h.installDirty(h.l3, v.Addr, res, func(v3 Victim) {
			res.Writebacks = append(res.Writebacks, v3.Addr)
		})
	}
}

// installDirty writes a dirty victim into a lower level; if that in turn
// displaces a dirty line, onDirty handles it.
func (h *Hierarchy) installDirty(lvl *Level, addr uint64, res *Result, onDirty func(Victim)) {
	if lvl.Lookup(addr, true) {
		return
	}
	if v := lvl.Install(addr, true); v.Valid && v.Dirty {
		onDirty(v)
	}
}

// InstallPrefetched installs a line fetched by core's L2 prefetcher into
// its L2 and the shared L3, returning dirty L3 victims that must be
// written to memory. It is the fill path of the core-side prefetching
// ablation; the installed lines count toward prefetch usefulness on their
// first demand hit.
func (h *Hierarchy) InstallPrefetched(core int, addr uint64) []uint64 {
	var wbs []uint64
	if v := h.l3.InstallPrefetched(addr); v.Valid && v.Dirty {
		wbs = append(wbs, v.Addr)
	}
	if v := h.l2[core].InstallPrefetched(addr); v.Valid && v.Dirty {
		res := Result{}
		h.installDirty(h.l3, v.Addr, &res, func(v3 Victim) {
			wbs = append(wbs, v3.Addr)
		})
		wbs = append(wbs, res.Writebacks...)
	}
	return wbs
}

// L1 returns core's L1 (for tests).
func (h *Hierarchy) L1(core int) *Level { return h.l1[core] }

// L2 returns core's L2 (for tests).
func (h *Hierarchy) L2(core int) *Level { return h.l2[core] }

// L3 returns the shared L3.
func (h *Hierarchy) L3() *Level { return h.l3 }

// L3Misses returns core's L3 miss count (the MPKI numerator).
func (h *Hierarchy) L3Misses(core int) uint64 { return h.l3MissPerCore[core].Value() }
