package obs

import (
	"fmt"
)

// Cause tags one segment of a request's journey through the memory
// system. Every picosecond between a span's begin and its retirement is
// charged to exactly one cause, so the per-cause totals of a retired
// span sum to its end-to-end latency by construction.
type Cause uint8

// The cause taxonomy, in charging order along the request path. Field
// semantics are documented in docs/OBSERVABILITY.md.
const (
	// CauseQueue is time waiting behind other work: MSHR overflow,
	// coalesced secondary misses, and vault read-queue residence not
	// explained by refresh or an injected blackout.
	CauseQueue Cause = iota
	// CauseXbar is crossbar hops and vault ingress-port serialization.
	CauseXbar
	// CauseLink is serialization plus propagation on the serial links
	// (clean transfers; retry time is charged to CauseFaultRetry).
	CauseLink
	// CauseBankConflict is precharge time spent closing another row
	// before this request's row could be activated.
	CauseBankConflict
	// CauseRefreshStall is queue time overlapping the target bank's most
	// recent refresh window.
	CauseRefreshStall
	// CauseFaultRetry is injected-fault time: link CRC retransmissions,
	// vault ingress stalls, and queue time overlapping a bank blackout.
	CauseFaultRetry
	// CauseService is the bank access itself (activate when the bank was
	// idle, column access, data burst).
	CauseService
	// CausePFBufferHit is the prefetch-buffer hit latency for demand
	// requests served from the buffer instead of a bank.
	CausePFBufferHit

	causeCount
)

var causeNames = [causeCount]string{
	CauseQueue:        "queue",
	CauseXbar:         "xbar",
	CauseLink:         "link",
	CauseBankConflict: "bank_conflict",
	CauseRefreshStall: "refresh_stall",
	CauseFaultRetry:   "fault_retry",
	CauseService:      "service",
	CausePFBufferHit:  "pfbuffer_hit",
}

// String returns the snake_case cause name used in metrics and reports.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause-%d", uint8(c))
}

// Causes returns every cause in charging order, for report rendering.
func Causes() []Cause {
	out := make([]Cause, causeCount)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// Metric names the attribution layer registers. They are exported
// constants so the statsreg lint rule can verify every span.*/pf.* name
// is a compile-time literal (no dynamic fmt.Sprintf names).
const (
	MetricSpanStarted    = "span.started"
	MetricSpanRetired    = "span.retired"
	MetricSpanE2EPs      = "span.e2e_ps"
	MetricSpanE2EHist    = "span.e2e_latency_ps"
	MetricTracerDropped  = "obs.tracer.dropped"
	metricSpanCausePfx   = "span." // + Cause.String() + "_ps"; see causeMetricNames
	MetricPFUsefulTimely = "pf.useful_timely"
	MetricPFUsefulLate   = "pf.useful_late"
	MetricPFUnused       = "pf.evicted_unused"
	MetricPFConflict     = "pf.conflict_victim"
)

// causeMetricNames holds the per-cause counter names as literals so the
// registry never sees a computed name (the statsreg rule's contract).
var causeMetricNames = [causeCount]string{
	CauseQueue:        "span.queue_ps",
	CauseXbar:         "span.xbar_ps",
	CauseLink:         "span.link_ps",
	CauseBankConflict: "span.bank_conflict_ps",
	CauseRefreshStall: "span.refresh_stall_ps",
	CauseFaultRetry:   "span.fault_retry_ps",
	CauseService:      "span.service_ps",
	CausePFBufferHit:  "span.pfbuffer_hit_ps",
}

// CauseMetricName returns the registered counter name for a cause's
// accumulated picoseconds (e.g. "span.bank_conflict_ps").
func CauseMetricName(c Cause) string { return causeMetricNames[c] }

// spanRec is one pooled span record. Records are recycled through a free
// list exactly like the engine's eventNode pool: the generation counter
// invalidates stale SpanRefs after recycling, and steady-state
// begin/advance/retire traffic allocates nothing.
type spanRec struct {
	start   int64 // span begin, ps
	cursor  int64 // end of the last charged segment, ps
	causePs [causeCount]int64
	vault   int32
	gen     uint32
}

// SpanRef is a generation-counted handle to a live span. The zero value
// means "no span" and every SpanSet method accepts it as a no-op, so
// uninstrumented requests carry no conditionals.
type SpanRef struct {
	id  int32 // record index + 1; 0 = none
	gen uint32
}

// Valid reports whether the ref points at a span (it may still be stale).
func (r SpanRef) Valid() bool { return r.id != 0 }

// SpanSet owns the attribution state of one run: the pooled span records,
// the per-cause totals they fold into on retirement, and the per-vault
// conflict heatmap. Like the Registry it is confined to the simulation
// goroutine. A nil *SpanSet is valid everywhere and records nothing, so
// attribution-off runs pay only a nil check.
type SpanSet struct {
	recs []spanRec
	free []int32

	// staged carries a span across the synchronous MSHR -> cube handoff
	// without widening the Backend interface: the MSHR stages the primary
	// miss's span immediately before calling the backend, and the cube
	// unstages it inside the same call.
	staged SpanRef

	started  uint64
	retired  uint64
	e2eTotal uint64
	causePs  [causeCount]uint64

	// vaultConflictPs is the conflict heatmap: bank_conflict picoseconds
	// folded per vault at retirement. Grown on demand (vault ids are
	// small and dense).
	vaultConflictPs []uint64

	seq int64 // retired-span sequence, the trace event's Row

	// Registry handles captured at EnableAttribution; folding on the hot
	// path touches only these preallocated structures.
	causeHist [causeCount]*Histogram
	e2eHist   *Histogram
	tr        *Tracer
}

// NewSpanSet returns a span set with capacity preallocated records.
func NewSpanSet(capacity int) *SpanSet {
	if capacity <= 0 {
		capacity = 256
	}
	s := &SpanSet{
		recs: make([]spanRec, capacity),
		free: make([]int32, 0, capacity),
	}
	for i := capacity - 1; i >= 0; i-- {
		s.free = append(s.free, int32(i))
	}
	return s
}

// register wires the span set's totals and histograms into reg and its
// retirement trace events into tr. Called by Suite.EnableAttribution.
func (s *SpanSet) register(reg *Registry, tr *Tracer) {
	s.tr = tr
	if reg == nil {
		return
	}
	reg.CounterFunc(MetricSpanStarted, func() uint64 { return s.started })
	reg.CounterFunc(MetricSpanRetired, func() uint64 { return s.retired })
	reg.CounterFunc(MetricSpanE2EPs, func() uint64 { return s.e2eTotal })
	reg.CounterFunc("span.queue_ps", func() uint64 { return s.causePs[CauseQueue] })
	reg.CounterFunc("span.xbar_ps", func() uint64 { return s.causePs[CauseXbar] })
	reg.CounterFunc("span.link_ps", func() uint64 { return s.causePs[CauseLink] })
	reg.CounterFunc("span.bank_conflict_ps", func() uint64 { return s.causePs[CauseBankConflict] })
	reg.CounterFunc("span.refresh_stall_ps", func() uint64 { return s.causePs[CauseRefreshStall] })
	reg.CounterFunc("span.fault_retry_ps", func() uint64 { return s.causePs[CauseFaultRetry] })
	reg.CounterFunc("span.service_ps", func() uint64 { return s.causePs[CauseService] })
	reg.CounterFunc("span.pfbuffer_hit_ps", func() uint64 { return s.causePs[CausePFBufferHit] })
	s.e2eHist = reg.Histogram(MetricSpanE2EHist)
	for c := Cause(0); c < causeCount; c++ {
		s.causeHist[c] = reg.Histogram(causeMetricNames[c])
	}
}

// rec resolves a ref to its live record, or nil for the zero ref, a
// stale generation, or a nil set.
func (s *SpanSet) rec(ref SpanRef) *spanRec {
	if s == nil || ref.id == 0 {
		return nil
	}
	r := &s.recs[ref.id-1]
	if r.gen != ref.gen {
		return nil
	}
	return r
}

// Begin opens a span at atPs and returns its handle. The pool grows only
// at high water; steady state allocates nothing.
func (s *SpanSet) Begin(atPs int64) SpanRef {
	if s == nil {
		return SpanRef{}
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.recs = append(s.recs, spanRec{})
		idx = int32(len(s.recs) - 1)
	}
	r := &s.recs[idx]
	r.start = atPs
	r.cursor = atPs
	r.vault = -1
	for i := range r.causePs {
		r.causePs[i] = 0
	}
	s.started++
	return SpanRef{id: idx + 1, gen: r.gen}
}

// SetVault tags the span with its target vault (for the conflict heatmap).
func (s *SpanSet) SetVault(ref SpanRef, vault int) {
	if r := s.rec(ref); r != nil {
		r.vault = int32(vault)
	}
}

// Advance charges d picoseconds to cause and moves the span's cursor.
// Negative or zero durations are ignored.
func (s *SpanSet) Advance(ref SpanRef, c Cause, d int64) {
	if d <= 0 {
		return
	}
	if r := s.rec(ref); r != nil {
		r.causePs[c] += d
		r.cursor += d
	}
}

// AdvanceTo charges the time from the span's cursor up to atPs to cause.
// A cursor already at or past atPs charges nothing, so segments computed
// independently can never overlap or double-charge.
func (s *SpanSet) AdvanceTo(ref SpanRef, c Cause, atPs int64) {
	if r := s.rec(ref); r != nil {
		if d := atPs - r.cursor; d > 0 {
			r.causePs[c] += d
			r.cursor = atPs
		}
	}
}

// Retire charges the final segment (cursor to atPs) to cause and folds
// the span into the per-cause totals, histograms and the vault conflict
// heatmap; the record returns to the pool. The span's cause segments are
// contiguous from start to atPs, so their sum equals the end-to-end
// latency exactly — the invariant CheckInvariant enforces globally.
func (s *SpanSet) Retire(ref SpanRef, c Cause, atPs int64) {
	r := s.rec(ref)
	if r == nil {
		return
	}
	if d := atPs - r.cursor; d > 0 {
		r.causePs[c] += d
		r.cursor = atPs
	}
	e2e := r.cursor - r.start
	s.e2eTotal += uint64(e2e)
	if s.e2eHist != nil {
		s.e2eHist.ObserveInt(e2e)
	}
	dominant := Cause(0)
	for i := Cause(0); i < causeCount; i++ {
		v := r.causePs[i]
		if v == 0 {
			continue
		}
		s.causePs[i] += uint64(v)
		if s.causeHist[i] != nil {
			s.causeHist[i].ObserveInt(v)
		}
		if v > r.causePs[dominant] || r.causePs[dominant] == 0 {
			dominant = i
		}
	}
	if r.vault >= 0 {
		for int(r.vault) >= len(s.vaultConflictPs) {
			s.vaultConflictPs = append(s.vaultConflictPs, 0)
		}
		s.vaultConflictPs[r.vault] += uint64(r.causePs[CauseBankConflict])
	}
	s.seq++
	s.tr.Emit(Event{At: r.start, Type: EvSpan, Vault: r.vault,
		Bank: int32(dominant), Row: s.seq, Arg: e2e})
	s.retired++
	r.gen++
	s.free = append(s.free, ref.id-1)
}

// Stage parks a span for the synchronous handoff to the next layer.
func (s *SpanSet) Stage(ref SpanRef) {
	if s != nil {
		s.staged = ref
	}
}

// Unstage claims the parked span (zero ref when nothing is staged).
func (s *SpanSet) Unstage() SpanRef {
	if s == nil {
		return SpanRef{}
	}
	ref := s.staged
	s.staged = SpanRef{}
	return ref
}

// Started returns spans opened so far.
func (s *SpanSet) Started() uint64 {
	if s == nil {
		return 0
	}
	return s.started
}

// Retired returns spans retired so far.
func (s *SpanSet) Retired() uint64 {
	if s == nil {
		return 0
	}
	return s.retired
}

// Active returns spans currently in flight.
func (s *SpanSet) Active() uint64 {
	if s == nil {
		return 0
	}
	return s.started - s.retired
}

// CausePs returns the picoseconds folded so far for one cause.
func (s *SpanSet) CausePs(c Cause) uint64 {
	if s == nil {
		return 0
	}
	return s.causePs[c]
}

// VaultConflictPs returns the per-vault bank-conflict heatmap (index =
// vault id; vaults that never retired a span may be absent).
func (s *SpanSet) VaultConflictPs() []uint64 {
	if s == nil {
		return nil
	}
	return s.vaultConflictPs
}

// CheckInvariant validates the attribution accounting: retired spans
// never exceed started ones, the free list matches the live count, and
// the per-cause totals sum exactly to the end-to-end total — i.e. every
// retired request's cause columns add up to its measured latency. It is
// read-only and wired into the simulator's epoch invariant checker.
func (s *SpanSet) CheckInvariant() error {
	if s == nil {
		return nil
	}
	if s.retired > s.started {
		return fmt.Errorf("obs: %d spans retired but only %d started", s.retired, s.started)
	}
	live := uint64(len(s.recs)) - uint64(len(s.free))
	staged := uint64(0)
	if s.staged.id != 0 {
		staged = 1 // staged spans are live but counted by the handoff
	}
	if active := s.started - s.retired; live != active && live != active+staged {
		return fmt.Errorf("obs: %d live span records but %d spans in flight", live, active)
	}
	var causeSum uint64
	for _, v := range s.causePs {
		causeSum += v
	}
	if causeSum != s.e2eTotal {
		return fmt.Errorf("obs: cause totals sum to %d ps but end-to-end total is %d ps", causeSum, s.e2eTotal)
	}
	return nil
}

// CauseBreakdown is one cause's share of a run's attributed latency.
type CauseBreakdown struct {
	Cause   string  `json:"cause"`
	TotalPs uint64  `json:"total_ps"`
	Share   float64 `json:"share"`   // of the end-to-end total
	MeanPs  float64 `json:"mean_ps"` // per retired span
}

// AttributionSummary is the end-of-run attribution report: where the
// run's read latency went, per cause and per vault, plus the prefetch
// efficacy ledger. It round-trips through JSON as part of camps.Results.
type AttributionSummary struct {
	SpansStarted    uint64           `json:"spans_started"`
	SpansRetired    uint64           `json:"spans_retired"`
	E2ETotalPs      uint64           `json:"e2e_total_ps"`
	Causes          []CauseBreakdown `json:"causes"`
	VaultConflictPs []uint64         `json:"vault_conflict_ps,omitempty"`
	Ledger          *LedgerSummary   `json:"ledger,omitempty"`
}

// Summary folds the set's totals into an exportable report.
func (s *SpanSet) Summary() *AttributionSummary {
	if s == nil {
		return nil
	}
	sum := &AttributionSummary{
		SpansStarted: s.started,
		SpansRetired: s.retired,
		E2ETotalPs:   s.e2eTotal,
	}
	for c := Cause(0); c < causeCount; c++ {
		cb := CauseBreakdown{Cause: c.String(), TotalPs: s.causePs[c]}
		if s.e2eTotal > 0 {
			cb.Share = float64(s.causePs[c]) / float64(s.e2eTotal)
		}
		if s.retired > 0 {
			cb.MeanPs = float64(s.causePs[c]) / float64(s.retired)
		}
		sum.Causes = append(sum.Causes, cb)
	}
	if len(s.vaultConflictPs) > 0 {
		sum.VaultConflictPs = append([]uint64(nil), s.vaultConflictPs...)
	}
	return sum
}
