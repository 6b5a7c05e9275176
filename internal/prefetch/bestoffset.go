package prefetch

import (
	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// boOffsets is the candidate offset list (in rows), the classic
// Best-Offset set of products of small primes, truncated to row scale.
var boOffsets = [...]int64{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36}

// boEngine adapts Michaud's Best-Offset prefetcher (HPCA 2016) to row
// granularity: a recent-request (RR) table remembers the rows recently
// activated; each activation of row X tests one candidate offset o by
// probing the RR for X-o — a hit means a fetch of X-o+o issued back then
// would have been timely. Offsets are tested round-robin; when one reaches
// ScoreMax or RoundMax full rounds complete, the best-scoring offset
// becomes the prefetch offset for the next phase (prefetch disabled when
// even the best score is BadScore or lower).
type boEngine struct {
	ctx Context
	cfg config.BestOffset

	rr     []int64 // direct-mapped recent activation keys, -1 empty
	scores [len(boOffsets)]int
	test   int   // next offset index to score
	round  int   // completed scoring rounds this phase
	best   int64 // active prefetch offset in rows; 0 = disabled
}

func newBestOffset(cfg config.BestOffset, ctx Context) *boEngine {
	e := &boEngine{ctx: ctx, cfg: cfg, rr: make([]int64, cfg.RREntries), best: 1}
	for i := range e.rr {
		e.rr[i] = -1
	}
	return e
}

// BestOffsetRows exposes the active offset for tests and ablations
// (0 = prefetch disabled).
func (e *boEngine) BestOffsetRows() int64 { return e.best }

func (e *boEngine) rrIndex(k int64) int {
	return int(mix64(uint64(k)) & uint64(len(e.rr)-1))
}

func (e *boEngine) OnDemandServed(dst []Fetch, req Request, state dram.RowState, _ int64) []Fetch {
	if state == dram.RowHit {
		return dst // activations only
	}
	// Learning: test one offset per trigger, round-robin.
	o := boOffsets[e.test]
	if base := req.Row - o; base >= 0 {
		bk := rowKey(req.Bank, base)
		if e.rr[e.rrIndex(bk)] == bk {
			e.scores[e.test]++
			if e.scores[e.test] >= e.cfg.ScoreMax {
				e.endPhase()
			}
		}
	}
	if e.test++; e.test == len(boOffsets) {
		e.test = 0
		if e.round++; e.round >= e.cfg.RoundMax {
			e.endPhase()
		}
	}
	key := rowKey(req.Bank, req.Row)
	e.rr[e.rrIndex(key)] = key

	if e.best == 0 {
		return dst
	}
	row := req.Row + e.best
	if e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank {
		return dst
	}
	return append(dst, Fetch{Bank: req.Bank, Row: row, CloseAfter: true})
}

// endPhase elects the new offset and starts a fresh scoring phase.
func (e *boEngine) endPhase() {
	bestIdx, bestScore := 0, -1
	for i, s := range e.scores {
		if s > bestScore {
			bestIdx, bestScore = i, s
		}
	}
	if bestScore <= e.cfg.BadScore {
		e.best = 0 // prefetch off until evidence returns
	} else {
		e.best = boOffsets[bestIdx]
	}
	e.scores = [len(boOffsets)]int{}
	e.test, e.round = 0, 0
}

func (e *boEngine) OnBufferHit(Request) {}

func (e *boEngine) OnEviction(pfbuffer.Eviction) {}
