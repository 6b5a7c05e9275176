package prefetch

import (
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// noneEngine never prefetches: the unmodified HMC with an idle prefetch
// buffer. Not one of the paper's five compared schemes, but the natural
// reference point for "what does prefetching buy at all" and the zero
// point for the ablation benchmarks.
type noneEngine struct{}

func newNone() noneEngine { return noneEngine{} }

func (noneEngine) OnDemandServed(dst []Fetch, _ Request, _ dram.RowState, _ int64) []Fetch {
	return dst
}

func (noneEngine) OnBufferHit(Request) {}

func (noneEngine) OnEviction(pfbuffer.Eviction) {}
