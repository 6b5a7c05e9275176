package prefetch

import (
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// baseEngine is the paper's BASE scheme: prefetch the whole row on the
// first access to it and precharge the bank once the copy completes. Every
// demand that reaches a bank therefore triggers a fetch, the buffer churns
// constantly, and — as §5.2 notes — row-buffer conflicts disappear because
// the bank is always closed behind the copy.
type baseEngine struct {
	ctx Context
}

func newBase(ctx Context) *baseEngine { return &baseEngine{ctx: ctx} }

func (e *baseEngine) OnDemandServed(dst []Fetch, req Request, _ dram.RowState, _ int64) []Fetch {
	return append(dst, Fetch{Bank: req.Bank, Row: req.Row, CloseAfter: true,
		Touched: 1 << uint(req.Line)})
}

func (e *baseEngine) OnBufferHit(Request) {}

func (e *baseEngine) OnEviction(pfbuffer.Eviction) {}

// baseHitEngine is the BASE-HIT scheme: fetch a whole row only when the
// read queue holds two or more (further) requests for it, i.e. when there
// is direct evidence the rest of the row is wanted. The bank follows the
// normal open-page policy otherwise, so row-buffer conflicts remain.
type baseHitEngine struct {
	ctx Context
}

func newBaseHit(ctx Context) *baseHitEngine { return &baseHitEngine{ctx: ctx} }

func (e *baseHitEngine) OnDemandServed(dst []Fetch, req Request, _ dram.RowState, _ int64) []Fetch {
	if e.ctx.Queue == nil {
		return dst
	}
	if e.ctx.Queue.PendingReadsForRow(req.Bank, req.Row) >= 2 {
		// Copy but keep the row open: BASE-HIT follows the normal
		// open-page policy, so row-buffer conflicts remain (it is the
		// scheme with the most conflicts in the paper's Figure 6).
		return append(dst, Fetch{Bank: req.Bank, Row: req.Row, CloseAfter: false,
			Touched: 1 << uint(req.Line)})
	}
	return dst
}

func (e *baseHitEngine) OnBufferHit(Request) {}

func (e *baseHitEngine) OnEviction(pfbuffer.Eviction) {}
