package prefetch

import (
	"camps/internal/config"
	"camps/internal/dram"
	"camps/internal/pfbuffer"
)

// ghbEngine is a width prefetcher over the vault's row-activation stream,
// after the global-history-buffer organization of Nesbit & Smith (HPCA
// 2004) in its address-correlating form: activations enter a bounded
// history ring, and an address index table (AIT) hashed by the activation
// *delta* chains together the history positions where that delta was last
// seen. A trigger walks up to Width prior occurrences of its delta and
// predicts the Degree rows that followed each in the history — the "width"
// traversal — falling back to sequential next rows when the delta is new.
//
// Rows are copied with CloseAfter (like CAMPS, the engine assumes the
// predicted reuse lands in the buffer, not the row buffer).
type ghbEngine struct {
	ctx Context
	cfg config.GHB

	hist []ghbEntry // history ring, indexed by absolute sequence % len
	seq  int64      // next absolute sequence number (total pushes)
	ait  []int64    // delta-hash -> absolute sequence of last push, -1 empty

	lastKey int64 // previous activation's rowKey, -1 before the first
}

// ghbEntry is one row activation in the history ring.
type ghbEntry struct {
	key  int64 // rowKey of the activated row
	prev int64 // absolute sequence of the prior activation with the same delta hash, -1 none
}

func newGHB(cfg config.GHB, ctx Context) *ghbEngine {
	e := &ghbEngine{
		ctx:     ctx,
		cfg:     cfg,
		hist:    make([]ghbEntry, cfg.HistEntries),
		ait:     make([]int64, cfg.AITEntries),
		lastKey: -1,
	}
	for i := range e.ait {
		e.ait[i] = -1
	}
	return e
}

// live reports whether absolute history position p is still in the ring.
func (e *ghbEngine) live(p int64) bool { return p >= 0 && p >= e.seq-int64(len(e.hist)) }

func (e *ghbEngine) OnDemandServed(dst []Fetch, req Request, state dram.RowState, _ int64) []Fetch {
	if state == dram.RowHit {
		return dst // activations only: the GHB tracks row openings
	}
	key := rowKey(req.Bank, req.Row)
	if e.lastKey < 0 {
		e.lastKey = key
		return dst
	}
	delta := key - e.lastKey
	e.lastKey = key
	h := int(mix64(uint64(delta)) & uint64(len(e.ait)-1))
	chain := e.ait[h]
	e.hist[e.seq%int64(len(e.hist))] = ghbEntry{key: key, prev: chain}
	e.ait[h] = e.seq
	e.seq++

	// Width traversal: each live chain occurrence contributes the Degree
	// activations that followed it. prev pointers only move backwards in
	// sequence, so the walk cannot cycle; it is additionally bounded by
	// Width.
	base := len(dst)
	ptr := chain
	for w := 0; w < e.cfg.Width && e.live(ptr); w++ {
		for d := int64(1); d <= int64(e.cfg.Degree); d++ {
			s := ptr + d
			if s >= e.seq-1 { // stop before the entry just pushed
				break
			}
			if !e.live(s) {
				continue
			}
			dst = e.appendPredicted(dst, base, key, e.hist[s%int64(len(e.hist))].key)
		}
		ptr = e.hist[ptr%int64(len(e.hist))].prev
	}
	if len(dst) > base {
		return dst
	}
	// Cold delta: sequential fallback within the bank.
	for d := int64(1); d <= int64(e.cfg.Degree); d++ {
		row := req.Row + d
		if e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank {
			break
		}
		dst = append(dst, Fetch{Bank: req.Bank, Row: row, CloseAfter: true})
	}
	return dst
}

// appendPredicted appends a fetch of the predicted row k to dst unless it
// is the trigger row, lies outside the vault, or is already among this
// trigger's fetches (dst[base:]).
func (e *ghbEngine) appendPredicted(dst []Fetch, base int, trigger, k int64) []Fetch {
	if k == trigger {
		return dst
	}
	bank, row := rowKeyBank(k), rowKeyRow(k)
	if bank < 0 || bank >= e.ctx.Banks || row < 0 {
		return dst
	}
	if e.ctx.RowsPerBank > 0 && row >= e.ctx.RowsPerBank {
		return dst
	}
	if hasRow(dst[base:], bank, row) {
		return dst
	}
	return append(dst, Fetch{Bank: bank, Row: row, CloseAfter: true})
}

func (e *ghbEngine) OnBufferHit(Request) {}

func (e *ghbEngine) OnEviction(pfbuffer.Eviction) {}
