package exp

import (
	"context"
	"fmt"
	"sync"

	"camps"
)

// warmMemo shares warm states between the cells of one Run. The cache
// warmup reads only what camps.WarmKey names — mix, seed, warmup length,
// core count and cache configuration — so cells that differ only in
// scheme or in non-cache hardware start their measured regions from the
// same state. The first such cell to execute warms it and keeps an
// untouched copy, later cells start from clones of that copy, and the
// last cell still waiting adopts the copy itself. Only pending cells are
// counted, so resumed cells hold nothing back.
type warmMemo struct {
	mu      *sync.Mutex // the scheduler's mutex; also guards st
	st      *Stats
	entries map[camps.WarmKey]*warmEntry
	byCell  map[string]*warmEntry
}

// warmEntry is the sharing state of one warm key.
type warmEntry struct {
	// waiting holds the keys of cells that have not yet taken a state and
	// have not finished. The entry keeps its pristine copy only while it
	// is non-empty.
	waiting  map[string]struct{}
	pristine *camps.Warm
	// warming is non-nil while a cell warms the shared state; it is
	// closed when that warmup ends, successfully or not.
	warming chan struct{}
}

// newWarmMemo groups the pending cells by warm key. Keys with a single
// cell get no entry: that cell warms for itself.
func newWarmMemo(cells []Cell, pending []int, o *Options, mu *sync.Mutex, st *Stats) *warmMemo {
	groups := map[camps.WarmKey][]string{}
	for _, i := range pending {
		if k, ok := warmKeyOf(cells[i], o); ok {
			groups[k] = append(groups[k], cells[i].Key())
		}
	}
	m := &warmMemo{mu: mu, st: st, entries: map[camps.WarmKey]*warmEntry{}, byCell: map[string]*warmEntry{}}
	for k, keys := range groups {
		if len(keys) < 2 {
			continue
		}
		e := &warmEntry{waiting: make(map[string]struct{}, len(keys))}
		for _, ck := range keys {
			e.waiting[ck] = struct{}{}
			m.byCell[ck] = e
		}
		m.entries[k] = e
	}
	return m
}

// warmKeyOf returns c's warm key. A cell whose Apply panics shares
// nothing; it panics again inside its own attempt, where Run turns the
// panic into that cell's error.
func warmKeyOf(c Cell, o *Options) (k camps.WarmKey, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return o.runConfig(c).WarmKey(), true
}

// take returns the warm state cell's run, configured as rc, starts from:
// a clone of the shared state, the shared state itself when cell is the
// last one waiting for it, or a warmup of its own. A cell that must wait
// for another cell's warmup gives up when its own ctx ends.
func (m *warmMemo) take(ctx context.Context, cell string, rc camps.RunConfig) (w *camps.Warm, err error) {
	if m == nil {
		return camps.Warmup(ctx, rc)
	}
	m.mu.Lock()
	e := m.entries[rc.WarmKey()]
	if e == nil {
		m.mu.Unlock()
		return m.warmup(ctx, rc)
	}
	for e.pristine == nil && e.warming != nil {
		ch := e.warming
		m.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, fmt.Errorf("exp: cell %s waiting for a shared warmup: %w", cell, ctx.Err())
		}
		m.mu.Lock()
	}
	if w = e.pristine; w != nil {
		delete(e.waiting, cell)
		if len(e.waiting) == 0 {
			e.pristine = nil // the last waiting cell adopts it
		} else {
			w = w.Clone()
		}
		m.mu.Unlock()
		return w, nil
	}
	_, waits := e.waiting[cell]
	if !waits || len(e.waiting) == 1 {
		// Nobody else will take this state: a retry after the state was
		// adopted, or the one cell left.
		delete(e.waiting, cell)
		m.mu.Unlock()
		return m.warmup(ctx, rc)
	}
	ch := make(chan struct{})
	e.warming = ch
	m.mu.Unlock()

	defer func() {
		// Deferred so waiters wake even if the warmup panics.
		m.mu.Lock()
		defer m.mu.Unlock()
		e.warming = nil
		close(ch)
		if w != nil {
			delete(e.waiting, cell)
			if len(e.waiting) > 0 {
				e.pristine = w.Clone()
			}
		}
	}()
	return m.warmup(ctx, rc)
}

// warmup runs one full warmup and counts it.
func (m *warmMemo) warmup(ctx context.Context, rc camps.RunConfig) (*camps.Warm, error) {
	w, err := camps.Warmup(ctx, rc)
	if err == nil {
		m.mu.Lock()
		m.st.Warmups++
		m.mu.Unlock()
	}
	return w, err
}

// release records that cell has finished, whether or not it took a warm
// state (a RunCell override may answer without simulating). The shared
// state is dropped once no cell waits for it.
func (m *warmMemo) release(cell string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.byCell[cell]; e != nil {
		delete(e.waiting, cell)
		if len(e.waiting) == 0 {
			e.pristine = nil
		}
	}
}
