package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"camps"
	"camps/internal/workload"
)

// warmOpts sizes the shared-warmup differential runs: long enough that
// the warmup fills the private caches and reaches the L3, short enough
// for the race detector.
func warmOpts(par int) Options {
	return Options{WarmupRefs: 2_000, MeasureInstr: 2_000, Parallelism: par}
}

// coldReference runs every cell on its own through camps.RunContext, with
// the cell's configuration built independently of Options.runConfig, and
// returns each cell's JSON export by key.
func coldReference(t *testing.T, cells []Cell, o Options) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for _, c := range cells {
		sys := camps.DefaultSystem()
		if c.Apply != nil {
			c.Apply(&sys)
		}
		res, err := camps.RunContext(context.Background(), camps.RunConfig{
			System: sys, Scheme: c.Scheme, Mix: c.Mix, Seed: c.Seed,
			WarmupRefs: o.WarmupRefs, MeasureInstr: o.MeasureInstr,
		})
		if err != nil {
			t.Fatalf("cold run of %s: %v", c.Key(), err)
		}
		want[c.Key()] = exportJSON(t, res)
	}
	return want
}

func exportJSON(t *testing.T, r camps.Results) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSame checks a campaign's results against the cold reference,
// byte for byte.
func requireSame(t *testing.T, got []CellResult, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("campaign returned %d cells, want %d", len(got), len(want))
	}
	for _, cr := range got {
		c := Cell{Mix: workload.Mix{ID: cr.Mix}, Scheme: cr.Scheme, Seed: cr.Seed, Knob: cr.Knob, Value: cr.Value}
		if w, ok := want[c.Key()]; !ok || !bytes.Equal(exportJSON(t, cr.Results), w) {
			t.Fatalf("cell %s differs from its independent run", c.Key())
		}
	}
}

func warmGrid() []Cell {
	mixes := []workload.Mix{mustMix("HM1"), mustMix("LM2")}
	return Grid(mixes, []camps.Scheme{camps.BASE, camps.CAMPSMOD, camps.NONE}, []uint64{3})
}

func mustMix(id string) workload.Mix {
	m, err := workload.MixByID(id)
	if err != nil {
		panic(err)
	}
	return m
}

// TestSharedWarmupMatchesIndependentRuns is the differential check of
// warm sharing: a campaign whose cells start from copies of one warmup
// per warm key must export exactly what independent runs export, at any
// parallelism, across sweeps that do and do not change the cache
// configuration, across a resume, and across retries on either side of
// the shared state's adoption.
func TestSharedWarmupMatchesIndependentRuns(t *testing.T) {
	grid := warmGrid()
	gridWant := coldReference(t, grid, warmOpts(1))

	for _, par := range []int{1, 2} {
		res, st, err := Run(context.Background(), grid, warmOpts(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		requireSame(t, res, gridWant)
		if st.Warmups != 2 {
			t.Fatalf("parallelism %d: %d warmups for 2 mixes, want 2", par, st.Warmups)
		}
	}

	t.Run("sweeps", func(t *testing.T) {
		knobs := Knobs()
		for _, tc := range []struct {
			knob    string
			warmups uint64
		}{
			{"window", 1}, // a core knob: every cell shares one warmup
			{"mshrs", 3},  // part of the L3 configuration: nothing shared
		} {
			cells := Sweep(mustMix("MX1"), camps.CAMPSMOD, 5, tc.knob, []int64{4, 8, 16}, knobs[tc.knob].Apply)
			want := coldReference(t, cells, warmOpts(2))
			res, st, err := Run(context.Background(), cells, warmOpts(2))
			if err != nil {
				t.Fatalf("%s sweep: %v", tc.knob, err)
			}
			requireSame(t, res, want)
			if st.Warmups != tc.warmups {
				t.Fatalf("%s sweep: %d warmups, want %d", tc.knob, st.Warmups, tc.warmups)
			}
		}
	})

	t.Run("resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cells.jsonl")
		first := warmOpts(1)
		first.Checkpoint = path
		// HM1/BASE alone, then the rest of the grid on resume: the
		// resumed cell must not hold back HM1's shared state.
		if _, _, err := Run(context.Background(), grid[:1], first); err != nil {
			t.Fatal(err)
		}
		second := warmOpts(2)
		second.Checkpoint, second.Resume = path, true
		res, st, err := Run(context.Background(), grid, second)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, res, gridWant)
		if st.Resumed != 1 || st.Warmups != 2 {
			t.Fatalf("resumed %d cells with %d warmups, want 1 and 2", st.Resumed, st.Warmups)
		}
	})

	t.Run("retries", func(t *testing.T) {
		// At parallelism 1, HM1's cells run BASE, CAMPS-MOD, NONE. The
		// first attempt of BASE (which warms and keeps the shared state)
		// and of NONE (the last waiting cell, which adopts it) each fail
		// after simulating. BASE's retry starts from a clone; NONE's
		// arrives after adoption and must warm for itself.
		flaky := map[string]bool{"HM1/BASE/seed=3": true, "HM1/NONE/seed=3": true}
		var mu sync.Mutex
		o := warmOpts(1)
		o.Retries, o.Backoff = 1, 1
		o.RunCell = func(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
			res, err := ExecuteCell(ctx, c, o)
			mu.Lock()
			defer mu.Unlock()
			if err == nil && flaky[c.Key()] {
				delete(flaky, c.Key())
				return camps.Results{}, errors.New("transient")
			}
			return res, err
		}
		res, st, err := Run(context.Background(), grid, o)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, res, gridWant)
		if st.Retried != 2 || st.Warmups != 3 {
			t.Fatalf("%d retries with %d warmups, want 2 and 3", st.Retried, st.Warmups)
		}
	})
}

// TestSharedWarmupWaiterHonoursItsContext blocks a cell behind another
// cell's shared warmup and cancels only the waiter: it must return its
// own context's error without waiting for the warmup to finish.
func TestSharedWarmupWaiterHonoursItsContext(t *testing.T) {
	cells := warmGrid()[:2] // HM1/BASE and HM1/CAMPS-MOD share a warm key
	var mu sync.Mutex
	var st Stats
	o := warmOpts(2)
	m := newWarmMemo(cells, []int{0, 1}, &o, &mu, &st)
	e := m.entries[o.runConfig(cells[0]).WarmKey()]
	if e == nil {
		t.Fatal("two cells with one warm key got no shared entry")
	}
	e.warming = make(chan struct{}) // a warmup in progress that never ends
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.take(ctx, cells[1].Key(), o.runConfig(cells[1])); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want context.Canceled", err)
	}
}

// TestPanickingApplyStaysInItsCell: grouping cells by warm key runs each
// cell's Apply before any cell executes. A panicking Apply must still
// fail only its own cell, as a *PanicError, as it did before sharing.
func TestPanickingApplyStaysInItsCell(t *testing.T) {
	cells := Sweep(mustMix("MX1"), camps.NONE, 5, "bad", []int64{1}, func(*camps.SystemConfig, int64) {
		panic("bad knob")
	})
	_, _, err := Run(context.Background(), cells, warmOpts(1))
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Cell != cells[0].Key() {
		t.Fatalf("err = %v, want the cell's *PanicError", err)
	}
}
