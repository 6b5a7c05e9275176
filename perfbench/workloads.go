package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"camps"
	"camps/internal/exp"
	"camps/internal/harness"
	"camps/internal/obs"
	"camps/internal/trace"
)

// parallelism is the simulation goroutine count of the grid workload: one
// per vCPU of the two-vCPU hosts the benchmark is sized for. No workload
// sets RunConfig.Workers, so none depends on the intra-run parallel
// engine.
const parallelism = 2

type cellSpec struct {
	mix    camps.Mix
	scheme camps.Scheme
}

// workload is one benchmark input: every scheme on every mix, at a fixed
// size. A grid workload runs its cells as one harness campaign.
type workload struct {
	name          string
	mixes         []camps.Mix
	schemes       []camps.Scheme
	grid          bool
	instr, warmup uint64
}

// cells lists the workload's cells, mix-major.
func (w workload) cells() []cellSpec {
	var cells []cellSpec
	for _, m := range w.mixes {
		for _, s := range w.schemes {
			cells = append(cells, cellSpec{m, s})
		}
	}
	return cells
}

func mixes(ids ...string) []camps.Mix {
	var out []camps.Mix
	for _, id := range ids {
		m, err := camps.MixByID(id)
		if err != nil {
			panic(err)
		}
		out = append(out, m)
	}
	return out
}

// workloads are sized so one op takes 0.8-2.5 s on a 2-vCPU host; README.md
// gives why each was chosen.
func workloads() []workload {
	return []workload{
		{
			name:    "hm1-none",
			mixes:   mixes("HM1"),
			schemes: []camps.Scheme{camps.NONE},
			instr:   50_000, warmup: 20_000,
		},
		{
			name:    "mx1-hybrid",
			mixes:   mixes("MX1"),
			schemes: []camps.Scheme{camps.HYBRID},
			instr:   50_000, warmup: 20_000,
		},
		{
			name:    "paper-grid",
			mixes:   mixes("HM1", "LM2", "MX1"),
			schemes: camps.Schemes(),
			grid:    true,
			instr:   15_000, warmup: 20_000,
		},
	}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opResult is what one op produced: each cell's results in cell order,
// plus what the traced variant observed.
type opResult struct {
	cells []camps.Results
	// Traced only: wrapped-reader timing and, for a grid, per-cell wall
	// times.
	nextNanos, nextCalls int64
	cellWalls            []time.Duration
}

// runOp executes one untraced op: the cell through camps.RunContext, or
// the grid through harness.RunContext.
func runOp(ctx context.Context, w workload, seed, instr uint64) (opResult, error) {
	if !w.grid {
		res, err := camps.RunContext(ctx, camps.RunConfig{
			Scheme: w.schemes[0], Mix: w.mixes[0], Seed: seed,
			WarmupRefs: w.warmup, MeasureInstr: instr,
		})
		return opResult{cells: []camps.Results{res}}, err
	}
	g, err := harness.RunContext(ctx, harness.Options{
		Seed: seed, WarmupRefs: w.warmup, MeasureInstr: instr,
		Mixes: w.mixes, Schemes: w.schemes, Parallelism: parallelism,
	})
	if err != nil {
		return opResult{}, err
	}
	var op opResult
	for _, c := range w.cells() {
		res, ok := g.Cell(c.mix.ID, c.scheme)
		if !ok {
			return opResult{}, fmt.Errorf("grid is missing cell %s/%v", c.mix.ID, c.scheme)
		}
		op.cells = append(op.cells, res)
	}
	return op, nil
}

// runTracedOp executes one op with every cell observed: wrapped trace
// readers, an obs suite with latency attribution, and the invariant
// checker. The grid runs on the orchestrator harness delegates to,
// through its RunCell seam, because harness.Options has no per-cell
// observability hook; Progress supplies the per-cell wall times.
func runTracedOp(ctx context.Context, w workload, seed uint64) (opResult, error) {
	var (
		mu sync.Mutex
		op opResult
	)
	cell := func(ctx context.Context, mix camps.Mix, scheme camps.Scheme) (camps.Results, error) {
		gens, err := mix.Generators(seed)
		if err != nil {
			return camps.Results{}, err
		}
		var tr timedReaders
		readers := make([]trace.Reader, len(gens))
		for i, g := range gens {
			readers[i] = &timedReader{r: g, acc: &tr}
		}
		suite := obs.NewSuite(0)
		suite.EnableAttribution(scheme.String())
		res, err := camps.RunContext(ctx, camps.RunConfig{
			Scheme: scheme, Mix: mix, Readers: readers, Seed: seed,
			WarmupRefs: w.warmup, MeasureInstr: w.instr,
			Obs: suite, CheckInvariants: true,
		})
		mu.Lock()
		op.nextNanos += tr.nanos
		op.nextCalls += tr.calls
		mu.Unlock()
		return res, err
	}
	if !w.grid {
		res, err := cell(ctx, w.mixes[0], w.schemes[0])
		op.cells = []camps.Results{res}
		return op, err
	}
	results, _, err := exp.Run(ctx, exp.Grid(w.mixes, w.schemes, []uint64{seed}), exp.Options{
		WarmupRefs: w.warmup, MeasureInstr: w.instr, Parallelism: parallelism,
		RunCell: func(ctx context.Context, c exp.Cell, _ *exp.Options) (camps.Results, error) {
			return cell(ctx, c.Mix, c.Scheme)
		},
		Progress: func(cr exp.CellResult) { op.cellWalls = append(op.cellWalls, cr.Duration) },
	})
	for _, r := range results {
		op.cells = append(op.cells, r.Results) // exp.Grid order is cells() order
	}
	return op, err
}

// timedReaders accumulates the time one cell's cores spend in
// trace.Reader.Next. A cell simulates on one goroutine, so its readers
// share the accumulator without locking.
type timedReaders struct{ nanos, calls int64 }

type timedReader struct {
	r   trace.Reader
	acc *timedReaders
}

func (t *timedReader) Next() (trace.Record, error) {
	start := time.Now()
	rec, err := t.r.Next()
	t.acc.nanos += int64(time.Since(start))
	t.acc.calls++
	return rec, err
}

// digest is the sha256 of every cell's indented JSON export, the export
// the determinism tests compare, with the traced-only attribution
// cleared: equal digests mean every simulated statistic is unchanged.
func digest(cells []camps.Results) (string, error) {
	h := sha256.New()
	for _, r := range cells {
		r.Attribution = nil
		b, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkCells validates the model outputs of one op beyond determinism:
// every core finished its budget and the headline statistics are
// physically meaningful.
func checkCells(w workload, instr uint64, cells []camps.Results) error {
	want := w.cells()
	if len(cells) != len(want) {
		return fmt.Errorf("%d cells, want %d", len(cells), len(want))
	}
	for i, r := range cells {
		c := want[i]
		id := c.mix.ID + "/" + c.scheme.String()
		switch {
		case r.Mix != c.mix.ID || r.Scheme != c.scheme:
			return fmt.Errorf("cell %s reports %s/%v", id, r.Mix, r.Scheme)
		case r.Instructions < uint64(len(r.IPC))*instr:
			return fmt.Errorf("cell %s retired %d instructions, want >= %d", id, r.Instructions, uint64(len(r.IPC))*instr)
		case !(r.GeoMeanIPC > 0) || math.IsInf(r.GeoMeanIPC, 0):
			return fmt.Errorf("cell %s has geomean IPC %v", id, r.GeoMeanIPC)
		case instr == w.instr && !(r.AMATps > 0):
			return fmt.Errorf("cell %s has memory latency %v ps", id, r.AMATps)
		case r.RowConflictRate < 0 || r.RowConflictRate > 1:
			return fmt.Errorf("cell %s has conflict rate %v", id, r.RowConflictRate)
		case c.scheme == camps.NONE && r.PrefetchesIssued != 0:
			return fmt.Errorf("cell %s issued %d prefetches under NONE", id, r.PrefetchesIssued)
		}
		if a := r.Attribution; a != nil {
			var sum uint64
			for _, cb := range a.Causes {
				sum += cb.TotalPs
			}
			if sum != a.E2ETotalPs || a.SpansRetired == 0 {
				return fmt.Errorf("cell %s attribution: causes sum to %d ps of %d over %d spans",
					id, sum, a.E2ETotalPs, a.SpansRetired)
			}
		}
	}
	return nil
}
