// Package harness drives the paper's evaluation: it runs the (workload mix
// × prefetching scheme) grid and reformats the measurements into the exact
// rows and series of every figure in the CAMPS paper's Section 5 (Figures
// 5 through 9). Cell execution is delegated to the experiment orchestrator
// (internal/exp): each simulation owns its own event engine and its own
// copy of the warmed caches, so cells run in parallel and share nothing
// mutable, each mix is warmed once for all its schemes, and campaigns gain
// cancellation, timeouts, retries, and checkpoint/resume for free.
package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"camps"
	"camps/internal/exp"
	"camps/internal/stats"
	"camps/internal/workload"
)

// CellResult is one completed grid cell, as delivered to Progress; see
// exp.CellResult for the field semantics.
type CellResult = exp.CellResult

// Options configures a grid run.
type Options struct {
	// System is the hardware configuration (zero value: Table I).
	System camps.SystemConfig
	// Seed decorrelates the synthetic traces (default 1).
	Seed uint64
	// WarmupRefs / MeasureInstr scale the per-cell simulation (defaults
	// from camps.RunConfig).
	WarmupRefs   uint64
	MeasureInstr uint64
	// Mixes defaults to all twelve Table II mixes.
	Mixes []workload.Mix
	// Schemes defaults to all five schemes.
	Schemes []camps.Scheme
	// Parallelism bounds concurrently running cells (default NumCPU).
	Parallelism int
	// CellTimeout bounds one cell attempt's wall-clock time (0 = none).
	CellTimeout time.Duration
	// Retries re-runs transiently failing cells (default 0).
	Retries int
	// Checkpoint names a JSONL result store; with Resume set, cells
	// already present in it are not re-executed.
	Checkpoint string
	Resume     bool
	// Progress, when non-nil, receives every completed cell. Calls are
	// serialized.
	Progress func(CellResult)
}

func (o *Options) applyDefaults() {
	if len(o.Mixes) == 0 {
		o.Mixes = workload.Mixes()
	}
	if len(o.Schemes) == 0 {
		o.Schemes = camps.Schemes()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Grid holds the results of a full run, indexed by mix and scheme.
type Grid struct {
	mixes   []workload.Mix
	schemes []camps.Scheme
	cells   map[string]map[camps.Scheme]camps.Results
}

// RunContext executes the grid under ctx. Cancellation propagates into
// every in-flight simulation (which stops within one epoch of simulated
// time) and surfaces as an error wrapping ctx.Err().
func RunContext(ctx context.Context, opts Options) (*Grid, error) {
	opts.applyDefaults()
	g := &Grid{
		mixes:   opts.Mixes,
		schemes: opts.Schemes,
		cells:   make(map[string]map[camps.Scheme]camps.Results),
	}
	for _, m := range opts.Mixes {
		g.cells[m.ID] = make(map[camps.Scheme]camps.Results)
	}

	cells := exp.Grid(opts.Mixes, opts.Schemes, []uint64{opts.Seed})
	results, _, err := exp.Run(ctx, cells, exp.Options{
		System:       opts.System,
		WarmupRefs:   opts.WarmupRefs,
		MeasureInstr: opts.MeasureInstr,
		Parallelism:  opts.Parallelism,
		CellTimeout:  opts.CellTimeout,
		Retries:      opts.Retries,
		Checkpoint:   opts.Checkpoint,
		Resume:       opts.Resume,
		Progress:     opts.Progress,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	for _, r := range results {
		g.cells[r.Mix][r.Scheme] = r.Results
	}
	return g, nil
}

// Cell returns one cell's results.
func (g *Grid) Cell(mixID string, s camps.Scheme) (camps.Results, bool) {
	row, ok := g.cells[mixID]
	if !ok {
		return camps.Results{}, false
	}
	r, ok := row[s]
	return r, ok
}

// MixIDs returns the mixes in presentation order.
func (g *Grid) MixIDs() []string {
	ids := make([]string, 0, len(g.mixes))
	for _, m := range g.mixes {
		ids = append(ids, m.ID)
	}
	return ids
}

// Schemes returns the schemes in presentation order.
func (g *Grid) Schemes() []camps.Scheme { return g.schemes }

func (g *Grid) mustCell(mixID string, s camps.Scheme) camps.Results {
	r, ok := g.Cell(mixID, s)
	if !ok {
		panic(fmt.Sprintf("harness: missing cell %s/%v", mixID, s))
	}
	return r
}

// hasScheme reports whether the grid includes scheme s.
func (g *Grid) hasScheme(s camps.Scheme) bool {
	for _, have := range g.schemes {
		if have == s {
			return true
		}
	}
	return false
}

// schemesFrom filters wanted schemes to those present in the grid.
func (g *Grid) schemesFrom(wanted []camps.Scheme) []camps.Scheme {
	var out []camps.Scheme
	for _, s := range wanted {
		if g.hasScheme(s) {
			out = append(out, s)
		}
	}
	return out
}

// Figure5 reproduces "Normalized performance gains of CAMPS with different
// schemes": per-mix speedup of each scheme's geometric-mean IPC over BASE,
// plus the cross-mix average (geometric mean, as the paper aggregates).
func (g *Grid) Figure5() *stats.Table {
	schemes := g.schemesFrom(camps.Schemes())
	t := &stats.Table{
		Title:   "Figure 5: Normalized speedup over BASE (higher is better)",
		Columns: schemeNames(schemes),
	}
	for _, id := range g.MixIDs() {
		base := g.mustCell(id, camps.BASE).GeoMeanIPC
		row := make([]float64, len(schemes))
		for i, s := range schemes {
			row[i] = stats.Ratio(g.mustCell(id, s).GeoMeanIPC, base)
		}
		t.AddRow(id, row...)
	}
	appendAvg(t, true)
	return t
}

// Figure6 reproduces "Percentage Row Buffer Conflicts Over Different
// Schemes": row-buffer conflicts as a percentage of demand requests, for
// the open-page schemes. BASE is excluded exactly as in the paper (it
// precharges behind every copy, so it has no row-buffer conflicts).
func (g *Grid) Figure6() *stats.Table {
	schemes := g.schemesFrom([]camps.Scheme{camps.BASEHIT, camps.MMD, camps.CAMPS, camps.CAMPSMOD})
	t := &stats.Table{
		Title:   "Figure 6: Row-buffer conflict rate, % of demand requests (lower is better)",
		Columns: schemeNames(schemes),
	}
	for _, id := range g.MixIDs() {
		row := make([]float64, len(schemes))
		for i, s := range schemes {
			r := g.mustCell(id, s)
			demand := float64(r.VaultStats.BufferHits.Value() + r.VaultStats.BufferMisses.Value())
			row[i] = stats.Ratio(float64(r.RowConflicts), demand) * 100
		}
		t.AddRow(id, row...)
	}
	appendAvg(t, false)
	return t
}

// Figure7 reproduces "Prefetching Accuracy of Different Schemes": of all
// prefetches performed, the fraction whose data is actually referenced by
// the processor, in percent. Reported at row granularity (a prefetched row
// counts as useful once any of its lines is served from the buffer), which
// is the granularity the schemes prefetch at. EXPERIMENTS.md discusses the
// one divergence this metric causes (BASE-HIT's trigger guarantees a
// waiting consumer, so its row accuracy is trivially ~100%).
func (g *Grid) Figure7() *stats.Table {
	schemes := g.schemesFrom(camps.Schemes())
	t := &stats.Table{
		Title:   "Figure 7: Prefetching accuracy, % of prefetched rows referenced (higher is better)",
		Columns: schemeNames(schemes),
	}
	for _, id := range g.MixIDs() {
		row := make([]float64, len(schemes))
		for i, s := range schemes {
			row[i] = g.mustCell(id, s).PrefetchAccuracy * 100
		}
		t.AddRow(id, row...)
	}
	appendAvg(t, false)
	return t
}

// Figure8 reproduces "Reduction in Memory Access Latency": percentage AMAT
// reduction relative to BASE for the schemes the paper plots (MMD and
// CAMPS-MOD).
func (g *Grid) Figure8() *stats.Table {
	schemes := g.schemesFrom([]camps.Scheme{camps.MMD, camps.CAMPSMOD})
	t := &stats.Table{
		Title:   "Figure 8: Reduction in average memory access time vs BASE, % (higher is better)",
		Columns: schemeNames(schemes),
	}
	for _, id := range g.MixIDs() {
		base := g.mustCell(id, camps.BASE).AMATps
		row := make([]float64, len(schemes))
		for i, s := range schemes {
			row[i] = stats.Ratio(base-g.mustCell(id, s).AMATps, base) * 100
		}
		t.AddRow(id, row...)
	}
	appendAvg(t, false)
	return t
}

// Figure9 reproduces "Average Energy consumption of HMC": total HMC energy
// normalized to BASE for the schemes the paper plots.
func (g *Grid) Figure9() *stats.Table {
	schemes := g.schemesFrom([]camps.Scheme{camps.BASE, camps.MMD, camps.CAMPSMOD})
	t := &stats.Table{
		Title:   "Figure 9: HMC energy normalized to BASE (lower is better)",
		Columns: schemeNames(schemes),
	}
	for _, id := range g.MixIDs() {
		base := g.mustCell(id, camps.BASE).Energy.Total()
		row := make([]float64, len(schemes))
		for i, s := range schemes {
			row[i] = stats.Ratio(g.mustCell(id, s).Energy.Total(), base)
		}
		t.AddRow(id, row...)
	}
	appendAvg(t, false)
	return t
}

// MPKITable summarizes per-mix memory intensity (highest-MPKI core and
// mean), validating the HM/LM/MX classification of Table II.
func (g *Grid) MPKITable(s camps.Scheme) *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Workload memory intensity under %v (L3 MPKI)", s),
		Columns: []string{"meanMPKI", "maxMPKI"},
	}
	for _, id := range g.MixIDs() {
		r := g.mustCell(id, s)
		maxv := 0.0
		for _, v := range r.MPKI {
			if v > maxv {
				maxv = v
			}
		}
		t.AddRow(id, stats.Mean(r.MPKI), maxv)
	}
	return t
}

// Figures returns all five paper figures in order.
func (g *Grid) Figures() []*stats.Table {
	return []*stats.Table{g.Figure5(), g.Figure6(), g.Figure7(), g.Figure8(), g.Figure9()}
}

// appendAvg adds an AVG row: geometric mean per column when geo is set
// (speedups), arithmetic mean otherwise (percentages/ratios).
func appendAvg(t *stats.Table, geo bool) {
	n := t.Rows()
	if n == 0 {
		return
	}
	avg := make([]float64, len(t.Columns))
	for c := range t.Columns {
		if geo {
			avg[c] = t.ColumnGeoMean(c)
		} else {
			avg[c] = t.ColumnMean(c)
		}
	}
	t.AddRow("AVG", avg...)
}

func schemeNames(ss []camps.Scheme) []string {
	names := make([]string, len(ss))
	for i, s := range ss {
		names[i] = s.String()
	}
	return names
}

// GroupAverages returns the average value of column col of table t within
// each mix family (HM, LM, MX), mirroring how the paper quotes per-class
// gains. Rows labelled AVG are skipped.
func GroupAverages(t *stats.Table, col int) map[string]float64 {
	sums := map[string][]float64{}
	for i := 0; i < t.Rows(); i++ {
		label := t.RowLabel(i)
		if label == "AVG" || len(label) < 2 {
			continue
		}
		grp := label[:2]
		sums[grp] = append(sums[grp], t.Value(i, col))
	}
	out := make(map[string]float64, len(sums))
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = stats.Mean(sums[k])
	}
	return out
}
