// Package exp orchestrates simulation campaigns: it shards the cells of a
// design-space exploration — (mix × scheme × seed × knob-value) points —
// across a bounded worker pool, applies per-cell wall-clock timeouts and
// bounded retry-with-backoff, checkpoints every completed cell to a JSONL
// store so an interrupted campaign resumes where it stopped, and threads
// context.Context cancellation down into each simulation via
// camps.RunContext.
//
// The harness grid runner (internal/harness) and the 1-D sweep CLI
// (cmd/campsweep) are thin clients of this package: a grid and a sweep are
// both just cell enumerations handed to Run.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"camps"
	"camps/internal/obs"
	"camps/internal/workload"
)

// Cell is one point of a campaign's design space.
type Cell struct {
	// Mix and Scheme select the workload and prefetcher under test.
	Mix    workload.Mix
	Scheme camps.Scheme
	// Seed decorrelates the synthetic traces (0 means the camps default 1;
	// enumerators normalize it so checkpoint keys are stable).
	Seed uint64
	// Knob/Value name a single configuration override for 1-D sweeps.
	// They are part of the cell's identity (and so of its checkpoint key);
	// Apply performs the actual mutation and is not serialized.
	Knob  string
	Value int64
	Apply func(*camps.SystemConfig) `json:"-"`
}

// Key uniquely identifies the cell within a campaign; it is the primary
// key of the checkpoint store.
func (c Cell) Key() string {
	k := fmt.Sprintf("%s/%v/seed=%d", c.Mix.ID, c.Scheme, c.Seed)
	if c.Knob != "" {
		k += fmt.Sprintf("/%s=%d", c.Knob, c.Value)
	}
	return k
}

// Grid enumerates mixes × schemes × seeds in row-major presentation order,
// the full-factorial campaign of the paper's evaluation.
func Grid(mixes []workload.Mix, schemes []camps.Scheme, seeds []uint64) []Cell {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	cells := make([]Cell, 0, len(mixes)*len(schemes)*len(seeds))
	for _, seed := range seeds {
		if seed == 0 {
			seed = 1
		}
		for _, m := range mixes {
			for _, s := range schemes {
				cells = append(cells, Cell{Mix: m, Scheme: s, Seed: seed})
			}
		}
	}
	return cells
}

// Sweep enumerates one knob across values for a fixed mix/scheme/seed —
// the 1-D ablation campaign behind cmd/campsweep.
func Sweep(mix workload.Mix, scheme camps.Scheme, seed uint64, knob string,
	values []int64, apply func(*camps.SystemConfig, int64)) []Cell {
	if seed == 0 {
		seed = 1
	}
	cells := make([]Cell, 0, len(values))
	for _, v := range values {
		v := v
		cells = append(cells, Cell{
			Mix: mix, Scheme: scheme, Seed: seed, Knob: knob, Value: v,
			Apply: func(sys *camps.SystemConfig) { apply(sys, v) },
		})
	}
	return cells
}

// CellResult is one completed cell: identity, execution bookkeeping, and
// the simulation's measurements. It is the single argument of Progress
// callbacks, so adding fields does not break callers.
type CellResult struct {
	Mix    string
	Scheme camps.Scheme
	Seed   uint64
	Knob   string
	Value  int64
	// Attempt is the 1-based attempt that produced the result (>1 after
	// transient-failure retries).
	Attempt int
	// Duration is the wall-clock time of the successful attempt (zero for
	// resumed cells, which were not executed in this process).
	Duration time.Duration
	// Resumed marks a cell restored from the checkpoint store rather than
	// executed.
	Resumed bool
	Results camps.Results
}

// Options configures a campaign.
type Options struct {
	// System is the hardware configuration every cell starts from (zero
	// value: Table I). A cell's Apply override mutates a copy.
	System camps.SystemConfig
	// WarmupRefs / MeasureInstr scale the per-cell simulation (defaults
	// from camps.RunConfig).
	WarmupRefs   uint64
	MeasureInstr uint64
	// Faults is the deterministic fault environment applied to every cell
	// (zero value: fault-free). The cell's Seed combines with Faults.Seed,
	// so each cell sees its own reproducible fault schedule.
	Faults camps.FaultSpec
	// CheckInvariants arms the per-run invariant checker in every cell; a
	// violation fails the cell with an error matching camps.ErrInvariant
	// (deterministic, so it is never retried).
	CheckInvariants bool
	// Parallelism is the worker count (default NumCPU). The cell queue
	// feeding the workers holds queuePerWorker cells per worker, so
	// enormous campaigns do not buffer every cell.
	Parallelism int
	// CellTimeout is the wall-clock budget of one attempt (0 = none). An
	// attempt that exceeds it is cancelled mid-simulation and counts as a
	// transient failure.
	CellTimeout time.Duration
	// Retries is how many additional attempts a transiently failing cell
	// gets (default 0). Permanent failures — invalid configuration,
	// mix/core mismatch, unknown mix — are never retried.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt
	// (default 100ms).
	Backoff time.Duration
	// HangGrace is how long past context cancellation (cell timeout or
	// campaign cancellation) the watchdog lets an attempt keep running
	// before declaring it hung, abandoning its goroutine, and failing the
	// cell with a *HangError carrying a full goroutine dump (default 2s).
	HangGrace time.Duration
	// Checkpoint names the JSONL result store ("" = no checkpointing).
	// Every completed cell is appended and fsync'd as soon as it finishes,
	// so an interrupted campaign leaves a valid store behind.
	Checkpoint string
	// Resume skips cells already present in the checkpoint store,
	// surfacing them as CellResults with Resumed set.
	Resume bool
	// Obs, when non-nil, receives the scheduler's counters
	// (exp.cells_started/completed/retried/cancelled/failed/resumed) and
	// the per-cell wall-clock latency histogram (exp.cell_wall_ms).
	// Snapshot it after Run returns; during the run it is written
	// concurrently by the workers.
	Obs *obs.Registry
	// Progress, when non-nil, receives every completed cell (including
	// resumed ones) as it lands. Calls are serialized; the callback need
	// not be safe for concurrent use.
	Progress func(CellResult)
	// Gate, when non-nil, is acquired before every cell attempt sequence
	// and released when the cell finishes (success or failure). It is how
	// a service hosting many concurrent campaigns imposes global and
	// per-tenant in-flight-cell caps on top of Parallelism: Acquire may
	// block until a slot frees, and must return promptly with ctx.Err()
	// once ctx is cancelled. Acquire/Release are called from worker
	// goroutines and must be safe for concurrent use.
	Gate Gate
	// CellObs, when non-nil, supplies the obs suite for each cell's
	// simulation (nil return = that cell runs without observability).
	// This is the hook job-granular epoch streaming attaches to: the
	// suite's OnSnapshot sees every epoch as the cell simulates. Called
	// from worker goroutines; must be safe for concurrent use.
	CellObs func(Cell) *obs.Suite
	// RunCell, when non-nil, replaces cell execution entirely — the seam
	// result caches, dry-run estimators, and tests plug into. Overrides
	// that only wrap (cache lookaside, accounting) fall back to
	// ExecuteCell for the real simulation. Called from worker goroutines;
	// must be safe for concurrent use.
	RunCell func(ctx context.Context, c Cell, o *Options) (camps.Results, error)

	// warm shares warm states between the cells of the Run in progress
	// (nil outside Run: ExecuteCell then warms every cell itself).
	warm *warmMemo
}

// Gate throttles cell execution across campaign boundaries; see
// Options.Gate.
type Gate interface {
	// Acquire blocks until a slot is available or ctx is cancelled
	// (returning ctx.Err()).
	Acquire(ctx context.Context) error
	// Release returns the slot taken by the matching Acquire.
	Release()
}

// queuePerWorker is how many pending cells the scheduler buffers per
// worker: enough that a worker finishing a cell finds the next one
// queued, few enough that the queue never holds a whole campaign.
const queuePerWorker = 2

func (o *Options) applyDefaults() {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.HangGrace <= 0 {
		o.HangGrace = 2 * time.Second
	}
	if o.RunCell == nil {
		o.RunCell = ExecuteCell
	}
}

// Stats summarizes a campaign's scheduler activity.
type Stats struct {
	// Started counts execution attempts (retries included).
	Started uint64
	// Completed counts cells that produced results in this process.
	Completed uint64
	// Retried counts transient failures that were given another attempt.
	Retried uint64
	// Cancelled counts cells abandoned because the campaign context was
	// cancelled.
	Cancelled uint64
	// Failed counts cells whose final attempt failed.
	Failed uint64
	// Resumed counts cells restored from the checkpoint store.
	Resumed uint64
	// Warmups counts the full cache warmups ExecuteCell ran. A cell that
	// started from a copy of another cell's warm state does not count.
	Warmups uint64
}

// ErrDuplicateCell reports two cells with the same Key in one campaign,
// which would make the checkpoint ambiguous.
var ErrDuplicateCell = errors.New("exp: duplicate cell key")

// Run executes the campaign under ctx and returns the completed cells in
// enumeration order (resumed cells included), plus scheduler statistics.
// On cancellation it returns the cells completed so far and an error
// wrapping ctx.Err(); the checkpoint store, if any, already holds every
// completed cell, so re-running with Resume finishes the campaign without
// re-executing them.
func Run(ctx context.Context, cells []Cell, opts Options) ([]CellResult, Stats, error) {
	opts.applyDefaults()

	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		k := c.Key()
		if _, dup := seen[k]; dup {
			return nil, Stats{}, fmt.Errorf("%w: %s", ErrDuplicateCell, k)
		}
		seen[k] = struct{}{}
	}

	var (
		mu    sync.Mutex // guards st, results, store appends, Progress, lat
		st    Stats
		lat   = obs.NewHistogram()
		done  = map[string]Record{}
		store *Store
	)
	if opts.Obs != nil {
		instrument(opts.Obs, &st, &mu)
		lat = opts.Obs.Histogram("exp.cell_wall_ms")
	}
	if opts.Checkpoint != "" {
		var err error
		store, err = OpenStore(opts.Checkpoint)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("exp: checkpoint: %w", err)
		}
		defer store.Close()
		if opts.Resume {
			done = store.Done()
		}
	}

	results := make([]*CellResult, len(cells))
	finish := func(i int, cr CellResult) {
		mu.Lock()
		defer mu.Unlock()
		results[i] = &cr
		if opts.Progress != nil {
			opts.Progress(cr)
		}
	}

	var pending []int
	for i, c := range cells {
		if rec, ok := done[c.Key()]; ok {
			st.Resumed++
			finish(i, rec.cellResult())
			continue
		}
		pending = append(pending, i)
	}
	opts.warm = newWarmMemo(cells, pending, &opts, &mu, &st)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	queue := make(chan int, queuePerWorker*opts.Parallelism)
	if opts.Obs != nil {
		// Queue depth is the scheduler's backpressure signal: a full queue
		// means the enumerator is ahead of the workers.
		opts.Obs.GaugeFunc("exp.queue_depth", func() float64 { return float64(len(queue)) })
	}
	go func() {
		defer close(queue)
		for _, i := range pending {
			select {
			case queue <- i:
			case <-runCtx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c := cells[i]
				if runCtx.Err() != nil {
					mu.Lock()
					st.Cancelled++
					mu.Unlock()
					continue
				}
				if opts.Gate != nil {
					// The gate slot covers the whole attempt sequence
					// (retries included), so a cell never runs half-admitted.
					if err := opts.Gate.Acquire(runCtx); err != nil {
						mu.Lock()
						st.Cancelled++
						mu.Unlock()
						continue
					}
				}
				res, attempt, dur, err := runWithRetry(runCtx, c, &opts, &st, &mu)
				opts.warm.release(c.Key())
				if opts.Gate != nil {
					opts.Gate.Release()
				}
				if err != nil {
					mu.Lock()
					cancelled := runCtx.Err() != nil
					if cancelled {
						st.Cancelled++
					} else {
						st.Failed++
					}
					mu.Unlock()
					if !cancelled {
						fail(fmt.Errorf("exp: cell %s: %w", c.Key(), err))
					}
					continue
				}
				cr := CellResult{
					Mix: c.Mix.ID, Scheme: c.Scheme, Seed: c.Seed,
					Knob: c.Knob, Value: c.Value,
					Attempt: attempt, Duration: dur, Results: res,
				}
				mu.Lock()
				st.Completed++
				lat.Observe(float64(dur) / float64(time.Millisecond))
				var serr error
				if store != nil {
					serr = store.Append(recordOf(c, cr))
				}
				mu.Unlock()
				if serr != nil {
					fail(fmt.Errorf("exp: checkpoint cell %s: %w", c.Key(), serr))
					continue
				}
				finish(i, cr)
			}
		}()
	}
	wg.Wait()

	out := make([]CellResult, 0, len(cells))
	for _, r := range results {
		if r != nil {
			out = append(out, *r)
		}
	}
	if firstErr != nil {
		return out, st, firstErr
	}
	if err := ctx.Err(); err != nil {
		return out, st, fmt.Errorf("exp: campaign cancelled: %w", err)
	}
	return out, st, nil
}

// runWithRetry executes one cell with per-attempt timeouts and bounded
// exponential backoff. It returns the successful attempt's result, or the
// last error once the attempts are exhausted, a permanent failure is seen,
// or the campaign context is cancelled.
func runWithRetry(ctx context.Context, c Cell, opts *Options, st *Stats, mu *sync.Mutex) (camps.Results, int, time.Duration, error) {
	var lastErr error
	attempts := opts.Retries + 1
	attempt := 1
	for ; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return camps.Results{}, attempt, 0, err
		}
		mu.Lock()
		st.Started++
		mu.Unlock()

		actx, cancel := ctx, context.CancelFunc(func() {})
		if opts.CellTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, opts.CellTimeout)
		}
		t0 := time.Now()
		// runAttempt isolates the attempt in its own goroutine: panics come
		// back as *PanicError, and a cell that ignores cancellation is
		// abandoned after HangGrace as *HangError — both ordinary cell
		// errors, so the worker (and the campaign) survive either.
		res, err := runAttempt(actx, c, opts)
		dur := time.Since(t0)
		cancel()
		if err == nil {
			return res, attempt, dur, nil
		}
		lastErr = err
		if cerr := ctx.Err(); cerr != nil {
			return camps.Results{}, attempt, dur, cerr
		}
		if permanent(err) || attempt == attempts {
			break
		}
		mu.Lock()
		st.Retried++
		mu.Unlock()
		backoff := opts.Backoff << (attempt - 1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return camps.Results{}, attempt, dur, ctx.Err()
		}
	}
	if attempt > attempts {
		attempt = attempts
	}
	return camps.Results{}, attempt, 0, lastErr
}

// permanent reports whether err can never succeed on retry: configuration
// and workload-shape errors are deterministic, so retrying them only burns
// the budget.
func permanent(err error) bool {
	return errors.Is(err, camps.ErrInvalidConfig) ||
		errors.Is(err, camps.ErrMixCoreMismatch) ||
		errors.Is(err, camps.ErrUnknownMix) ||
		errors.Is(err, camps.ErrBadFaultSpec) ||
		errors.Is(err, camps.ErrInvariant)
}

// ExecuteCell runs one cell's real simulation under the options' system,
// fault, and observability settings — the default cell executor behind
// Run, exported so RunCell overrides that merely wrap execution (result
// caches, accounting shims) can fall back to the genuine article. Inside
// Run, cells with the same camps.WarmKey share one cache warmup: each
// starts from its own copy of the warmed state, so results are identical
// to warming every cell separately.
func ExecuteCell(ctx context.Context, c Cell, o *Options) (camps.Results, error) {
	rc := o.runConfig(c)
	w, err := o.warm.take(ctx, c.Key(), rc)
	if err != nil {
		return camps.Results{}, err
	}
	rc.Warm = w
	if o.CellObs != nil {
		rc.Obs = o.CellObs(c)
	}
	return camps.RunContext(ctx, rc)
}

// runConfig is the run configuration of cell c under the options, without
// observability or a warm state.
func (o *Options) runConfig(c Cell) camps.RunConfig {
	sys := o.System
	if c.Apply != nil {
		if sys.Processor.Cores == 0 {
			sys = camps.DefaultSystem()
		}
		c.Apply(&sys)
	}
	return camps.RunConfig{
		System:          sys,
		Scheme:          c.Scheme,
		Mix:             c.Mix,
		Seed:            c.Seed,
		WarmupRefs:      o.WarmupRefs,
		MeasureInstr:    o.MeasureInstr,
		Faults:          o.Faults,
		CheckInvariants: o.CheckInvariants,
	}
}

// instrument exposes the campaign counters through an obs registry. The
// CounterFuncs take the scheduler mutex, so snapshots are safe at any
// time; the latency histogram is only safe to read after Run returns.
func instrument(reg *obs.Registry, st *Stats, mu *sync.Mutex) {
	locked := func(v *uint64) func() uint64 {
		return func() uint64 {
			mu.Lock()
			defer mu.Unlock()
			return *v
		}
	}
	reg.CounterFunc("exp.cells_started", locked(&st.Started))
	reg.CounterFunc("exp.cells_completed", locked(&st.Completed))
	reg.CounterFunc("exp.cells_retried", locked(&st.Retried))
	reg.CounterFunc("exp.cells_cancelled", locked(&st.Cancelled))
	reg.CounterFunc("exp.cells_failed", locked(&st.Failed))
	reg.CounterFunc("exp.cells_resumed", locked(&st.Resumed))
	reg.CounterFunc("exp.warmups", locked(&st.Warmups))
}
