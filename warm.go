package camps

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"camps/internal/cache"
	"camps/internal/config"
	"camps/internal/trace"
)

// WarmKey identifies a warm state by everything the functional warmup
// reads: the mix, the seed, the warmup length, the core count and the
// three cache levels' configuration. Runs whose configurations have equal
// keys start their measured regions from identical caches and trace
// positions, whatever their scheme or non-cache hardware. WarmKey is
// comparable, so it can key a map.
type WarmKey struct {
	mix        string // ID and benchmark list
	seed, refs uint64
	cores      int
	l1, l2, l3 config.CacheLevel
}

// WarmKey returns the key of the warm state rc's run starts from, with
// rc's defaults applied.
func (rc RunConfig) WarmKey() WarmKey {
	rc.applyDefaults()
	return WarmKey{
		mix:   rc.Mix.ID + ":" + strings.Join(rc.Mix.Benchmarks, ","),
		seed:  rc.Seed,
		refs:  rc.WarmupRefs,
		cores: rc.System.Processor.Cores,
		l1:    rc.System.L1,
		l2:    rc.System.L2,
		l3:    rc.System.L3,
	}
}

// Warm is the state a measured region starts from: a functionally warmed
// cache hierarchy and each core's trace generator positioned just past
// its warmup references. Hand it to exactly one run through
// RunConfig.Warm, which consumes it; Clone it first to start several runs
// from the same state.
type Warm struct {
	key  WarmKey
	hier *cache.Hierarchy
	gens []*trace.Generator
	used atomic.Bool
}

// Clone returns an independent deep copy of w. It must not run
// concurrently with the run consuming w.
func (w *Warm) Clone() *Warm {
	c := &Warm{key: w.key, hier: w.hier.Clone(), gens: make([]*trace.Generator, len(w.gens))}
	for i, g := range w.gens {
		c.gens[i] = g.Clone()
	}
	return c
}

// Warmup runs rc's functional cache warmup, WarmupRefs references per
// core through a fresh hierarchy, and returns the warmed state for
// RunConfig.Warm. rc is validated as RunContext would validate it. It
// must select its workload by Mix: Readers cannot be cloned, so a config
// with Readers fails with ErrInvalidConfig.
func Warmup(ctx context.Context, rc RunConfig) (*Warm, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("camps: warmup cancelled before start: %w", err)
	}
	if err := rc.prepare(); err != nil {
		return nil, err
	}
	if rc.Readers != nil {
		return nil, invalidConfig("camps: Warmup needs a Mix; Readers cannot be cloned")
	}
	return warmup(ctx, rc)
}

// warmup builds and warms the state of a prepared, Mix-driven rc.
func warmup(ctx context.Context, rc RunConfig) (*Warm, error) {
	if cores := rc.System.Processor.Cores; len(rc.Mix.Benchmarks) != cores {
		return nil, &apiError{
			msg: fmt.Sprintf("camps: mix %q has %d benchmarks, system has %d cores",
				rc.Mix.ID, len(rc.Mix.Benchmarks), cores),
			refs: []error{ErrMixCoreMismatch},
		}
	}
	gens, err := rc.Mix.Generators(rc.Seed)
	if err != nil {
		return nil, err
	}
	w := &Warm{key: rc.WarmKey(), hier: cache.NewHierarchy(rc.System), gens: gens}
	if err := warmCaches(ctx, w.hier, w.readers(), rc.WarmupRefs); err != nil {
		return nil, err
	}
	return w, nil
}

// claim checks that w may start rc's run and marks it consumed.
func (w *Warm) claim(rc RunConfig) error {
	switch {
	case rc.Readers != nil:
		return invalidConfig("camps: RunConfig.Warm and RunConfig.Readers are exclusive")
	case w.key != rc.WarmKey():
		return invalidConfig("camps: RunConfig.Warm was warmed for a different mix, seed, warmup length or cache configuration")
	case w.used.Swap(true):
		return invalidConfig("camps: RunConfig.Warm was already consumed by another run")
	}
	return nil
}

// readers returns w's generators as the cores' trace readers.
func (w *Warm) readers() []trace.Reader {
	readers := make([]trace.Reader, len(w.gens))
	for i, g := range w.gens {
		readers[i] = g
	}
	return readers
}

// warmCaches consumes refs records per core through hier with no timing,
// discarding memory traffic: the analogue of the paper's fast-forward and
// cache warmup.
func warmCaches(ctx context.Context, hier *cache.Hierarchy, readers []trace.Reader, refs uint64) error {
	for core, r := range readers {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("camps: run cancelled during warmup: %w", err)
		}
		for i := uint64(0); i < refs; i++ {
			rec, err := r.Next()
			if errors.Is(err, io.EOF) {
				break // finite reader exhausted: measured region sees EOF
			}
			if err != nil {
				// A malformed or truncated trace must fail the run, not
				// silently shrink the warmup.
				return fmt.Errorf("camps: core %d warmup trace: %w", core, err)
			}
			hier.Access(core, rec.Addr, rec.Write)
		}
	}
	return nil
}

// invalidConfig is an error matching ErrInvalidConfig.
func invalidConfig(msg string) error {
	return &apiError{msg: msg, refs: []error{ErrInvalidConfig}}
}
