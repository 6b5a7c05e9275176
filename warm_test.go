package camps_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"camps"
	"camps/internal/trace"
)

// tiny is a run small enough to repeat several times per test.
func tiny(scheme camps.Scheme) camps.RunConfig {
	rc := quick("MX1", scheme)
	rc.WarmupRefs, rc.MeasureInstr = 2_000, 2_000
	return rc
}

func exportOf(t *testing.T, r camps.Results) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWarmStartMatchesColdRun runs one warm state, and a clone of it
// under another scheme, and requires each to export exactly what a run
// that warms for itself exports.
func TestWarmStartMatchesColdRun(t *testing.T) {
	ctx := context.Background()
	w, err := camps.Warmup(ctx, tiny(camps.CAMPSMOD))
	if err != nil {
		t.Fatal(err)
	}
	clone := w.Clone()
	for _, tc := range []struct {
		scheme camps.Scheme
		warm   *camps.Warm
	}{{camps.CAMPSMOD, w}, {camps.BASE, clone}} {
		cold, err := camps.RunContext(ctx, tiny(tc.scheme))
		if err != nil {
			t.Fatal(err)
		}
		rc := tiny(tc.scheme)
		rc.Warm = tc.warm
		warm, err := camps.RunContext(ctx, rc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exportOf(t, warm), exportOf(t, cold)) {
			t.Fatalf("%v: a run from a warm state differs from a cold run", tc.scheme)
		}
	}
}

// TestWarmMisuseIsInvalidConfig requires every misuse of RunConfig.Warm
// to fail with ErrInvalidConfig before simulating.
func TestWarmMisuseIsInvalidConfig(t *testing.T) {
	ctx := context.Background()
	w, err := camps.Warmup(ctx, tiny(camps.BASE))
	if err != nil {
		t.Fatal(err)
	}
	mismatched := map[string]func(*camps.RunConfig){
		"seed":   func(rc *camps.RunConfig) { rc.Seed = 2 },
		"warmup": func(rc *camps.RunConfig) { rc.WarmupRefs++ },
		"mix":    func(rc *camps.RunConfig) { rc.Mix, _ = camps.MixByID("MX2") },
		"l3": func(rc *camps.RunConfig) {
			rc.System = camps.DefaultSystem()
			rc.System.L3.MSHRs++
		},
	}
	for name, mutate := range mismatched {
		rc := tiny(camps.BASE)
		mutate(&rc)
		rc.Warm = w
		if _, err := camps.RunContext(ctx, rc); !errors.Is(err, camps.ErrInvalidConfig) {
			t.Fatalf("a Warm for another %s: err = %v, want ErrInvalidConfig", name, err)
		}
	}

	rc := tiny(camps.BASE)
	rc.Warm = w
	rc.Readers = make([]trace.Reader, 8)
	if _, err := camps.RunContext(ctx, rc); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("Warm with Readers: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := camps.Warmup(ctx, rc); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("Warmup with Readers: err = %v, want ErrInvalidConfig", err)
	}

	// None of the rejected runs consumed w: it still starts one run, and
	// only one.
	rc.Readers = nil
	if _, err := camps.RunContext(ctx, rc); err != nil {
		t.Fatalf("first use of the Warm: %v", err)
	}
	if _, err := camps.RunContext(ctx, rc); !errors.Is(err, camps.ErrInvalidConfig) {
		t.Fatalf("second use of the Warm: err = %v, want ErrInvalidConfig", err)
	}
}
