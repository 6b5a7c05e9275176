package vault

import (
	"math/rand"
	"strings"
	"testing"

	"camps/internal/config"
	"camps/internal/prefetch"
	"camps/internal/sim"
)

// driveRandom submits n seeded random requests to c, running the engine a
// little between them and checking c's invariants after every step. It
// returns every request's completion time in submission order.
func driveRandom(t *testing.T, eng *sim.Engine, c *Controller, seed int64, n int) []sim.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	banks := len(c.banks)
	done := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		done[i] = -1
		c.Submit(Request{
			Bank:  rng.Intn(banks),
			Row:   int64(rng.Intn(8)),
			Line:  rng.Intn(c.lines),
			Write: rng.Intn(5) == 0,
			Done:  func(at sim.Time) { done[i] = at },
		})
		if rng.Intn(4) == 0 {
			eng.RunFor(sim.Time(rng.Intn(200_000)))
		}
		if err := c.CheckInvariant(); err != nil {
			t.Fatalf("after request %d: %v", i, err)
		}
	}
	eng.Run()
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
	for i, at := range done {
		if at < 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
	if c.PendingWork() {
		t.Fatal("work left queued after drain")
	}
	return done
}

// TestMaskedDispatchMatchesFullScan runs the same random request stream
// through a vault that dispatches from the work mask and one forced to
// scan every bank, under real refresh pressure and every registered
// engine, and requires identical completion times and statistics. Engines
// that fetch rows of other banks exercise the mask re-read: a job can queue
// work for a later bank in the same pass.
func TestMaskedDispatchMatchesFullScan(t *testing.T) {
	for _, scheme := range prefetch.AllSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := config.Default()
			run := func(scanAll bool) ([]sim.Time, Stats) {
				eng, c := newVault(t, cfg, scheme)
				c.scanAll = scanAll
				done := driveRandom(t, eng, c, 5, 1500)
				c.Flush()
				c.CollectOps()
				return done, *c.Stats()
			}
			masked, ms := run(false)
			full, fs := run(true)
			for i := range masked {
				if masked[i] != full[i] {
					t.Fatalf("request %d done at %d with masked dispatch, %d with full scan", i, masked[i], full[i])
				}
			}
			if ms.Refreshes.Value() == 0 {
				t.Fatal("no refresh ran; the refresh fallback went untested")
			}
			if ms.Refreshes.Value() != fs.Refreshes.Value() || ms.FetchesIssued.Value() != fs.FetchesIssued.Value() ||
				ms.RowConflicts.Value() != fs.RowConflicts.Value() || ms.BankOps != fs.BankOps {
				t.Fatalf("stats differ: masked %+v, full scan %+v", ms, fs)
			}
		})
	}
}

// TestWideVaultFallbackStress runs a vault with more banks than the work
// mask has bits, so schedule() always takes the full scan, with the
// invariant checker armed throughout.
func TestWideVaultFallbackStress(t *testing.T) {
	cfg := config.Default()
	cfg.HMC.BanksPerLayer = 16 // 8 layers x 16 = 128 banks per vault
	eng, c := newVault(t, cfg, prefetch.CAMPSMOD)
	if !c.scanAll || len(c.banks) <= 64 {
		t.Fatalf("%d banks, scanAll %v: want the full-scan fallback", len(c.banks), c.scanAll)
	}
	driveRandom(t, eng, c, 9, 2000)
	if c.Stats().Refreshes.Value() == 0 {
		t.Fatal("no refresh ran")
	}
}

// TestCheckInvariantCatchesDispatchState corrupts the work mask, the
// cached refresh minimum and the pending-wake count in turn and requires
// CheckInvariant to report each.
func TestCheckInvariantCatchesDispatchState(t *testing.T) {
	eng, c := newVault(t, smallCfg(), prefetch.None)
	// Two reads to one bank: the second stays queued behind the first.
	submitRead(c, 3, 1, 0)
	submitRead(c, 3, 2, 0)
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("clean vault: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func()
		want    string
	}{
		{"bit cleared on a bank with work", func() { c.workMask &^= 1 << 3 }, "work mask bit false"},
		{"bit set on an empty bank", func() { c.workMask |= 1 << 7 }, "work mask bit true"},
		{"bit past the last bank", func() { c.workMask |= 1 << 40 }, "names banks past"},
		{"stale refresh minimum", func() { c.refreshMin++ }, "cached refresh minimum"},
		{"queued work with no pending wake", func() { c.wakes = 0 }, "no pending wake"},
	} {
		mask, refMin, wakes := c.workMask, c.refreshMin, c.wakes
		tc.corrupt()
		err := c.CheckInvariant()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckInvariant = %v, want an error containing %q", tc.name, err, tc.want)
		}
		c.workMask, c.refreshMin, c.wakes = mask, refMin, wakes
	}
	eng.Run()
	if err := c.CheckInvariant(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}
