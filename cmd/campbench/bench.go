// Benchmark mode: campbench -bench runs a fixed set of simulation
// scenarios, measures simulator throughput (not the simulated system's
// performance), and emits a machine-readable BENCH_<date>.json. With
// -bench-baseline it additionally compares against a committed baseline
// and exits non-zero on a >15% events/sec regression or a >2% allocs/op
// increase on any scenario — the CI gates that keep the event hot path
// from quietly slowing down.
//
// Methodology: each scenario is one complete camps.Run (warmup + measured
// region). It runs -bench-count times and the best run (highest events/sec)
// is reported, which discards scheduler noise and cold-cache effects the
// same way `go test -bench` users take the best of -count runs. Allocation
// figures come from runtime.MemStats deltas around the same run; nothing
// else allocates concurrently, so the deltas are exact.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"camps"
)

// benchSchema versions the BENCH_*.json layout.
const benchSchema = 1

// regressionTolerance is the fractional events/sec loss versus the
// baseline that fails the gate.
const regressionTolerance = 0.15

// allocTolerance is the fractional allocs/op growth versus the baseline
// that fails the gate. A run's allocation count is a property of the
// code, not the host (two machines measured 280,787 and 280,785 on the
// default scenario), so the bound is tight.
const allocTolerance = 0.02

// benchScenario is one named measurement configuration. The set spans the
// simulator's distinct hot-path mixes: the default CAMPS-MOD system, the
// prefetch-free path, and a latency-bound low-memory-intensity workload.
type benchScenario struct {
	Name   string
	Mix    string
	Scheme camps.Scheme
	Instr  uint64
	Warmup uint64
}

func benchScenarios() []benchScenario {
	return []benchScenario{
		{Name: "default", Mix: "MX1", Scheme: camps.CAMPSMOD, Instr: 200_000, Warmup: 20_000},
		{Name: "noprefetch", Mix: "HM1", Scheme: camps.NONE, Instr: 200_000, Warmup: 20_000},
		{Name: "heavy-lm", Mix: "LM2", Scheme: camps.CAMPSMOD, Instr: 200_000, Warmup: 20_000},
		// The set-dueling meta-engine runs every candidate's predictor on
		// the full demand stream, so it bounds the engine-side overhead of
		// the registry redesign.
		{Name: "hybrid", Mix: "MX1", Scheme: camps.HYBRID, Instr: 200_000, Warmup: 20_000},
	}
}

// benchResult is one scenario's measurement as serialized to the JSON
// file. WallNS and Allocs are per op, where one op is the full scenario
// run (the `go test -bench` convention).
type benchResult struct {
	Name         string  `json:"name"`
	Mix          string  `json:"mix"`
	Scheme       string  `json:"scheme"`
	Instructions uint64  `json:"instructions"`
	Events       uint64  `json:"events"`
	SimPS        int64   `json:"sim_ps"`
	WallNS       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs_per_op"`
	Bytes        uint64  `json:"bytes_per_op"`
}

// benchFile is the BENCH_<date>.json document.
type benchFile struct {
	Schema    int           `json:"schema"`
	Date      string        `json:"date"`
	GoVersion string        `json:"go"`
	CPUs      int           `json:"cpus"`
	Count     int           `json:"count"`
	Scenarios []benchResult `json:"scenarios"`
}

// runBenchmarks executes every scenario count times, reports the best run
// of each, writes outPath, and compares against baselinePath when given.
// It returns false if the regression gate failed.
func runBenchmarks(outPath, baselinePath string, count int, seed uint64) bool {
	if count < 1 {
		count = 1
	}
	doc := benchFile{
		Schema:    benchSchema,
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Count:     count,
	}
	for _, sc := range benchScenarios() {
		best, err := benchOne(sc, count, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campbench: scenario %s: %v\n", sc.Name, err)
			return false
		}
		fmt.Printf("%-12s %12.0f events/sec  %8.1f ms/op  %8d allocs/op  %8.1f KB/op\n",
			sc.Name, best.EventsPerSec, float64(best.WallNS)/1e6, best.Allocs, float64(best.Bytes)/1024)
		doc.Scenarios = append(doc.Scenarios, best)
	}

	if outPath != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "campbench: %v\n", err)
			return false
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(outPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "campbench: %v\n", err)
			return false
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}

	if baselinePath == "" {
		return true
	}
	return compareBaseline(doc, baselinePath)
}

// benchOne measures one scenario count times and returns the best run.
func benchOne(sc benchScenario, count int, seed uint64) (benchResult, error) {
	mix, err := camps.AnyMixByID(sc.Mix)
	if err != nil {
		return benchResult{}, err
	}
	rc := camps.RunConfig{
		Scheme:       sc.Scheme,
		Mix:          mix,
		Seed:         seed,
		WarmupRefs:   sc.Warmup,
		MeasureInstr: sc.Instr,
	}
	var best benchResult
	for i := 0; i < count; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		res, err := camps.RunContext(context.Background(), rc)
		wall := time.Since(t0)
		if err != nil {
			return benchResult{}, err
		}
		runtime.ReadMemStats(&after)
		r := benchResult{
			Name:         sc.Name,
			Mix:          sc.Mix,
			Scheme:       sc.Scheme.String(),
			Instructions: res.Instructions,
			Events:       res.EventsFired,
			SimPS:        int64(res.ElapsedSim),
			WallNS:       wall.Nanoseconds(),
			EventsPerSec: float64(res.EventsFired) / wall.Seconds(),
			Allocs:       after.Mallocs - before.Mallocs,
			Bytes:        after.TotalAlloc - before.TotalAlloc,
		}
		if i == 0 || r.EventsPerSec > best.EventsPerSec {
			best = r
		}
	}
	return best, nil
}

// compareBaseline checks every scenario present in both files against the
// events/sec and allocs/op tolerances. Missing or extra scenarios are
// reported but do not fail the gate (they appear when the scenario set
// evolves).
func compareBaseline(cur benchFile, path string) bool {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campbench: baseline: %v\n", err)
		return false
	}
	var base benchFile
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "campbench: baseline %s: %v\n", path, err)
		return false
	}
	byName := make(map[string]benchResult, len(base.Scenarios))
	for _, r := range base.Scenarios {
		byName[r.Name] = r
	}
	ran := make(map[string]bool, len(cur.Scenarios))
	for _, r := range cur.Scenarios {
		ran[r.Name] = true
	}
	for _, b := range base.Scenarios {
		if !ran[b.Name] {
			fmt.Fprintf(os.Stderr, "campbench: baseline scenario %s was not run (skipped)\n", b.Name)
		}
	}
	slow, fat := false, false
	for _, r := range cur.Scenarios {
		b, found := byName[r.Name]
		if !found {
			fmt.Fprintf(os.Stderr, "campbench: scenario %s not in baseline %s (skipped)\n", r.Name, path)
			continue
		}
		ratio := r.EventsPerSec / b.EventsPerSec
		allocRatio := float64(r.Allocs) / float64(max(b.Allocs, 1))
		rowSlow := ratio < 1-regressionTolerance
		rowFat := allocRatio > 1+allocTolerance
		verdict := "ok"
		switch {
		case rowSlow && rowFat:
			verdict = "REGRESSION+ALLOCS"
		case rowSlow:
			verdict = "REGRESSION"
		case rowFat:
			verdict = "ALLOC-REGRESSION"
		}
		slow, fat = slow || rowSlow, fat || rowFat
		fmt.Printf("%-12s baseline %12.0f ev/s  now %12.0f ev/s  %+6.1f%%  allocs %6.3fx  %s\n",
			r.Name, b.EventsPerSec, r.EventsPerSec, (ratio-1)*100, allocRatio, verdict)
	}
	if slow {
		fmt.Fprintf(os.Stderr, "campbench: events/sec regressed more than %.0f%% against %s\n",
			regressionTolerance*100, path)
	}
	if fat {
		fmt.Fprintf(os.Stderr, "campbench: allocs/op grew more than %.0f%% against %s\n",
			allocTolerance*100, path)
	}
	return !slow && !fat
}
