package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline stores base as a BENCH_*.json file and returns its path.
func writeBaseline(t *testing.T, base benchFile) string {
	t.Helper()
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareBaselineAllocGate checks the allocs/op gate: a scenario
// fails above 2% growth and passes within it. Events/sec is held equal so
// only allocations vary.
func TestCompareBaselineAllocGate(t *testing.T) {
	path := writeBaseline(t, benchFile{Schema: benchSchema, Scenarios: []benchResult{
		{Name: "default", EventsPerSec: 1e6, Allocs: 100_000},
	}})
	cases := []struct {
		name   string
		scen   benchResult
		wantOK bool
	}{
		{"within 2%", benchResult{Name: "default", EventsPerSec: 1e6, Allocs: 101_900}, true},
		{"fewer allocs", benchResult{Name: "default", EventsPerSec: 1e6, Allocs: 20_000}, true},
		{"over 2%", benchResult{Name: "default", EventsPerSec: 1e6, Allocs: 102_100}, false},
		{"events/sec still gated", benchResult{Name: "default", EventsPerSec: 0.8e6, Allocs: 100_000}, false},
	}
	for _, tc := range cases {
		cur := benchFile{Schema: benchSchema, Scenarios: []benchResult{tc.scen}}
		if got := compareBaseline(cur, path); got != tc.wantOK {
			t.Errorf("%s: compareBaseline = %v, want %v", tc.name, got, tc.wantOK)
		}
	}
}

// TestCompareBaselineReportsMissingRows checks that a scenario present
// only in the baseline is printed rather than silently skipped, and that
// it does not change the gate's verdict.
func TestCompareBaselineReportsMissingRows(t *testing.T) {
	path := writeBaseline(t, benchFile{Schema: benchSchema, Scenarios: []benchResult{
		{Name: "default", EventsPerSec: 1e6, Allocs: 100_000},
		{Name: "retired", EventsPerSec: 1e6, Allocs: 100_000},
	}})
	stderr, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = stderr
	cur := benchFile{Schema: benchSchema, Scenarios: []benchResult{
		{Name: "default", EventsPerSec: 1e6, Allocs: 100_000},
	}}
	ok := compareBaseline(cur, path)
	os.Stderr = old
	stderr.Close()
	if !ok {
		t.Error("compareBaseline failed on a missing baseline row; want pass")
	}
	out, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "baseline scenario retired was not run") {
		t.Errorf("missing baseline row not reported; stderr:\n%s", out)
	}
	if strings.Contains(string(out), "default") {
		t.Errorf("a row present in both files was reported missing; stderr:\n%s", out)
	}
}
