package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCompareBaselineAllocGate checks the allocs/op gate: a serial
// scenario fails above 2% growth, passes within it, and a sharded
// scenario is exempt. Events/sec is held equal so only allocations vary.
func TestCompareBaselineAllocGate(t *testing.T) {
	base := benchFile{Schema: benchSchema, Scenarios: []benchResult{
		{Name: "default", EventsPerSec: 1e6, Allocs: 100_000},
		{Name: "parallel-w2", Workers: 2, EventsPerSec: 1e6, Allocs: 100_000},
	}}
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		scen   benchResult
		wantOK bool
	}{
		{"serial within 2%", benchResult{Name: "default", EventsPerSec: 1e6, Allocs: 101_900}, true},
		{"serial fewer allocs", benchResult{Name: "default", EventsPerSec: 1e6, Allocs: 20_000}, true},
		{"serial over 2%", benchResult{Name: "default", EventsPerSec: 1e6, Allocs: 102_100}, false},
		{"sharded exempt", benchResult{Name: "parallel-w2", Workers: 2, EventsPerSec: 1e6, Allocs: 300_000}, true},
		{"events/sec still gated", benchResult{Name: "default", EventsPerSec: 0.8e6, Allocs: 100_000}, false},
	}
	for _, tc := range cases {
		cur := benchFile{Schema: benchSchema, Scenarios: []benchResult{tc.scen}}
		if got := compareBaseline(cur, path); got != tc.wantOK {
			t.Errorf("%s: compareBaseline = %v, want %v", tc.name, got, tc.wantOK)
		}
	}
}
