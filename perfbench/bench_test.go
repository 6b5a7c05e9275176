package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"camps"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(v, n=4) and
	// statistics.median(v).
	for _, tc := range []struct {
		in     []float64
		q      [3]float64
		median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}, 2},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}, 3},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.2, 1.05}, [3]float64{0.9, 1.05, 1.2}, 1.05},
		{[]float64{7}, [3]float64{7, 7, 7}, 7},
	} {
		q := quartiles(tc.in)
		for i := range q {
			if math.Abs(q[i]-tc.q[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, q, tc.q)
				break
			}
		}
		if m := median(tc.in); math.Abs(m-tc.median) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tc.in, m, tc.median)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"camps/internal/vault.(*Controller).issue", "camps/internal/sim.(*Engine).Run"}, "vault"},
		{[]string{"camps/internal/trace.(*Generator).Next", "camps/internal/cpu.(*Core).fetch"}, "workload"},
		{[]string{"camps/internal/harness.RunContext", "main.main"}, "exp"},
		// Helpers and non-runtime standard library charge their caller.
		{[]string{"math.Log", "camps/internal/stats.(*LatencyAccum).Observe", "camps/internal/dram.(*Bank).Activate"}, "dram"},
		{[]string{"sort.Slice", "camps/internal/prefetch.(*hybrid).OnEpoch[...]"}, "prefetch"},
		{[]string{"camps/internal/pfbuffer.F[go.shape.*camps/internal/vault.T]"}, "pfbuffer"},
		// Runtime leaves are runtime, unless tracing code called them.
		{[]string{"runtime.mallocgc", "camps/internal/cache.(*Level).Access"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "camps/internal/hmc.(*Cube).Access"}, "runtime"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"runtime.nanotime1", "time.Now", "main.(*timedReader).Next", "camps/internal/cpu.(*Core).fetch"}, "obs"},
		{[]string{"runtime.write1", "runtime/pprof.(*profileBuilder).flush"}, "obs"},
		{[]string{"camps/internal/obs.(*SpanSet).Charge", "camps/internal/vault.(*Controller).issue"}, "obs"},
		{[]string{"camps.RunContext", "main.main"}, "other"},
		{[]string{"camps.cubeMemory.ReadLine", "camps/internal/cache.(*MSHRFile).Read"}, "other"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.nanos
		for _, fn := range s.funcs {
			if fn == "camps/perfbench.spin" || fn == "main.spin" {
				inSpin += s.nanos
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin holds %d of %d profiled ns over %d stacks", inSpin, total, len(stacks))
	}
	if _, err := decodeProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

// tiny returns the workload at a size a test can afford.
func tiny(t *testing.T, name string) workload {
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.instr, w.warmup = 2000, 500
	if w.grid {
		w.mixes, w.schemes = w.mixes[:2], w.schemes[:2] // {HM1, LM2} x {BASE, BASE-HIT}
	}
	return w
}

func TestDigestStableAcrossRepsAndTracing(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"hm1-none", "paper-grid"} {
		w := tiny(t, name)
		var digests []string
		for i, traced := range []bool{false, false, true} {
			var op opResult
			var err error
			if traced {
				op, err = runTracedOp(ctx, w, 7)
			} else {
				op, err = runOp(ctx, w, 7, w.instr)
			}
			if err == nil {
				err = checkCells(w, w.instr, op.cells)
			}
			if err != nil {
				t.Fatalf("%s op %d: %v", name, i, err)
			}
			d, err := digest(op.cells)
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, d)
			if traced && (op.nextCalls == 0 || op.cells[0].Attribution == nil) {
				t.Errorf("%s traced op saw %d reader calls, attribution %v", name, op.nextCalls, op.cells[0].Attribution)
			}
		}
		if digests[0] != digests[1] || digests[0] != digests[2] {
			t.Errorf("%s digests differ: untraced %s, %s; traced %s", name, digests[0], digests[1], digests[2])
		}
		other, err := runOp(ctx, w, 8, w.instr)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := digest(other.cells); d == digests[0] {
			t.Errorf("%s: seeds 7 and 8 give the same digest", name)
		}
	}
}

func TestCheckCellsRejectsBadOutput(t *testing.T) {
	w := tiny(t, "hm1-none")
	op, err := runOp(context.Background(), w, 1, w.instr)
	if err != nil {
		t.Fatal(err)
	}
	bad := op.cells[0]
	bad.PrefetchesIssued = 3 // NONE never prefetches
	if checkCells(w, w.instr, []camps.Results{bad}) == nil {
		t.Error("prefetches under NONE passed the check")
	}
	bad = op.cells[0]
	bad.Instructions = 1
	if checkCells(w, w.instr, []camps.Results{bad}) == nil {
		t.Error("short instruction count passed the check")
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := resultSet{Provenance: collectProvenance(1), Workload: "hm1-none"}
	b := a
	b.Provenance.Commit = "another-commit"
	if err := comparable(a, b); err != nil {
		t.Fatalf("same host, other commit: %v", err)
	}
	b.Provenance.CPUModel = "Some Other CPU"
	if err := comparable(a, b); !errors.Is(err, errIncomparable) {
		t.Fatalf("different host compared: %v", err)
	}
	b = a
	b.Provenance.GOMAXPROCS++
	if err := comparable(a, b); !errors.Is(err, errIncomparable) {
		t.Fatalf("different GOMAXPROCS compared: %v", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "hm1-none", "-trace", "2"},
		{"-workload", "hm1-none", "-seed", "0"},
		{"-compare", "only-one.json"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != 2 || bytes.Contains(out.Bytes(), []byte(`"correct"`)) {
			t.Errorf("run(%q) = %d, output %q", args, code, out.String())
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the metrics this program
// reports in step.
func TestBenchmarkManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, tc := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		var got, want []string
		for _, d := range tc.json {
			got = append(got, d.Name+" "+d.Unit)
		}
		for _, d := range tc.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !equal(got, want) {
			t.Errorf("BENCHMARK.json metrics %v, program reports %v", got, want)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
