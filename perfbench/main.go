// Command perfbench is the repository benchmark. It runs one workload of
// the CAMPS simulator for a fixed measurement window and prints the
// workload's end-to-end metrics (-trace 0) or, from a separate traced run,
// its per-layer metrics (-trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench -workload hm1-none -seed 1 -seconds 20 -trace 0
//
// The simulator is driven only through its entry points (camps.RunContext,
// harness.RunContext, exp.Run's RunCell seam, trace.Reader, obs.Suite),
// and every op's outputs are checked: a run error, a failed invariant, a
// digest that differs between reps, or a traced digest that differs from
// the untraced one counts as a failed op.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"camps"
	"camps/internal/stats"
)

const (
	// setupReps and setupWindow are the fewest one-instruction runs that
	// time the set-up cost and the least time they take together; setup_s
	// is their median.
	setupReps   = 5
	setupWindow = 2 * time.Second
	// minOps is the fewest measured ops (pairs, when traced) a run makes,
	// even past its window.
	minOps = 3
	// opTimeout bounds a whole run, so a hung simulation fails instead of
	// overrunning the caller's limit.
	opTimeout = 150 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"sim_ipc", "instr/cycle"},
	{"sim_mem_latency_ns", "ns"},
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".host_share", "fraction"})
	}
	return append(defs, []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.host_ns_per_event", "ns"},
		{"cache.l1_misses", "count"},
		{"cache.l2_misses", "count"},
		{"cache.l3_misses", "count"},
		{"cache.mshr_coalesced", "count"},
		{"cache.mshr_stalls", "count"},
		{"vault.row_hits", "count"},
		{"vault.row_conflicts", "count"},
		{"vault.conflict_rate", "fraction"},
		{"vault.refreshes", "count"},
		{"vault.queue_ps", "ps"},
		{"vault.bank_conflict_ps", "ps"},
		{"vault.refresh_stall_ps", "ps"},
		{"vault.service_ps", "ps"},
		{"hmc.link_ps", "ps"},
		{"hmc.xbar_ps", "ps"},
		{"hmc.read_latency_p99_ns", "ns"},
		{"prefetch.issued", "count"},
		{"prefetch.row_accuracy", "fraction"},
		{"prefetch.line_accuracy", "fraction"},
		{"prefetch.useful_timely", "count"},
		{"prefetch.useful_late", "count"},
		{"prefetch.evicted_unused", "count"},
		{"pfbuffer.hit_rate", "fraction"},
		{"pfbuffer.first_use_ns", "ns"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cycles", "count"},
		{"workload.next_ns", "ns"},
		{"exp.cell_wall_s", "s"},
		{"exp.worker_busy_frac", "fraction"},
		{"obs.tracing_overhead_s", "s"},
	}...)
}()

// metric is one reported number; samples-based metrics carry their
// median, quartiles and sample count.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Stats   *summary  `json:"stats,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// resultSet is everything one run measured, as written by -out and read
// by -compare.
type resultSet struct {
	Provenance provenance        `json:"provenance"`
	Workload   string            `json:"workload"`
	Trace      int               `json:"trace"`
	Digest     string            `json:"digest"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hm1-none, mx1-hybrid or paper-grid")
	seed := fs.Uint64("seed", 1, "workload seed (must be > 0)")
	seconds := fs.Float64("seconds", 10, "measurement window, seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	out := fs.String("out", "", "also write the full result set as JSON to this file")
	compare := fs.Bool("compare", false, "compare the two result files given as arguments, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err == nil && (*seed == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1)) {
		err = errors.New("need -seed > 0, -seconds > 0 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second))}
	b.set = resultSet{
		Provenance: collectProvenance(*seed),
		Workload:   w.name,
		Trace:      *traced,
		Metrics:    map[string]metric{},
	}
	p := b.set.Provenance
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "host: cpu=%q nproc=%d gomaxprocs=%d %s %s commit=%s dirty=%v\n",
		p.CPUModel, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Platform, p.Commit, p.Dirty)
	if *traced == 1 {
		b.tracedRun(ctx, stdout)
	} else {
		b.untracedRun(ctx)
	}
	b.set.Correct = b.set.Failed == 0 && b.set.Digest != ""
	b.report(stdout)
	if *out != "" {
		data, err := json.MarshalIndent(b.set, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return printResultLine(stdout, b.set)
}

// bench carries one run's state.
type bench struct {
	w      workload
	seed   uint64
	window time.Duration
	set    resultSet
}

// fail records a failed op.
func (b *bench) fail(what string, err error) {
	b.set.Failed++
	b.set.Errors = append(b.set.Errors, fmt.Sprintf("%s: %v", what, err))
}

// verify checks one op's outputs and its digest against the run's first.
func (b *bench) verify(what string, instr uint64, op opResult, err error) bool {
	b.set.Attempted++
	if err == nil {
		err = checkCells(b.w, instr, op.cells)
	}
	if err != nil {
		b.fail(what, err)
		return false
	}
	if instr != b.w.instr {
		return true // set-up reps simulate one instruction; nothing to compare
	}
	d, err := digest(op.cells)
	switch {
	case err != nil:
		b.fail(what, err)
		return false
	case b.set.Digest == "":
		b.set.Digest = d
	case d != b.set.Digest:
		b.fail(what, fmt.Errorf("output digest %s differs from %s", d, b.set.Digest))
		return false
	}
	return true
}

// usage is the process counters an op is measured by.
type usage struct {
	wall                     time.Time
	cpu                      time.Duration
	allocBytes, allocObjects uint64
	gcCycles                 uint64
}

var usageMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	s := append([]metrics.Sample(nil), usageMetrics...)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall:         time.Now(),
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
	}
}

// opCost is what one op consumed.
type opCost struct {
	wall, cpu                float64 // seconds
	allocBytes, allocObjects float64
	gcCycles                 float64
	peakRSSMB                float64
}

// measure runs fn after a full collection that also returns freed pages
// to the OS, so every op starts from the same heap and resident set, and
// returns its cost.
func measure(fn func()) opCost {
	debug.FreeOSMemory()
	// Restart the kernel's resident high-water mark from the current RSS,
	// so the reading below is this op's own peak. Where clear_refs is
	// unavailable the reading stays the process's peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	before := readUsage()
	fn()
	after := readUsage()
	return opCost{
		wall:         after.wall.Sub(before.wall).Seconds(),
		cpu:          (after.cpu - before.cpu).Seconds(),
		allocBytes:   float64(after.allocBytes - before.allocBytes),
		allocObjects: float64(after.allocObjects - before.allocObjects),
		gcCycles:     float64(after.gcCycles - before.gcCycles),
		peakRSSMB:    peakRSSMB(),
	}
}

// more reports whether another op fits the window that began at start,
// given the last op's duration.
func (b *bench) more(start time.Time, ops int, last float64) bool {
	if ops < minOps {
		return true
	}
	return time.Since(start).Seconds()+last <= b.window.Seconds()
}

// untracedRun times setup and measured ops and derives the end-to-end
// metrics.
func (b *bench) untracedRun(ctx context.Context) {
	var setup []float64
	for i, start := 0, time.Now(); i < setupReps || time.Since(start) < setupWindow; i++ {
		var op opResult
		var err error
		c := measure(func() { op, err = runOp(ctx, b.w, b.seed, 1) })
		if b.verify("setup", 1, op, err) {
			setup = append(setup, c.wall)
		}
	}
	var wall, cpu, alloc, rss []float64
	var first []camps.Results
	start := time.Now()
	for n := 0; b.more(start, n, last(wall)); n++ {
		var op opResult
		var err error
		c := measure(func() { op, err = runOp(ctx, b.w, b.seed, b.w.instr) })
		if !b.verify("op", b.w.instr, op, err) {
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if first == nil {
			first = op.cells
		}
		wall = append(wall, c.wall)
		cpu = append(cpu, c.cpu)
		alloc = append(alloc, c.allocBytes/1e6)
		rss = append(rss, c.peakRSSMB)
	}
	b.put("setup_s", setup)
	b.put("wall_s", wall)
	b.put("cpu_s", cpu)
	b.put("alloc_mb", alloc)
	b.put("peak_rss_mb", rss)
	if first != nil {
		var ipc []float64
		var lat float64
		for _, r := range first {
			ipc = append(ipc, r.GeoMeanIPC)
			lat += r.AMATps / 1000
		}
		b.putValue("sim_ipc", stats.GeoMean(ipc))
		b.putValue("sim_mem_latency_ns", lat/float64(len(first)))
	}
}

// tracedRun alternates untraced and traced ops over the window. The
// untraced ops give the kernel and runtime counts and the baseline for
// the tracing overhead; the traced ops run under the CPU profiler with
// observability on and give the layer shares and attribution.
func (b *bench) tracedRun(ctx context.Context, stdout io.Writer) {
	var (
		plainWall, tracedWall, allocs, gcs, busy []float64
		cellWalls                                []float64
		layerNs                                  = map[string]int64{}
		plain, traced                            []camps.Results
		nextNanos, nextCalls                     int64
	)
	start := time.Now()
	for n := 0; b.more(start, n, last(plainWall)+last(tracedWall)); n++ {
		var op opResult
		var err error
		c := measure(func() { op, err = runOp(ctx, b.w, b.seed, b.w.instr) })
		if b.verify("op", b.w.instr, op, err) {
			plain = op.cells
			plainWall = append(plainWall, c.wall)
			allocs = append(allocs, c.allocObjects)
			gcs = append(gcs, c.gcCycles)
		}

		var prof bytes.Buffer
		c = measure(func() {
			if err = pprof.StartCPUProfile(&prof); err != nil {
				return
			}
			op, err = runTracedOp(ctx, b.w, b.seed)
			pprof.StopCPUProfile()
		})
		if !b.verify("traced op", b.w.instr, op, err) {
			if ctx.Err() != nil {
				break
			}
			continue
		}
		ns, err := layerNanos(prof.Bytes())
		if err != nil {
			b.fail("profile", err)
			continue
		}
		for l, v := range ns {
			layerNs[l] += v
		}
		traced = op.cells
		tracedWall = append(tracedWall, c.wall)
		nextNanos += op.nextNanos
		nextCalls += op.nextCalls
		var sum float64
		for _, d := range op.cellWalls {
			cellWalls = append(cellWalls, d.Seconds())
			sum += d.Seconds()
		}
		if b.w.grid {
			busy = append(busy, sum/(parallelism*c.wall))
		}
	}
	if plain == nil || traced == nil {
		return
	}

	var total int64
	for _, v := range layerNs {
		total += v
	}
	for _, l := range layers {
		b.putValue(l+".host_share", ratio(float64(layerNs[l]), float64(total)))
	}
	var events uint64
	for _, r := range plain {
		events += r.EventsFired
	}
	wall := median(plainWall)
	b.putValue("sim.events", float64(events))
	b.putValue("sim.events_per_s", float64(events)/wall)
	b.putValue("sim.host_ns_per_event", wall*1e9/float64(events))
	for name, v := range modelCounts(plain, traced) {
		b.putValue(name, v)
	}
	b.put("runtime.allocs_per_op", allocs)
	b.put("runtime.gc_cycles", gcs)
	b.putValue("workload.next_ns", ratio(float64(nextNanos), float64(nextCalls)))
	b.putSamplesOrZero("exp.cell_wall_s", cellWalls)
	b.putSamplesOrZero("exp.worker_busy_frac", busy)
	b.putValue("obs.tracing_overhead_s", median(tracedWall)-wall)

	fmt.Fprintf(stdout, "traced wall %.4f s vs untraced %.4f s (overhead %.4f s, %d pairs)\n",
		median(tracedWall), wall, median(tracedWall)-wall, len(tracedWall))
	if other := layerNs["other"]; other > 0 {
		fmt.Fprintf(stdout, "other (root camps package or no layer on the stack): %.4f of host time\n", ratio(float64(other), float64(total)))
	}
}

// modelCounts derives the per-layer model statistics: exact counts from
// the untraced cells, attribution and ledger verdicts from the traced
// ones (the digests already proved both simulated the same thing).
func modelCounts(plain, traced []camps.Results) map[string]float64 {
	m := map[string]float64{}
	var (
		bankAccesses, bufHits, bufDemand float64
		inserts, usedRows, linesUseful   float64
		firstUseSum, firstUseCount       float64
		p99s                             []float64
		linesPerRow                      = float64(camps.DefaultSystem().LinesPerRow())
	)
	for _, r := range plain {
		m["cache.l1_misses"] += float64(r.Caches.L1Misses)
		m["cache.l2_misses"] += float64(r.Caches.L2Misses)
		m["cache.l3_misses"] += float64(r.Caches.L3Misses)
		m["cache.mshr_coalesced"] += float64(r.MSHRCoalesced)
		m["cache.mshr_stalls"] += float64(r.MSHRStalls)
		m["vault.row_hits"] += float64(r.RowHits)
		m["vault.row_conflicts"] += float64(r.RowConflicts)
		m["vault.refreshes"] += float64(r.VaultStats.Refreshes.Value())
		m["prefetch.issued"] += float64(r.PrefetchesIssued)
		bankAccesses += float64(r.RowHits + r.RowMisses + r.RowConflicts)
		bufHits += float64(r.VaultStats.BufferHits.Value())
		bufDemand += float64(r.VaultStats.BufferHits.Value() + r.VaultStats.BufferMisses.Value())
		inserts += float64(r.BufferStats.Inserts)
		usedRows += float64(r.BufferStats.UsedRows)
		linesUseful += float64(r.BufferStats.LinesUseful)
		firstUseSum += r.BufferStats.FirstUseDelay.Sum()
		firstUseCount += float64(r.BufferStats.FirstUseDelay.Count())
		p99s = append(p99s, r.AMATp99ps/1000)
	}
	m["vault.conflict_rate"] = ratio(m["vault.row_conflicts"], bankAccesses)
	m["prefetch.row_accuracy"] = ratio(usedRows, inserts)
	m["prefetch.line_accuracy"] = ratio(linesUseful, inserts*linesPerRow)
	m["pfbuffer.hit_rate"] = ratio(bufHits, bufDemand)
	m["pfbuffer.first_use_ns"] = ratio(firstUseSum, firstUseCount) / 1000
	m["hmc.read_latency_p99_ns"] = median(p99s)

	causePs := map[string]float64{}
	var retired float64
	for _, r := range traced {
		a := r.Attribution
		if a == nil {
			continue
		}
		retired += float64(a.SpansRetired)
		for _, c := range a.Causes {
			causePs[c.Cause] += float64(c.TotalPs)
		}
		if l := a.Ledger; l != nil {
			m["prefetch.useful_timely"] += float64(l.UsefulTimely)
			m["prefetch.useful_late"] += float64(l.UsefulLate)
			m["prefetch.evicted_unused"] += float64(l.EvictedUnused)
		}
	}
	for metric, cause := range map[string]string{
		"vault.queue_ps":         "queue",
		"vault.bank_conflict_ps": "bank_conflict",
		"vault.refresh_stall_ps": "refresh_stall",
		"vault.service_ps":       "service",
		"hmc.link_ps":            "link",
		"hmc.xbar_ps":            "xbar",
	} {
		m[metric] = ratio(causePs[cause], retired)
	}
	return m
}

func (b *bench) unit(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (b *bench) put(name string, samples []float64) {
	if len(samples) == 0 {
		return
	}
	s := summarize(samples)
	b.set.Metrics[name] = metric{Value: s.Median, Unit: b.unit(name), Stats: &s, Samples: samples}
}

// putSamplesOrZero reports a layer the workload does not exercise as 0.
func (b *bench) putSamplesOrZero(name string, samples []float64) {
	if len(samples) == 0 {
		b.putValue(name, 0)
		return
	}
	b.put(name, samples)
}

func (b *bench) putValue(name string, v float64) {
	b.set.Metrics[name] = metric{Value: v, Unit: b.unit(name)}
}

// report prints the human-readable tables that precede the result line.
func (b *bench) report(stdout io.Writer) {
	fmt.Fprintf(stdout, "digest: sha256:%s\n", b.set.Digest)
	for _, e := range b.set.Errors {
		fmt.Fprintf(stdout, "FAILED %s\n", e)
	}
	defs := endToEnd
	if b.set.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%-26s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, d := range defs {
		m, ok := b.set.Metrics[d.name]
		if !ok {
			fmt.Fprintf(stdout, "%-26s %14s\n", d.name, "missing")
			continue
		}
		if s := m.Stats; s != nil {
			fmt.Fprintf(stdout, "%-26s %14.6g %14.6g %14.6g %4d  %s %.4g\n", d.name, s.Median, s.Q1, s.Q3, s.N, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(stdout, "%-26s %14.6g %14s %14s %4s  %s\n", d.name, m.Value, "", "", "", m.Unit)
		}
	}
}

// printResultLine writes the final machine-readable line and returns the
// exit code. A run with a missing metric is incorrect.
func printResultLine(stdout io.Writer, set resultSet) int {
	defs := endToEnd
	if set.Trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: set.Correct, Attempted: set.Attempted, Failed: set.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		m, ok := set.Metrics[d.name]
		if !ok {
			line.Correct = false
			continue
		}
		line.Metrics[d.name] = value{m.Value, m.Unit}
	}
	if line.Attempted == 0 {
		line.Attempted = 1
		line.Failed = 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}

// compareFiles prints the metric medians of two result sets side by
// side. Result sets from different hosts are never compared: the
// difference would measure the hardware, not the code.
func compareFiles(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "perfbench: -compare takes two result files")
		return 2
	}
	var sets [2]resultSet
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	if err := comparable(sets[0], sets[1]); err != nil {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %v\n", err)
		return 2
	}
	var names []string
	for n := range sets[0].Metrics {
		if _, ok := sets[1].Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s: %s (%s) vs %s (%s)\n", sets[0].Workload,
		paths[0], sets[0].Provenance.Commit, paths[1], sets[1].Provenance.Commit)
	for _, n := range names {
		a, b := sets[0].Metrics[n].Value, sets[1].Metrics[n].Value
		fmt.Fprintf(stdout, "%-26s %14.6g %14.6g %+8.2f%%\n", n, a, b, 100*ratio(b-a, a))
	}
	if sets[0].Digest != sets[1].Digest {
		fmt.Fprintln(stdout, "digests differ: simulated outputs changed")
	} else {
		fmt.Fprintln(stdout, "digests match: simulated outputs unchanged")
	}
	return 0
}

var errIncomparable = errors.New("result sets are not comparable")

func comparable(a, b resultSet) error {
	switch {
	case a.Provenance.hostFingerprint() != b.Provenance.hostFingerprint():
		return fmt.Errorf("%w: host fingerprints differ (%s vs %s)", errIncomparable,
			a.Provenance.hostFingerprint(), b.Provenance.hostFingerprint())
	case a.Workload != b.Workload || a.Trace != b.Trace || a.Provenance.Seed != b.Provenance.Seed:
		return fmt.Errorf("%w: workload, trace mode or seed differ", errIncomparable)
	}
	return nil
}

func last(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the resident high-water mark (VmHWM) in MB, or the
// process's peak from getrusage where /proc is unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}
