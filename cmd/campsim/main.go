// Command campsim runs one workload mix under one prefetching scheme and
// prints detailed statistics: per-core IPC and MPKI, row-buffer behaviour,
// prefetch-buffer effectiveness, AMAT, and the energy breakdown. With
// -metrics-out / -trace-out the run also produces machine-readable
// telemetry (epoch metric snapshots as JSONL, simulator events as a
// Chrome trace_event document); see docs/OBSERVABILITY.md.
//
// Usage:
//
//	campsim -mix HM1 -scheme CAMPS-MOD [-instr 400000] [-warmup 30000] [-seed 1]
//	campsim -mix HM1 -metrics-out m.jsonl -trace-out t.json -epoch-table
//	campsim -faults linkcrc=1e-4,stall=5e-5 -check    # degraded memory
//	campsim -trace a.trace,b.trace,...                # replay file traces
//	campsim -pprof localhost:6060 ...   # live pprof + runtime metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"camps"
	"camps/internal/cliutil"
	"camps/internal/exp"
	"camps/internal/obs"
	"camps/internal/report"
	"camps/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("campsim: ")

	var (
		mixID      = flag.String("mix", "HM1", "workload mix (HM1-4, LM1-4, MX1-4, DC1-2)")
		scheme     = flag.String("scheme", "CAMPS-MOD", "prefetching scheme ("+strings.Join(camps.SchemeNames(), ", ")+")")
		instr      = flag.Uint64("instr", 400_000, "measured instructions per core")
		warmup     = flag.Uint64("warmup", 50_000, "cache-warmup references per core")
		seed       = flag.Uint64("seed", 1, "trace seed")
		vaults     = flag.Bool("vaults", false, "print the per-vault load table")
		metricsOut = flag.String("metrics-out", "", "write epoch metric snapshots as JSONL to this file")
		traceOut   = flag.String("trace-out", "", "write simulator events to this file (Chrome trace_event JSON; a .jsonl extension selects JSONL)")
		traceBuf   = flag.Int("trace-buf", obs.DefaultTraceCap, "event ring-buffer capacity (oldest events overwritten)")
		epochCyc   = flag.Int64("epoch", 0, "CPU cycles between metric snapshots (0 = default 5us of simulated time)")
		epochTable = flag.Bool("epoch-table", false, "print the per-epoch conflict/prefetch table")
		attr       = flag.Bool("attr", false, "print the request-latency attribution and prefetch-efficacy tables")
		attrOut    = flag.String("attr-out", "", "write the attribution summary as JSON to this file (implies attribution)")
		serveAddr  = flag.String("serve-metrics", "", "stream epoch metric snapshots as server-sent events on this address (e.g. localhost:6061)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none); the simulation halts within one epoch of expiry")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and runtime metrics on this address (e.g. localhost:6060)")
		faultSpec  = flag.String("faults", "", "deterministic fault-injection spec; "+camps.FaultGrammar())
		check      = flag.Bool("check", false, "run the epoch invariant checker (abort with a typed error on violation)")
		traceIn    = flag.String("trace", "", "comma-separated per-core trace files replayed instead of -mix (one path serves every core)")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cliutil.PrintVersion(os.Stdout, "campsim")
		return
	}
	if *pprofAddr != "" {
		cliutil.StartPprof(*pprofAddr, log.Printf)
	}

	mix, err := camps.AnyMixByID(*mixID)
	if err != nil {
		log.Fatal(err)
	}
	s, err := camps.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
	}

	sys := camps.DefaultSystem()
	rc := camps.RunConfig{
		System:          sys,
		Scheme:          s,
		Mix:             mix,
		Seed:            *seed,
		WarmupRefs:      *warmup,
		MeasureInstr:    *instr,
		CheckInvariants: *check,
	}
	if *faultSpec != "" {
		spec, err := camps.ParseFaultSpec(*faultSpec)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		rc.Faults = spec
	}
	benchNames := mix.Benchmarks
	if *traceIn != "" {
		readers, names, closeAll, err := openTraces(*traceIn, sys.Processor.Cores)
		if err != nil {
			log.Fatalf("-trace: %v", err)
		}
		defer closeAll()
		rc.Readers = readers
		rc.Mix = camps.Mix{}
		benchNames = names
	}
	var suite *obs.Suite
	if *metricsOut != "" || *traceOut != "" || *epochTable || *attr || *attrOut != "" || *serveAddr != "" {
		suite = obs.NewSuite(*traceBuf)
		rc.Obs = suite
		if *epochCyc > 0 {
			rc.EpochInterval = sys.CPUClock().Cycles(*epochCyc)
		}
		if *attr || *attrOut != "" {
			suite.EnableAttribution(s.String())
		}
		if *serveAddr != "" {
			if srv, ok := obs.StartStream(*serveAddr, log.Printf); ok {
				suite.OnSnapshot = srv.Publish
			}
		}
	}

	// Ctrl-C (or -timeout expiry) cancels the run: the engine halts within
	// one epoch of simulated time instead of draining the whole simulation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := camps.RunContext(ctx, rc)
	if err != nil {
		log.Fatal(err)
	}
	writeTelemetry(suite, *metricsOut, *traceOut)
	if suite != nil && suite.Tracer.Dropped() > 0 {
		log.Printf("warning: event ring overwrote %d trace events; raise -trace-buf for full coverage",
			suite.Tracer.Dropped())
	}
	if *attrOut != "" {
		writeAttribution(*attrOut, res)
	}
	if *epochTable {
		t := report.Timeseries(suite.Snapshots(), []string{
			"vault.row_conflicts", "vault.row_hits", "vault.buffer_hits",
			"vault.fetches_issued", "mshr.stalls",
		}, true)
		fmt.Println(t.String())
	}

	source := "mix " + mix.ID
	if *traceIn != "" {
		source = "trace replay"
	}
	w := os.Stdout
	fmt.Fprintf(w, "%s under %v (seed %d, %d instr/core)\n\n", source, s, *seed, *instr)

	fmt.Fprintln(w, "per-core performance:")
	for core, ipc := range res.IPC {
		fmt.Fprintf(w, "  core %d  %-9s IPC %.4f  MPKI %7.2f\n",
			core, benchNames[core], ipc, res.MPKI[core])
	}
	fmt.Fprintf(w, "  geomean IPC %.4f\n\n", res.GeoMeanIPC)

	vs := &res.VaultStats
	demand := vs.BufferHits.Value() + vs.BufferMisses.Value()
	fmt.Fprintln(w, "memory system:")
	fmt.Fprintf(w, "  demand requests      %12d (%d reads, %d writes)\n",
		demand, vs.DemandReads.Value(), vs.DemandWrites.Value())
	fmt.Fprintf(w, "  prefetch-buffer hits %12d (%.1f%% of demand)\n",
		vs.BufferHits.Value(), res.BufferHitRate*100)
	fmt.Fprintf(w, "  row-buffer outcomes  %12d hits / %d misses / %d conflicts\n",
		res.RowHits, res.RowMisses, res.RowConflicts)
	fmt.Fprintf(w, "  conflict rate        %12.2f%% of bank accesses\n", res.RowConflictRate*100)
	fmt.Fprintf(w, "  mean read latency    %12.1f ns (p50 %.0f / p95 %.0f / p99 %.0f)\n",
		res.AMATps/1000, res.AMATp50ps/1000, res.AMATp95ps/1000, res.AMATp99ps/1000)
	fmt.Fprintf(w, "  simulated time       %12.3f us\n\n", float64(res.ElapsedSim)/1e6)

	fmt.Fprintln(w, "prefetching:")
	fmt.Fprintf(w, "  row fetches issued   %12d\n", res.PrefetchesIssued)
	fmt.Fprintf(w, "  row accuracy         %12.1f%%\n", res.PrefetchAccuracy*100)
	fmt.Fprintf(w, "  line accuracy        %12.1f%%\n", res.LineAccuracy*100)
	fmt.Fprintf(w, "  timeliness           %12.1f ns to first use\n", res.PrefetchTimeliness/1000)
	fmt.Fprintf(w, "  buffer evictions     %12d (%d written back)\n",
		res.BufferStats.Evictions, vs.RowWritebacks.Value())

	if fr := report.FaultReport(res.Faults); fr != "" {
		fmt.Fprintf(w, "\n%s", fr)
	}

	if *attr {
		if ar := report.Attribution(res.Attribution); ar != "" {
			fmt.Fprintf(w, "\n%s", ar)
		}
	}

	if *vaults {
		fmt.Fprintln(w, "\nper-vault load:")
		fmt.Fprintf(w, "  %5s %10s %10s %10s %10s %10s\n",
			"vault", "demand", "bufHits", "conflicts", "fetches", "refreshes")
		var maxD, minD uint64
		for i, v := range res.PerVault {
			if i == 0 || v.Demand > maxD {
				maxD = v.Demand
			}
			if i == 0 || v.Demand < minD {
				minD = v.Demand
			}
			fmt.Fprintf(w, "  %5d %10d %10d %10d %10d %10d\n",
				i, v.Demand, v.BufferHits, v.Conflicts, v.Fetches, v.Refreshes)
		}
		if minD > 0 {
			fmt.Fprintf(w, "  demand imbalance (max/min): %.2fx\n", float64(maxD)/float64(minD))
		}
	}

	e := res.Energy
	fmt.Fprintln(w, "\nenergy (mJ):")
	for _, part := range []struct {
		name string
		pj   float64
	}{
		{"activate", e.Activate}, {"precharge", e.Precharge},
		{"read", e.Read}, {"write", e.Write},
		{"row fetch", e.RowFetch}, {"row store", e.RowStore},
		{"refresh", e.Refresh}, {"pf buffer", e.Buffer},
		{"links", e.Link}, {"background", e.Background},
	} {
		fmt.Fprintf(w, "  %-10s %10.4f\n", part.name, part.pj/1e9)
	}
	fmt.Fprintf(w, "  %-10s %10.4f\n", "total", e.Total()/1e9)
}

// writeAttribution exports the run's attribution summary (per-cause
// latency breakdown, prefetch efficacy ledger, per-vault conflict heat)
// as indented JSON, atomically like the other telemetry exports.
func writeAttribution(path string, res camps.Results) {
	if res.Attribution == nil {
		log.Printf("-attr-out: run produced no attribution summary")
		return
	}
	data, err := json.MarshalIndent(res.Attribution, "", "  ")
	if err != nil {
		log.Fatalf("attribution export: %v", err)
	}
	if err := exp.AtomicWriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote attribution summary to %s\n", path)
}

// openTraces opens the comma-separated trace paths as per-core readers.
// One path is opened once per core (each core gets an independent file
// handle, so every stream starts at the beginning); otherwise the count
// must match the core count exactly.
func openTraces(arg string, cores int) (readers []trace.Reader, names []string, closeAll func(), err error) {
	paths := strings.Split(arg, ",")
	for i := range paths {
		paths[i] = strings.TrimSpace(paths[i])
	}
	switch {
	case len(paths) == 1:
		p := paths[0]
		paths = make([]string, cores)
		for i := range paths {
			paths[i] = p
		}
	case len(paths) != cores:
		return nil, nil, nil, fmt.Errorf("%d trace files for %d cores (give one, or one per core)", len(paths), cores)
	}

	var files []*os.File
	closeAll = func() {
		for _, f := range files {
			f.Close()
		}
	}
	for core, p := range paths {
		f, ferr := os.Open(p)
		if ferr != nil {
			closeAll()
			return nil, nil, nil, ferr
		}
		files = append(files, f)
		r, rerr := trace.OpenReader(f) // sniffs fixed-v1 vs compact-v2, rejects foreign files
		if rerr != nil {
			closeAll()
			return nil, nil, nil, fmt.Errorf("core %d trace %s: %w", core, p, rerr)
		}
		readers = append(readers, r)
		names = append(names, filepath.Base(p))
	}
	return readers, names, closeAll, nil
}

// writeTelemetry exports the run's observability data: metric snapshots
// as JSONL and the event trace as Chrome trace_event JSON (or JSONL when
// the trace path ends in .jsonl). Both land atomically (write-temp +
// fsync + rename), so a crash mid-export never leaves a torn file where
// a previous run's good one stood.
func writeTelemetry(suite *obs.Suite, metricsPath, tracePath string) {
	if suite == nil {
		return
	}
	if metricsPath != "" {
		var buf bytes.Buffer
		if err := suite.WriteMetrics(&buf); err != nil {
			log.Fatalf("metrics export: %v", err)
		}
		if err := exp.AtomicWriteFile(metricsPath, buf.Bytes(), 0o644); err != nil {
			log.Fatalf("write %s: %v", metricsPath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metric snapshots to %s\n", len(suite.Snapshots()), metricsPath)
	}
	if tracePath != "" {
		var buf bytes.Buffer
		var err error
		if strings.HasSuffix(tracePath, ".jsonl") {
			err = suite.Tracer.WriteJSONL(&buf)
		} else {
			err = suite.Tracer.WriteChromeTrace(&buf)
		}
		if err != nil {
			log.Fatalf("trace export: %v", err)
		}
		if err := exp.AtomicWriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			log.Fatalf("write %s: %v", tracePath, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events (%d emitted, %d overwritten) to %s\n",
			suite.Tracer.Len(), suite.Tracer.Total(), suite.Tracer.Dropped(), tracePath)
	}
}
