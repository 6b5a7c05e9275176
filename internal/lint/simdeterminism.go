package lint

import (
	"go/ast"
	"go/types"
)

// simPackages are the packages whose code runs inside (or feeds) the
// discrete-event simulation. The event engine owns time there — a wall
// clock or a process-global RNG would decorrelate runs that must be
// bit-identical. internal/exp is deliberately absent: its wall-clock
// timeouts and retry backoffs are orchestration, not simulation.
var simPackages = map[string]bool{
	"camps/internal/sim":      true,
	"camps/internal/dram":     true,
	"camps/internal/vault":    true,
	"camps/internal/hmc":      true,
	"camps/internal/cache":    true,
	"camps/internal/cpu":      true,
	"camps/internal/prefetch": true,
	"camps/internal/pfbuffer": true,
	"camps/internal/trace":    true,
	"camps/internal/stats":    true,
	"camps/internal/report":   true,
	"camps/internal/fault":    true,
}

// wallClockFuncs are the package-level time functions that read or react
// to the wall clock. Pure time arithmetic (time.Duration constants,
// Time.Sub on stored values) is allowed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly-seeded generator instead of touching the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// SimDeterminism forbids wall-clock reads, global math/rand use and
// goroutine launches in simulation packages. A simulation runs on one
// goroutine, the event engine's; a `go` statement would make results
// depend on the Go scheduler.
var SimDeterminism = &Analyzer{
	Name:  "simdeterminism",
	Doc:   "forbid time.Now/time.Since, global math/rand and go statements in simulation packages",
	Allow: "wallclock",
	Run:   runSimDeterminism,
}

func runSimDeterminism(pass *Pass) {
	if !simPackages[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement in simulation package %s: the event engine runs a simulation on one goroutine; launching another makes results depend on the scheduler",
					pass.Pkg.Path())
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (t.Sub, r.Intn on an owned *rand.Rand) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s in simulation package %s: wall-clock reads break run-to-run determinism; use sim.Engine time, or //lint:allow-wallclock <reason>",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global %s.%s in simulation package %s: process-global RNG state breaks run-to-run determinism; use trace.RNG or an explicitly seeded rand.New",
						fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
}
