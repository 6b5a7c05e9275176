package lint

import (
	"sort"
	"strings"
)

// runtimePkgs are the packages whose exported functions run during a
// simulation or while serving campaigns: the simulation set plus the
// public root package and the orchestration layers. Anything one of
// these can reach executes after init.
var runtimePkgs = func() map[string]bool {
	m := map[string]bool{
		"camps":                  true,
		"camps/internal/exp":     true,
		"camps/internal/harness": true,
	}
	for p := range simPackages {
		m[p] = true
	}
	return m
}()

// vaultPkg is the one package whose every function, exported or not, is
// an entry point. Vault controllers run as 32 symmetric instances whose
// unexported methods are driven by engine callbacks (schedule, refresh,
// fetch completion) rather than by exported calls, so an exported-only
// entry set would miss most of what a vault executes.
const vaultPkg = "camps/internal/vault"

// GlobalMut enforces the init-only write discipline for mutable
// package-level state (the prefetch registry being the canonical case,
// DESIGN.md §8): package-level variables may be written during init —
// including the Register-at-init idiom, where an exported Register*
// function is documented init-only — but never from a simulation or
// serving path. The analyzer walks the call graph from every exported
// function of the runtime packages and every function of the vault
// package (excluding Register* and init) and flags every package-level
// write it can reach, naming the path.
var GlobalMut = &Analyzer{
	Name:       "globalmut",
	Doc:        "forbid package-level writes reachable from simulation or serving paths (init/Register-at-init only)",
	Allow:      "globalmut",
	RunProgram: runGlobalMut,
}

// initOnlySym reports whether sym is an init-context function: an init
// function or a Register*-named registration entry point (documented
// init-only; reaching one from a runtime path is exactly what this
// analyzer exists to flag, so they are excluded only from the entry
// set, not from the walk).
func initOnlySym(sym string) bool {
	base := symBase(sym)
	if i := strings.LastIndex(base, ")."); i >= 0 {
		base = base[i+2:]
	}
	return strings.HasPrefix(base, "Register") || strings.HasPrefix(base, "init@")
}

func runGlobalMut(pass *ProgramPass) {
	var entries []string
	for _, pkg := range pass.Prog.Pkgs {
		if !runtimePkgs[pkg.Path] {
			continue
		}
		ps := pass.Sums.ByPkg[pkg.Path]
		for i := range ps.Funcs {
			fn := &ps.Funcs[i]
			if (fn.Exported || pkg.Path == vaultPkg) && !fn.IsInit && !initOnlySym(fn.Sym) {
				entries = append(entries, fn.Sym)
			}
		}
	}
	reached := pass.Graph.Reachable(entries, nil)

	syms := make([]string, 0, len(reached))
	for sym := range reached {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	for _, sym := range syms {
		fn := pass.Sums.Func(sym)
		if fn == nil || fn.IsInit {
			continue
		}
		for _, w := range fn.Writes {
			pass.Report(w.Pos,
				"package-level %s written outside init: %s is reachable from runtime path %s; mutable globals may only be written during init or Register-at-init (or //lint:allow-globalmut <reason>)",
				shortSym(w.Target), shortSym(sym), pathTo(reached, sym))
		}
	}
}
