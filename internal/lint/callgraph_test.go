package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraphEngineDispatch pins the interface-dispatch resolution on
// the real tree: a vault controller's call to Engine.OnDemandServed
// must fan out to every registered engine implementation, or globalmut
// and detflow would silently skip the prefetcher zoo.
func TestCallGraphEngineDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module call graph in -short mode")
	}
	prog, err := LoadProgram(filepath.Join("..", ".."), []string{"./internal/vault"})
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(prog, nil)
	g := BuildCallGraph(prog, sums)

	const method = "camps/internal/prefetch.(Engine).OnDemandServed"
	impls := g.Impls(method)
	for _, engine := range []string{"(campsEngine)", "(baseEngine)", "(noneEngine)", "(hybridEngine)"} {
		found := false
		for _, impl := range impls {
			if strings.Contains(impl, engine) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Impls(%s) missing %s implementation; got %v", method, engine, impls)
		}
	}

	// And the vault package actually carries an interface call edge to
	// that method, so the dispatch is reachable from vault entry points.
	vault := sums.ByPkg["camps/internal/vault"]
	if vault == nil {
		t.Fatal("no summary for camps/internal/vault")
	}
	edge := false
	for i := range vault.Funcs {
		for _, c := range vault.Funcs[i].Calls {
			if c.Callee == method && c.Iface {
				edge = true
			}
		}
	}
	if !edge {
		t.Errorf("no interface call edge from vault to %s", method)
	}
}

// TestReachableStopPrunesButReaches pins Reachable's boundary
// semantics: a stopped symbol is reached (its own facts count) but its
// callees are not followed.
func TestReachableStopPrunesButReaches(t *testing.T) {
	prog := loadTestProgram(t, filepath.Join("testdata", "prog", "globalmut", "src"))
	sums := Summarize(prog, nil)
	g := BuildCallGraph(prog, sums)

	entries := []string{"camps/internal/sim.Run", "camps/internal/vault.(Controller).Submit"}
	reached := g.Reachable(entries, func(sym string) bool {
		return symPkg(sym) == "camps/internal/sim"
	})
	if _, ok := reached["camps/internal/sim.Run"]; !ok {
		t.Error("stopped symbol sim.Run should still be reached")
	}
	if _, ok := reached["camps/internal/knob.Set"]; ok {
		t.Error("knob.Set is called only from the stopped sim.Run and should not be reached")
	}
	if _, ok := reached["camps/internal/tally.Bump"]; !ok {
		t.Error("tally.Bump should be reached through Submit")
	}
	if got := pathTo(reached, "camps/internal/tally.Bump"); got != "vault.(Controller).Submit → tally.Bump" {
		t.Errorf("pathTo = %q", got)
	}
}
