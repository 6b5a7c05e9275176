package lint

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestSummarizeDeterministic: the facts of a program are a pure function
// of its sources, so two Summarize runs over the same program agree.
func TestSummarizeDeterministic(t *testing.T) {
	prog := loadTestProgram(t, filepath.Join("testdata", "prog", "detflow", "src"))
	s1 := Summarize(prog)
	s2 := Summarize(prog)
	if len(s1.ByPkg) != len(prog.Pkgs) {
		t.Fatalf("summarized %d packages, want %d", len(s1.ByPkg), len(prog.Pkgs))
	}
	if !reflect.DeepEqual(s1.ByPkg, s2.ByPkg) {
		t.Error("two Summarize runs over the same program differ")
	}
}
