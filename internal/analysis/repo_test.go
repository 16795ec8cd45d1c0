package analysis

import (
	"testing"
)

// TestRepoClean runs the full analyzer suite over every package in the
// repository — the same gate cmd/reprolint enforces in CI — so a
// contract-violating change fails `go test` even without the vettool.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo load is slow; skipped in -short mode")
	}
	closure, err := loadDeps(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, fset := closure.pkgs, closure.fset
	ix := BuildIndex(pkgs)
	for _, p := range pkgs {
		if !p.Target || p.Pkg == nil {
			continue
		}
		diags, err := RunAnalyzers(All(), fset, p.Files, p.Pkg, p.Info, ix)
		if err != nil {
			t.Fatalf("%s: %v", p.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s: %s", d.Analyzer, fset.Position(d.Pos), d.Message)
		}
	}
}
