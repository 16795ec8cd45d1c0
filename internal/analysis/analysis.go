// Package analysis is the project's static-analysis suite: a small,
// dependency-free (stdlib-only) analogue of golang.org/x/tools/go/analysis
// plus three project-specific analyzers that turn the repository's unwritten
// hot-path contracts into compile-time checks:
//
//   - poolcheck: every linalg.GetMat/GetVec/GetInts/GetMatView acquisition is
//     released by the matching Put* on all paths (including error returns and
//     explicit panics), with double-put and use-after-put detection.
//   - locksafe: in the serving layer and the session factor cache, mutexes
//     are released on all paths and nothing blocking (channel operations,
//     time.Sleep, factorization) runs while a shard or cache mutex is held.
//   - taskdiscipline: every locally created taskrt.Group is waited on, and
//     its Err() is checked whenever SubmitErr was used.
//
// The suite runs through cmd/reprolint, either standalone (reprolint ./...)
// or as a go vet tool (go vet -vettool=$(which reprolint) ./...). The x/tools
// module is deliberately not used: the repository builds from the standard
// library alone, so the checker that gates CI must too.
//
// Allocation freedom of the warm query paths is not checked here: the
// ZeroAllocs tests measure it at run time, where the compiler's escape
// decisions are visible.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single package through its
// Pass and reports diagnostics; analyzers are stateless and safe to reuse
// across packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's syntax, types and the cross-package annotation
// index to an analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Index     *Index

	// Report records one diagnostic. The driver owns formatting and exit
	// status.
	Report func(d Diagnostic)

	analyzer *Analyzer
}

// Diagnostic is one finding, positioned in the fileset of the Pass.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf is the printf form of Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Poolcheck, Locksafe, Taskdiscipline}
}

// ByName returns the named analyzers, or an error naming the unknown one.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies every analyzer to one loaded package and returns the
// diagnostics sorted by position. Files named *_test.go are excluded up
// front: the contracts gate production paths, and tests intentionally poke
// at them (leaking on purpose, holding locks across channel waits).
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, idx *Index) ([]Diagnostic, error) {
	var nonTest []*ast.File
	for _, f := range files {
		name := fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		nonTest = append(nonTest, f)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Fset: fset, Files: nonTest, Pkg: pkg, TypesInfo: info, Index: idx,
			analyzer: a,
		}
		pass.Report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path(), err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// funcID returns the canonical cross-package identifier of a function or
// method object: "path.Name" for package functions, "path.(Recv).Name" for
// methods (pointer receivers stripped, so value and pointer methods share an
// ID), and "path.(Iface).Name" for interface methods.
func funcID(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		if fn.Pkg() == nil { // error.Error, unsafe builtins
			return fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	name := "?"
	switch t := rt.(type) {
	case *types.Named:
		name = t.Obj().Name()
	case *types.Interface:
		// Method expression through an unnamed interface: fall back to the
		// method's own package qualification below.
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	return pkg + ".(" + name + ")." + fn.Name()
}

// displayName strips the module prefix for readability in messages.
func displayName(id string) string {
	return strings.TrimPrefix(id, "repro/")
}
