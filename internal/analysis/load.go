package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// Package is one loaded, parsed and typechecked package.
type Package struct {
	Path   string
	Dir    string
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Target bool // named by the load patterns (vs. pulled in as a dependency)
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists patterns with the go tool, parses every package in the
// dependency closure and typechecks them in dependency order — the
// standard-library-only replacement for go/packages. CGO is disabled so the
// pure-Go variants of the few cgo-capable std packages are selected and
// everything typechecks from source.
func Load(dir string, patterns []string) ([]*Package, *token.FileSet, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()

	// Parse the whole closure up front with one worker per CPU: the read+parse
	// stage is embarrassingly parallel and dominates wall time, while the
	// typecheck pass below must follow dependency order anyway.
	type parsed struct {
		files []*ast.File
		errs  []error
	}
	parsedByPath := make(map[string]*parsed, len(listed))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4*runtime.GOMAXPROCS(0))
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" || lp.Error != nil {
			continue
		}
		pr := &parsed{files: make([]*ast.File, len(lp.GoFiles)), errs: make([]error, len(lp.GoFiles))}
		parsedByPath[lp.ImportPath] = pr
		for i, name := range lp.GoFiles {
			i, path := i, filepath.Join(lp.Dir, name)
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					pr.errs[i] = fmt.Errorf("parsing %s: %v", path, err)
				}
				pr.files[i] = f
			}()
		}
	}
	wg.Wait()

	byPath := map[string]*Package{}
	var pkgs []*Package
	// -deps prints dependencies before dependents, so a single in-order pass
	// can typecheck with a map-backed importer.
	imp := mapImporter{byPath: byPath}
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			byPath["unsafe"] = &Package{Path: "unsafe", Pkg: types.Unsafe}
			continue
		}
		if lp.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pr := parsedByPath[lp.ImportPath]
		for _, e := range pr.errs {
			if e != nil {
				return nil, nil, e
			}
		}
		p := &Package{Path: lp.ImportPath, Dir: lp.Dir, Target: !lp.DepOnly, Files: pr.files}
		// ImportMap rewrites vendored or otherwise aliased import paths.
		imp.importMap = lp.ImportMap
		p.Info = newInfo()
		conf := types.Config{
			Importer: imp,
			Sizes:    types.SizesFor("gc", "amd64"),
			// Assembly-backed functions (linalg kernels, std internals) have
			// no Go bodies; that is fine. Hard errors surface through err.
		}
		p.Pkg, err = conf.Check(lp.ImportPath, fset, p.Files, p.Info)
		if err != nil {
			return nil, nil, fmt.Errorf("typechecking %s: %v", lp.ImportPath, err)
		}
		byPath[lp.ImportPath] = p
		pkgs = append(pkgs, p)
	}
	return pkgs, fset, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers consult —
// for drivers (the vettool) that typecheck packages themselves.
func NewTypesInfo() *types.Info { return newInfo() }

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// mapImporter resolves imports from the already-typechecked closure.
type mapImporter struct {
	byPath    map[string]*Package
	importMap map[string]string
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if p, ok := m.byPath[path]; ok {
		return p.Pkg, nil
	}
	return nil, fmt.Errorf("package %q not in load closure", path)
}

// BuildIndex scans every loaded package for annotations.
func BuildIndex(pkgs []*Package) *Index {
	ix := NewIndex()
	for _, p := range pkgs {
		if p.Pkg == types.Unsafe {
			continue
		}
		ix.AddPackage(p.Path, p.Files)
	}
	return ix
}
