package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// This file is the suite's stand-in for golang.org/x/tools/go/analysis/
// analysistest: fixture packages live under testdata/src/<name>/, carry
// // want "regexp" comments on the lines expected to produce diagnostics,
// and may import real repository packages (they are part of the module, so
// the loader resolves them like any other dependency).

// wantRe extracts the expectation clause of a comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// expectation is one // want clause.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// FixtureResult carries the diagnostics a fixture run produced, for tests
// that assert beyond the // want protocol.
type FixtureResult struct {
	Diags []Diagnostic
	Fset  *token.FileSet
}

// repoClosure is loaded once per test binary: the repository's own packages
// plus their whole dependency closure, which covers everything a fixture may
// import. Loading per-fixture import sets instead would repeat the ~15s
// stdlib typecheck for every distinct set.
var repoClosure struct {
	once sync.Once
	c    *depClosure
}

type depClosure struct {
	pkgs []*Package
	fset *token.FileSet
	err  error
}

// loadDeps returns the shared repo closure and verifies it satisfies the
// fixture's imports.
func loadDeps(imports []string) (*depClosure, error) {
	repoClosure.once.Do(func() {
		c := &depClosure{}
		c.pkgs, c.fset, c.err = Load("../..", []string{"./..."})
		repoClosure.c = c
	})
	c := repoClosure.c
	if c.err != nil {
		return c, c.err
	}
	have := map[string]bool{}
	for _, p := range c.pkgs {
		have[p.Path] = true
	}
	for _, imp := range imports {
		if !have[imp] {
			return c, fmt.Errorf("fixture import %q is not in the repository dependency closure", imp)
		}
	}
	return c, nil
}

// errorfer is the subset of *testing.T the harness needs (keeps this file
// compilable outside tests).
type errorfer interface {
	Errorf(format string, args ...any)
	Helper()
}

// RunFixture runs one analyzer over the fixture package at
// testdata/src/<name> and checks its diagnostics against the // want
// comments. It returns the diagnostics for additional assertions.
func RunFixture(t errorfer, a *Analyzer, name string) *FixtureResult {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	res, err := runFixturePkg(a, dir)
	if err != nil {
		t.Errorf("fixture %s: %v", name, err)
		return &FixtureResult{}
	}

	// Gather expectations from the fixture sources.
	var wants []*expectation
	for _, f := range res.files {
		fname := res.fset.Position(f.Package).Filename
		for _, cg := range f.Comments {
			for _, cmt := range cg.List {
				m := wantRe.FindStringSubmatch(cmt.Text)
				if m == nil {
					continue
				}
				line := res.fset.Position(cmt.Pos()).Line
				for _, lit := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", fname, line, lit, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", fname, line, pat, err)
						continue
					}
					wants = append(wants, &expectation{file: fname, line: line, re: re})
				}
			}
		}
	}

	// Match diagnostics to expectations by (file, line, regexp).
	for _, d := range res.diags {
		p := res.fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.used && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return &FixtureResult{Diags: res.diags, Fset: res.fset}
}

type fixtureRun struct {
	files []*ast.File
	fset  *token.FileSet
	diags []Diagnostic
}

// runFixturePkg parses, typechecks and analyzes one fixture directory.
func runFixturePkg(a *Analyzer, dir string) (*fixtureRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	// First parse pass just to learn the import set.
	probeFset := token.NewFileSet()
	imports := map[string]bool{}
	for _, p := range paths {
		f, err := parser.ParseFile(probeFset, p, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			imports[path] = true
		}
	}
	var importList []string
	for p := range imports {
		importList = append(importList, p)
	}
	closure, err := loadDeps(importList)
	if err != nil {
		return nil, err
	}
	fset := closure.fset

	run := &fixtureRun{fset: fset}
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		run.files = append(run.files, f)
	}

	byPath := map[string]*Package{}
	for _, p := range closure.pkgs {
		byPath[p.Path] = p
	}
	pkgPath := "fixture/" + filepath.Base(dir)
	info := newInfo()
	conf := types.Config{
		Importer: mapImporter{byPath: byPath},
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(pkgPath, fset, run.files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture: %v", err)
	}

	ix := BuildIndex(closure.pkgs)
	ix.AddPackage(pkgPath, run.files)

	run.diags, err = RunAnalyzers([]*Analyzer{a}, fset, run.files, pkg, info, ix)
	return run, err
}

// splitQuoted extracts the Go string literals ("..." or `...`) of a want
// clause.
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		switch s[0] {
		case '"':
			i := 1
			for i < len(s) && s[i] != '"' {
				if s[i] == '\\' {
					i++
				}
				i++
			}
			if i >= len(s) {
				return out
			}
			out = append(out, s[:i+1])
			s = strings.TrimSpace(s[i+1:])
		case '`':
			i := strings.Index(s[1:], "`")
			if i < 0 {
				return out
			}
			out = append(out, s[:i+2])
			s = strings.TrimSpace(s[i+2:])
		default:
			return out
		}
	}
	return out
}
