// Command reprolint statically enforces three of the repository's hot-path
// contracts: pool pairing (poolcheck), lock discipline in the serving path
// (locksafe) and taskrt group hygiene (taskdiscipline). Allocation freedom
// is measured at run time instead, by the ZeroAllocs tests.
//
// It runs two ways:
//
//	reprolint ./...                       # standalone, loads from source
//	go vet -vettool=$(pwd)/reprolint ./...  # unitchecker protocol
//
// Standalone mode typechecks the whole dependency closure from source and
// needs nothing but the go tool. Vettool mode speaks cmd/go's unit protocol
// — a -V=full version handshake for the build cache, one vet.cfg JSON file
// per package, gc export data for imports, and vetx fact files carrying
// //repro:returns-pooled annotations between packages — so results are
// incremental and cached like the built-in vet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"hash/fnv"
	"io"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reprolint: ")
	vFlag := flag.String("V", "", "print version and exit (the go command passes -V=full)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON (go vet protocol)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: reprolint [package pattern ...]\n   or: go vet -vettool=$(command -v reprolint) ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *vFlag != "":
		// The output is cmd/go's cache key for vet results: mix in a hash of
		// the binary so a rebuilt reprolint invalidates stale verdicts.
		fmt.Printf("reprolint version devel buildID=%s\n", selfID())
		return
	case *flagsFlag:
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVetUnit(args[0])
		return
	}
	runStandalone(args)
}

// selfID hashes the executable for the -V=full handshake.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runStandalone loads the named patterns (default ./...) from source, builds
// the annotation index over the whole closure and reports diagnostics for
// the named packages.
func runStandalone(patterns []string) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := analysis.Load(".", patterns)
	if err != nil {
		log.Fatal(err)
	}
	ix := analysis.BuildIndex(pkgs)
	bad := false
	for _, p := range pkgs {
		if !p.Target || p.Pkg == nil {
			continue
		}
		diags, err := analysis.RunAnalyzers(analysis.All(), fset, p.Files, p.Pkg, p.Info, ix)
		if err != nil {
			log.Fatalf("%s: %v", p.Path, err)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

// vetConfig is the vet.cfg JSON cmd/go hands the tool for one package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetxFacts is reprolint's fact file format: the pooled-constructor
// annotations a package exports to its dependents.
type vetxFacts struct {
	Pooled map[string]string `json:"pooled,omitempty"`
}

func runVetUnit(cfgPath string) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgPath, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeFacts(cfg, analysis.NewIndex())
				return
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	// Imports resolve through the compiler's export data, exactly as the
	// compiler itself saw them.
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(path)
	})

	info := analysis.NewTypesInfo()
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeFacts(cfg, analysis.NewIndex())
			return
		}
		log.Fatalf("typechecking %s: %v", cfg.ImportPath, err)
	}

	// Index: dependency facts first, then this package's own annotations, so
	// the written vetx is the transitive closure.
	ix := analysis.NewIndex()
	for _, vetxFile := range cfg.PackageVetx {
		fdata, err := os.ReadFile(vetxFile)
		if err != nil || len(fdata) == 0 {
			continue
		}
		var facts vetxFacts
		if json.Unmarshal(fdata, &facts) == nil {
			ix.AddFacts(facts.Pooled)
		}
	}
	ix.AddPackage(cfg.ImportPath, files)
	writeFacts(cfg, ix)

	if cfg.VetxOnly {
		return
	}
	diags, err := analysis.RunAnalyzers(analysis.All(), fset, files, pkg, info, ix)
	if err != nil {
		log.Fatalf("%s: %v", cfg.ImportPath, err)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		os.Exit(2)
	}
}

// writeFacts persists the package's exported facts. cmd/go requires the vetx
// file to exist even when empty.
func writeFacts(cfg *vetConfig, ix *analysis.Index) {
	if cfg.VetxOutput == "" {
		return
	}
	out, err := json.Marshal(vetxFacts{Pooled: ix.Facts()})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(cfg.VetxOutput, out, 0o666); err != nil {
		log.Fatal(err)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
