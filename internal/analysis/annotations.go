package analysis

import (
	"go/ast"
	"strings"
)

// PooledMarker ("//repro:returns-pooled <mat|vec|ints|view|gen|mat32>") on a
// constructor marks its result as a pool acquisition, so poolcheck tracks
// call sites of wrappers like gaussMat the same way it tracks GetMat. The
// marker is an ordinary comment, so the contract survives gofmt and shows up
// in godoc.
const PooledMarker = "//repro:returns-pooled"

// Index is the cross-package annotation database poolcheck consults: the
// pooled-object constructors by function ID (see funcID). The driver builds
// it over every loaded package in standalone mode; in vettool mode each
// package's entries travel between processes as facts (see cmd/reprolint).
type Index struct {
	// Pooled maps funcIDs annotated //repro:returns-pooled to the pool kind
	// their result belongs to.
	Pooled map[string]poolKind
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{Pooled: map[string]poolKind{}}
}

// ReturnsPooled reports whether id is an annotated pooled-object constructor
// and, if so, of which kind.
func (ix *Index) ReturnsPooled(id string) (poolKind, bool) {
	k, ok := ix.Pooled[id]
	return k, ok
}

// parsePoolKind maps a marker argument to a kind.
func parsePoolKind(s string) (poolKind, bool) {
	switch s {
	case "mat":
		return kMat, true
	case "vec":
		return kVec, true
	case "ints":
		return kInts, true
	case "view":
		return kView, true
	case "gen":
		return kGen, true
	case "mat32":
		return kMat32, true
	}
	return 0, false
}

// AddFacts merges a fact set imported from a dependency's vetx file.
func (ix *Index) AddFacts(pooled map[string]string) {
	for id, kind := range pooled {
		if k, ok := parsePoolKind(kind); ok {
			if _, have := ix.Pooled[id]; !have {
				ix.Pooled[id] = k
			}
		}
	}
}

// Facts dumps the whole index as exportable facts. Vetx files written from
// this are transitively complete: the index already merged every
// dependency's facts before the current package's were added.
func (ix *Index) Facts() (pooled map[string]string) {
	pooled = map[string]string{}
	for id, k := range ix.Pooled {
		pooled[id] = k.String()
	}
	return pooled
}

// AddPackage scans one package's files for annotations. pkgPath qualifies
// the IDs.
func (ix *Index) AddPackage(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if arg, ok := markerArg(d.Doc, PooledMarker); ok {
				if k, ok := parsePoolKind(arg); ok {
					ix.Pooled[declID(pkgPath, d)] = k
				}
			}
		}
	}
}

// declID derives the funcID of a declaration syntactically; it must agree
// with the types-based funcID.
func declID(pkgPath string, d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkgPath + "." + d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver [T]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return pkgPath + ".(" + tt.Name + ")." + d.Name.Name
		default:
			return pkgPath + ".(?)." + d.Name.Name
		}
	}
}

// markerArg returns the space-separated argument of the first comment in g
// beginning with marker ("//repro:returns-pooled mat" -> "mat").
func markerArg(g *ast.CommentGroup, marker string) (string, bool) {
	if g == nil {
		return "", false
	}
	for _, c := range g.List {
		if strings.HasPrefix(c.Text, marker) {
			return strings.TrimSpace(strings.TrimPrefix(c.Text, marker)), true
		}
	}
	return "", false
}
