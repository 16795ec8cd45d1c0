package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Noalloc enforces the //repro:noalloc annotation: an annotated function may
// not contain constructs that allocate at steady state. The contract is
// transitive — calls are only permitted to functions that are themselves
// annotated, to the trusted-primitive whitelist below, or to non-allocating
// builtins — so a certified warm path stays certified when a helper deep in
// the call chain regresses.
//
// Deliberate cold-branch allocations (pool capacity misses, error paths) are
// suppressed per line with //repro:alloc-ok. Interface method declarations
// may carry the annotation; calling through such an interface is then
// allowed, and every concrete implementation visible to the analysis must be
// annotated itself.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc:  "check that //repro:noalloc functions cannot allocate at steady state",
	Run:  runNoalloc,
}

// noallocPkgs whitelists entire packages whose exported functions are
// allocation-free by construction.
var noallocPkgs = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// noallocFuncs whitelists individual trusted primitives. The pool accessors
// allocate only on a cold capacity miss — amortized zero at steady state,
// which is exactly the contract the annotation certifies.
var noallocFuncs = map[string]bool{
	"repro/internal/linalg.GetMat":     true,
	"repro/internal/linalg.GetMatZero": true,
	"repro/internal/linalg.GetVec":     true,
	"repro/internal/linalg.GetVecZero": true,
	"repro/internal/linalg.GetInts":    true,
	"repro/internal/linalg.GetMatView": true,
	"repro/internal/linalg.PutMat":     true,
	"repro/internal/linalg.PutVec":     true,
	"repro/internal/linalg.PutInts":    true,
	"repro/internal/linalg.PutMatView": true,
	"repro/internal/qmc.GetRichtmyer":  true,
	"repro/internal/qmc.PutRichtmyer":  true,
	"repro/internal/tile.getVec32":     true,
	"repro/internal/tile.putVec32":     true,
	"repro/internal/tile.GetMat32":     true,
	"repro/internal/tile.GetMat32Zero": true,
	"repro/internal/tile.PutMat32":     true,
	"repro/internal/tile.GetMat32View": true,
	"repro/internal/tile.PutMat32View": true,
	"repro/internal/engine.getMat":     true,
	"repro/internal/engine.putMat":     true,
	// Lock and lock-free synchronization primitives: they block but never
	// allocate, and the warm cache-hit path takes a mutex by design.
	"sync.(Mutex).Lock":        true,
	"sync.(Mutex).Unlock":      true,
	"sync.(RWMutex).RLock":     true,
	"sync.(RWMutex).RUnlock":   true,
	"sync.(RWMutex).Lock":      true,
	"sync.(RWMutex).Unlock":    true,
	"sync/atomic.(Bool).Load":  true,
	"sync/atomic.(Bool).Store": true,
	"sync/atomic.(Int64).Load": true,
	"sync/atomic.(Int64).Add":  true,
	// sync.Pool itself follows the same amortized-zero contract as the typed
	// pool accessors above: Get allocates only via New on a cold miss.
	"sync.(Pool).Get": true,
	"sync.(Pool).Put": true,
	// Wave-boundary budget checks: monotonic clock reads and pure Time value
	// arithmetic, plus the lock-free ctx.Err poll — none allocate.
	"time.Now":              true,
	"time.(Time).IsZero":    true,
	"time.(Time).Add":       true,
	"time.(Time).Before":    true,
	"context.(Context).Err": true,
}

// allowedBuiltins never allocate. panic is permitted because it terminates
// the path — boxing its argument on the way out of a dying process is not a
// steady-state allocation. append, make, new, print and println are absent
// deliberately.
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"min": true, "max": true, "real": true, "imag": true, "complex": true,
	"panic": true, "recover": true,
}

func runNoalloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			id := declID(pass.Pkg.Path(), fd)
			if !pass.Index.IsNoalloc(id) {
				continue
			}
			nc := &naChecker{pass: pass, fname: fd.Name.Name}
			nc.walk(fd.Body)
		}
	}
	checkIfaceImpls(pass)
	return nil
}

type naChecker struct {
	pass  *Pass
	fname string
}

func (c *naChecker) report(pos token.Pos, desc string) {
	if c.pass.Index.Suppressed(c.pass.Fset, pos) {
		return
	}
	c.pass.Reportf(pos, "%s in //repro:noalloc function %s", desc, c.fname)
}

func (c *naChecker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(x)
		case *ast.FuncLit:
			c.report(x.Pos(), "func literal allocates a closure")
			return false // the closure body is the closure's problem
		case *ast.GoStmt:
			c.report(x.Pos(), "go statement spawns a goroutine")
			return false
		case *ast.SendStmt:
			c.report(x.Pos(), "channel send blocks and is not allocation-free")
		case *ast.UnaryExpr:
			switch x.Op {
			case token.ARROW:
				c.report(x.Pos(), "channel receive blocks and is not allocation-free")
			case token.AND:
				if _, ok := unparen(x.X).(*ast.CompositeLit); ok {
					c.report(x.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch c.typeOf(x).Underlying().(type) {
			case *types.Slice:
				c.report(x.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				c.report(x.Pos(), "map literal allocates")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(c.typeOf(x)) {
				c.report(x.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				if ix, ok := unparen(l).(*ast.IndexExpr); ok {
					if _, isMap := c.typeOf(ix.X).Underlying().(*types.Map); isMap {
						c.report(l.Pos(), "map assignment may allocate")
					}
				}
			}
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(c.typeOf(x.Lhs[0])) {
				c.report(x.Pos(), "string concatenation allocates")
			}
			c.checkImplicitBox(x.Rhs, func(i int) types.Type {
				if i < len(x.Lhs) && len(x.Lhs) == len(x.Rhs) {
					return c.typeOf(x.Lhs[i])
				}
				return nil
			})
		case *ast.ReturnStmt:
			// Boxing a concrete value into an interface result allocates.
			sig := c.enclosingSig(x)
			if sig != nil && len(x.Results) == sig.Results().Len() {
				c.checkImplicitBox(x.Results, func(i int) types.Type {
					return sig.Results().At(i).Type()
				})
			}
		}
		return true
	})
}

func (c *naChecker) typeOf(e ast.Expr) types.Type {
	if t := c.pass.TypesInfo.Types[e].Type; t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxes reports whether storing a value of concrete type t into an interface
// allocates: pointer-shaped values ride in the interface word for free.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	}
	return true
}

// checkImplicitBox flags concrete-to-interface conversions at assignment and
// return positions.
func (c *naChecker) checkImplicitBox(vals []ast.Expr, dstAt func(int) types.Type) {
	for i, v := range vals {
		dst := dstAt(i)
		if dst == nil {
			continue
		}
		if _, isIface := dst.Underlying().(*types.Interface); !isIface {
			continue
		}
		src := c.typeOf(v)
		if src == types.Typ[types.Invalid] || !boxes(src) {
			continue
		}
		if tv, ok := c.pass.TypesInfo.Types[v]; ok && tv.IsNil() {
			continue
		}
		c.report(v.Pos(), fmt.Sprintf("%s value boxed into interface (allocates)", src))
	}
}

// enclosingSig finds the signature of the annotated function a return belongs
// to. Closures are reported wholesale at the FuncLit, so only the outer
// declaration matters; the walk never descends into literals.
func (c *naChecker) enclosingSig(ret *ast.ReturnStmt) *types.Signature {
	for _, file := range c.pass.Files {
		if file.Pos() <= ret.Pos() && ret.Pos() <= file.End() {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || ret.Pos() < fd.Pos() || ret.Pos() > fd.End() {
					continue
				}
				if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					return obj.Type().(*types.Signature)
				}
			}
		}
	}
	return nil
}

// checkCall classifies one call. The return value tells ast.Inspect whether
// to descend into the call's children.
func (c *naChecker) checkCall(call *ast.CallExpr) bool {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return true
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			c.checkBuiltin(call, b.Name())
			return true
		}
	}
	fo := calleeFunc(c.pass.TypesInfo, call)
	if fo == nil {
		c.report(call.Pos(), "call through a function value cannot be certified allocation-free")
		return true
	}
	id := c.callTargetID(call, fo)
	switch {
	case c.pass.Index.IsNoalloc(id), noallocFuncs[id]:
	case fo.Pkg() != nil && noallocPkgs[fo.Pkg().Path()]:
	default:
		c.report(call.Pos(), fmt.Sprintf("call to %s, which is not annotated //repro:noalloc", displayName(id)))
	}
	c.checkArgBoxing(call, fo)
	return true
}

// callTargetID resolves the annotation key for a call: interface method calls
// resolve to the interface declaration's ID, everything else to the concrete
// function's.
func (c *naChecker) callTargetID(call *ast.CallExpr, fo *types.Func) string {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if named, ok := derefNamed(s.Recv()); ok {
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")." + fo.Name()
				}
			}
		}
	}
	return funcID(fo)
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// displayName strips the module prefix for readability in messages.
func displayName(id string) string {
	return strings.TrimPrefix(id, "repro/")
}

func (c *naChecker) checkBuiltin(call *ast.CallExpr, name string) {
	switch {
	case allowedBuiltins[name]:
	case name == "make":
		c.report(call.Pos(), "make allocates")
	case name == "new":
		c.report(call.Pos(), "new allocates")
	case name == "append":
		c.report(call.Pos(), "append may reallocate its backing array")
	default:
		c.report(call.Pos(), fmt.Sprintf("builtin %s is not allocation-free", name))
	}
}

// checkConversion flags conversions that allocate: to interfaces (boxing) and
// between strings and byte/rune slices.
func (c *naChecker) checkConversion(call *ast.CallExpr, dst types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := c.typeOf(call.Args[0])
	if _, isIface := dst.Underlying().(*types.Interface); isIface && boxes(src) {
		c.report(call.Pos(), fmt.Sprintf("%s value boxed into interface (allocates)", src))
		return
	}
	ds, dIsStr := dst.Underlying().(*types.Basic)
	_, sIsSlice := src.Underlying().(*types.Slice)
	if dIsStr && ds.Info()&types.IsString != 0 && sIsSlice {
		c.report(call.Pos(), "conversion to string allocates")
		return
	}
	if s, ok := dst.Underlying().(*types.Slice); ok && isString(src) {
		e, _ := s.Elem().Underlying().(*types.Basic)
		if e != nil && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32) {
			c.report(call.Pos(), "conversion from string allocates")
		}
	}
}

// checkArgBoxing flags concrete values passed to interface-typed parameters.
func (c *naChecker) checkArgBoxing(call *ast.CallExpr, fo *types.Func) {
	sig, ok := fo.Type().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		src := c.typeOf(arg)
		if src == types.Typ[types.Invalid] || !boxes(src) {
			continue
		}
		if tv, ok := c.pass.TypesInfo.Types[arg]; ok && tv.IsNil() {
			continue
		}
		c.report(arg.Pos(), fmt.Sprintf("%s value boxed into interface (allocates)", src))
	}
}

// checkIfaceImpls enforces the interface side of the contract: when an
// interface method is annotated //repro:noalloc, every named type in this
// package that implements the interface must annotate (or whitelist) its
// implementation of that method.
func checkIfaceImpls(pass *Pass) {
	for id := range pass.Index.Noalloc {
		ipkg, iface, method, ok := splitIfaceID(id)
		if !ok {
			continue
		}
		it := lookupInterface(pass.Pkg, ipkg, iface)
		if it == nil {
			continue
		}
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			recv := types.Type(named)
			if !types.Implements(recv, it) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, it) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, pass.Pkg, method)
			f, ok := obj.(*types.Func)
			if !ok || f.Pkg() == nil || f.Pkg().Path() != pass.Pkg.Path() {
				continue // promoted from elsewhere; that package reports it
			}
			fid := funcID(f)
			if pass.Index.IsNoalloc(fid) || noallocFuncs[fid] {
				continue
			}
			pass.Reportf(f.Pos(), "%s implements %s.%s, which is annotated //repro:noalloc, but is not annotated itself",
				displayName(fid), iface, method)
		}
	}
}

// splitIfaceID decomposes "pkgpath.(Iface).Method" IDs.
func splitIfaceID(id string) (pkg, iface, method string, ok bool) {
	i := strings.Index(id, ".(")
	if i < 0 {
		return "", "", "", false
	}
	j := strings.Index(id[i:], ").")
	if j < 0 {
		return "", "", "", false
	}
	return id[:i], id[i+2 : i+j], id[i+j+2:], true
}

// lookupInterface resolves a named interface by package path, either the
// package under analysis or one of its (transitive) imports.
func lookupInterface(pkg *types.Package, path, name string) *types.Interface {
	target := pkg
	if pkg.Path() != path {
		target = findImport(pkg, path, map[*types.Package]bool{})
		if target == nil {
			return nil
		}
	}
	tn, ok := target.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	it, _ := tn.Type().Underlying().(*types.Interface)
	return it
}

func findImport(pkg *types.Package, path string, seen map[*types.Package]bool) *types.Package {
	for _, imp := range pkg.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		if imp.Path() == path {
			return imp
		}
		if found := findImport(imp, path, seen); found != nil {
			return found
		}
	}
	return nil
}
