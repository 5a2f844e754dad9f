// Analyzer allocfree: the zero-allocation DES hot core (PR 4) is gated
// at runtime by TestDESAllocBudget and the steady-state alloc tests —
// signals that fire only after a regression lands and only on the
// scenarios the benchmarks happen to cover. This analyzer turns the
// contract into a compile-time diagnostic: functions annotated
//
//	//lb:hotpath
//
// (in their doc comment) and everything statically reachable from their
// steady-state regions must not contain heap-allocating constructs.
//
// Semantics of the annotation (see Module.HotSet): an annotated
// function without loops is hot in full; an annotated function with
// loops is hot in its loop bodies and function literals, while its
// straight-line preamble counts as per-replication setup. Static
// callees of a hot region are hot in full — a call made once per event
// allocates once per event. Interface dispatch is a contract boundary
// and is not followed (the engine's nil-observer rule: anything behind
// an interface is opt-in and pays its own way).
//
// Flagged constructs: make/new, slice and map composite literals,
// &composite literals, append (backing-array growth), non-constant
// string concatenation, capturing closures, go statements, defer inside
// loops, fmt.*/errors.New calls, string<->[]byte/[]rune conversions,
// and implicit boxing of non-pointer values into interface parameters.
// Amortized growth to a high-water mark (arena, ring, event heap) is a
// deliberate exception — justify it with //lint:ignore allocfree.

package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// AllocFree flags heap-allocating constructs reachable from
// //lb:hotpath functions.
var AllocFree = &Analyzer{
	Name:  "allocfree",
	Doc:   "flags heap-allocating constructs in functions reachable from //lb:hotpath steady-state code",
	Files: FilesNonTest,
	Match: func(u *Unit) bool { return inModulePackage(u, "internal", "cmd", "examples", ".") },
	Run:   runAllocFree,
}

func runAllocFree(p *Pass) error {
	if p.Mod == nil {
		return fmt.Errorf("allocfree needs the module call graph")
	}
	var roots []string
	for _, key := range p.Mod.Keys {
		if info := p.Mod.Funcs[key]; info.Hot && !info.Test {
			roots = append(roots, key)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	full, partial := p.Mod.HotSet(roots)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := qualifiedName(obj)
			switch {
			case full[key]:
				ctx := hotContext(p.Mod, roots, key)
				scanAlloc(p, fd.Body, true, ctx)
			case partial[key]:
				ctx := fmt.Sprintf("the steady-state loop of //lb:hotpath %s", key)
				scanAlloc(p, fd.Body, false, ctx)
			}
		}
	}
	return nil
}

// hotContext names the function and its call path from a hotpath root
// for the diagnostic.
func hotContext(m *Module, roots []string, key string) string {
	path := m.HotPath(roots, key)
	switch {
	case len(path) == 0:
		return fmt.Sprintf("hot function %s", key)
	case len(path) == 1:
		return fmt.Sprintf("//lb:hotpath %s", key)
	default:
		return fmt.Sprintf("hot function %s (reachable from //lb:hotpath %s)", key, strings.Join(path, " → "))
	}
}

// scanAlloc walks a function body flagging allocating constructs. With
// full=false only loop bodies and function literals are scanned (the
// steady-state regions of an annotated function with loops).
func scanAlloc(p *Pass, body ast.Node, full bool, ctx string) {
	var walk func(n ast.Node, hot, inLoop bool)
	walk = func(n ast.Node, hot, inLoop bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.ForStmt:
				if x.Init != nil {
					walk(x.Init, hot, inLoop)
				}
				if x.Cond != nil {
					walk(x.Cond, hot, inLoop)
				}
				if x.Post != nil {
					walk(x.Post, true, true)
				}
				walk(x.Body, true, true)
				return false
			case *ast.RangeStmt:
				if x.Key != nil {
					walk(x.Key, hot, inLoop)
				}
				if x.Value != nil {
					walk(x.Value, hot, inLoop)
				}
				walk(x.X, hot, inLoop)
				walk(x.Body, true, true)
				return false
			case *ast.FuncLit:
				if hot && capturesFree(p.Info, x) && inLoop {
					p.Reportf(x.Pos(), "capturing closure allocates in %s", ctx)
				}
				// The literal's body is steady-state code either way.
				walk(x.Body, true, true)
				return false
			default:
				if hot {
					checkAllocNode(p, x, ctx, inLoop)
				}
			}
			return true
		})
	}
	walk(body, full, false)
}

// checkAllocNode flags one node if it is an allocating construct.
func checkAllocNode(p *Pass, n ast.Node, ctx string, inLoop bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		checkAllocCall(p, n, ctx)
	case *ast.CompositeLit:
		tv, ok := p.Info.Types[n]
		if !ok || tv.Type == nil {
			return
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			p.Reportf(n.Pos(), "slice literal allocates in %s", ctx)
		case *types.Map:
			p.Reportf(n.Pos(), "map literal allocates in %s", ctx)
		}
	case *ast.UnaryExpr:
		if n.Op.String() == "&" {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				p.Reportf(n.Pos(), "&composite literal escapes to the heap in %s", ctx)
			}
		}
	case *ast.BinaryExpr:
		if n.Op.String() == "+" && isStringExpr(p.Info, n) && !isConstExpr(p.Info, n) {
			p.Reportf(n.Pos(), "string concatenation allocates in %s", ctx)
		}
	case *ast.GoStmt:
		p.Reportf(n.Pos(), "go statement allocates a goroutine in %s", ctx)
	case *ast.DeferStmt:
		if inLoop {
			p.Reportf(n.Pos(), "defer inside a loop allocates in %s", ctx)
		}
	}
}

// checkAllocCall flags allocating call forms: builtins, fmt/errors
// calls, string conversions, and implicit interface boxing of
// arguments.
func checkAllocCall(p *Pass, call *ast.CallExpr, ctx string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "append":
			if p.Info.Uses[fun] == types.Universe.Lookup("append") {
				p.Reportf(call.Pos(), "append may grow the backing array in %s", ctx)
				return
			}
		case "make":
			if p.Info.Uses[fun] == types.Universe.Lookup("make") {
				p.Reportf(call.Pos(), "make allocates in %s", ctx)
				return
			}
		case "new":
			if p.Info.Uses[fun] == types.Universe.Lookup("new") {
				p.Reportf(call.Pos(), "new allocates in %s", ctx)
				return
			}
		case "panic":
			return // a panicking path is off the steady state by definition
		}
	}
	if fn := calleeOf(p.Info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			p.Reportf(call.Pos(), "fmt.%s allocates (formats and boxes its arguments) in %s", fn.Name(), ctx)
			return
		case "errors":
			if fn.Name() == "New" || fn.Name() == "Join" {
				p.Reportf(call.Pos(), "errors.%s allocates in %s", fn.Name(), ctx)
				return
			}
		}
	}
	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := types.Type(nil)
		if atv, ok := p.Info.Types[call.Args[0]]; ok {
			src = atv.Type
		}
		if src != nil && isConstExpr(p.Info, call.Args[0]) {
			return
		}
		if src != nil {
			dstStr := isStringType(dst)
			srcStr := isStringType(src.Underlying())
			_, dstSlice := dst.(*types.Slice)
			_, srcSlice := src.Underlying().(*types.Slice)
			if (dstStr && srcSlice) || (srcStr && dstSlice) {
				p.Reportf(call.Pos(), "string conversion copies its payload in %s", ctx)
				return
			}
			if _, isIface := dst.(*types.Interface); isIface && boxes(src) {
				p.Reportf(call.Pos(), "conversion to interface boxes the value in %s", ctx)
				return
			}
		}
		return
	}
	// Implicit boxing: a concrete non-pointer argument passed to an
	// interface-typed parameter escapes into the interface value.
	sig := callSignature(p.Info, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				param = sl.Elem()
			}
		} else if i < sig.Params().Len() {
			param = sig.Params().At(i).Type()
		}
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := p.Info.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil {
			continue
		}
		if boxes(atv.Type) {
			p.Reportf(arg.Pos(), "argument boxes a %s into an interface parameter in %s", atv.Type.String(), ctx)
		}
	}
}

// boxes reports whether converting t to an interface allocates: true
// for concrete non-pointer, non-interface, non-channel types wider than
// a pointer word (conservatively: everything but pointers, interfaces,
// and untyped nil).
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		b := t.Underlying().(*types.Basic)
		return b.Kind() != types.UntypedNil
	}
	return true
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// callSignature resolves the signature a call invokes, including calls
// of function-typed values; conversions and builtins yield nil.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// capturesFree reports whether a function literal references variables
// declared outside itself (excluding package-level variables, which are
// not captured).
func capturesFree(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: accessed, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			found = true
		}
		return true
	})
	return found
}
