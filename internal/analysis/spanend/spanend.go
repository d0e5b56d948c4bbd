// Package spanend enforces the obs span lifecycle: every span returned
// by obs.Start(ctx, name) must be ended on every return path of the function that started it. A leaked span
// never reaches the sink, so the trace silently under-reports exactly
// the runs that failed — the worst possible bias for an observability
// layer.
//
// The check is an intraprocedural heuristic, deliberately conservative:
//
//   - `defer sp.End()` (directly or inside a deferred closure) always
//     satisfies it — that is the recommended form.
//   - otherwise every return statement lexically after the Start
//     must be preceded by an sp.End() call in the same or an enclosing
//     block (straight-line code with an explicit End before the final
//     return passes; an early `return err` inside an if-block does
//     not).
//   - a span value that escapes the function (returned, passed to a
//     call, stored) is not tracked — lifetime is the callee's problem.
//
// //qbeep:allow-spanleak suppresses a site where the leak is deliberate
// (e.g. a span intentionally handed to a background finisher).
package spanend

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"qbeep/internal/analysis"
)

// Analyzer is the spanend checker.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "every obs.Start span must be ended on all return paths of the starting function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkScope(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkScope(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// spanVar tracks one started span inside a scope.
type spanVar struct {
	obj      types.Object
	name     string // variable name
	spanName string // span-name string-literal argument, if constant
	pos      token.Pos
	escapes  bool
	deferred bool      // defer sp.End() (or deferred closure calling it)
	ends     []endSite // non-deferred sp.End() calls
}

type endSite struct {
	pos token.Pos
	// blocks is the chain of enclosing blocks, outermost first; the
	// innermost block identifies where the call is sequenced.
	blocks []*ast.BlockStmt
}

type returnSite struct {
	pos    token.Pos
	blocks map[*ast.BlockStmt]bool
}

// checkScope analyzes one function body. Nested function literals are
// separate scopes (the outer walk visits them on its own), except that
// a directly deferred closure is scanned for End calls, since its body
// runs on every return path of this scope.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt) {
	spans := map[types.Object]*spanVar{}
	var order []*spanVar
	var returns []returnSite

	walkScope(body, nil, false, func(n ast.Node, stack []ast.Node, inDefer bool) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if sv, ok := spanStart(pass, n); ok {
				if sv.obj == nil {
					pass.Report(n.Pos(), "spanleak",
						"span result of obs.Start%s discarded: the span can never be ended", spanLabel(sv))
					return
				}
				spans[sv.obj] = sv
				order = append(order, sv)
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if isStart(pass, call) {
					pass.Report(n.Pos(), "spanleak",
						"span result of obs.Start%s discarded: the span can never be ended", spanLabel(&spanVar{spanName: spanNameOf(call)}))
				}
			}
		case *ast.ReturnStmt:
			if !inDefer {
				returns = append(returns, returnSite{pos: n.Pos(), blocks: blockSet(stack)})
			}
		case *ast.Ident:
			obj := pass.Info.ObjectOf(n)
			if obj == nil {
				return
			}
			sv, ok := spans[obj]
			if !ok || n.Pos() == sv.pos {
				return
			}
			kind := classifyUse(pass, n, stack)
			switch kind {
			case useEnd:
				if inDefer || underDefer(stack) {
					sv.deferred = true
				} else {
					sv.ends = append(sv.ends, endSite{pos: n.Pos(), blocks: blockChain(stack)})
				}
			case useSetAttr, useDefLHS:
				// harmless
			default:
				sv.escapes = true
			}
		}
	})

	for _, sv := range order {
		if sv.escapes || sv.deferred {
			continue
		}
		if len(sv.ends) == 0 {
			pass.Report(sv.pos, "spanleak",
				"span%s started here is never ended: add `defer %s.End()`", spanLabel(sv), sv.name)
			continue
		}
		for _, ret := range returns {
			if ret.pos <= sv.pos {
				continue
			}
			if !covered(ret, sv.ends) {
				pass.Report(ret.pos, "spanleak",
					"return without ending span%s started at %s: prefer `defer %s.End()` right after Start",
					spanLabel(sv), pass.Fset.Position(sv.pos), sv.name)
			}
		}
	}
}

// covered reports whether some non-deferred End call is sequenced
// before ret on its path: lexically earlier and in a block that
// encloses the return.
func covered(ret returnSite, ends []endSite) bool {
	for _, e := range ends {
		if e.pos >= ret.pos {
			continue
		}
		inner := e.blocks[len(e.blocks)-1]
		if ret.blocks[inner] {
			return true
		}
	}
	return false
}

// walkScope traverses the statements of one function scope, keeping the
// ancestor stack. Nested *ast.FuncLit subtrees are skipped — each is
// its own scope — except closures invoked directly by a defer
// statement, whose bodies are visited with inDefer set.
func walkScope(n ast.Node, stack []ast.Node, inDefer bool, fn func(ast.Node, []ast.Node, bool)) {
	if n == nil {
		return
	}
	if d, ok := n.(*ast.DeferStmt); ok {
		fn(n, stack, inDefer)
		stack = append(stack, n)
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			walkScope(lit.Body, append(stack, lit), true, fn)
			for _, arg := range d.Call.Args {
				walkScope(arg, stack, inDefer, fn)
			}
			return
		}
		walkScope(d.Call, stack, true, fn)
		return
	}
	if _, ok := n.(*ast.FuncLit); ok && len(stack) > 0 {
		return // separate scope
	}
	fn(n, stack, inDefer)
	stack = append(stack, n)
	for _, child := range children(n) {
		walkScope(child, stack, inDefer, fn)
	}
}

// children returns the direct child nodes of n in source order.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first { // the Inspect root is n itself
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

type useKind int

const (
	useOther useKind = iota
	useEnd
	useSetAttr
	useDefLHS
)

// classifyUse decides what an identifier occurrence of a span variable
// is doing, from its immediate ancestors.
func classifyUse(pass *analysis.Pass, id *ast.Ident, stack []ast.Node) useKind {
	if len(stack) == 0 {
		return useOther
	}
	parent := stack[len(stack)-1]
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
		// Must be a called method of the known span API; a method value
		// (sp.End passed around) escapes.
		if len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == sel {
				switch sel.Sel.Name {
				case "End":
					return useEnd
				case "SetAttr":
					return useSetAttr
				}
			}
		}
		return useOther
	}
	if assign, ok := parent.(*ast.AssignStmt); ok {
		for _, l := range assign.Lhs {
			if l == id {
				return useDefLHS
			}
		}
	}
	return useOther
}

// underDefer reports whether the ancestor stack passes through a defer
// statement (covers `defer sp.End()` where the walk reaches the call
// through the DeferStmt node).
func underDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

func blockChain(stack []ast.Node) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, n := range stack {
		if b, ok := n.(*ast.BlockStmt); ok {
			out = append(out, b)
		}
	}
	return out
}

func blockSet(stack []ast.Node) map[*ast.BlockStmt]bool {
	out := make(map[*ast.BlockStmt]bool)
	for _, b := range blockChain(stack) {
		out[b] = true
	}
	return out
}

// spanStart recognizes `ctx, sp := obs.Start(ctx, ...)` (and the `=`
// form). A blank
// identifier in the span position is a discard (obj nil); any other
// assignment shape is left to escape analysis. The context result of
// Start is not tracked — only the span carries the End obligation.
func spanStart(pass *analysis.Pass, assign *ast.AssignStmt) (*spanVar, bool) {
	if len(assign.Rhs) != 1 {
		return nil, false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if !isStart(pass, call) || len(assign.Lhs) != 2 {
		return nil, false
	}
	id, ok := assign.Lhs[1].(*ast.Ident) // (ctx, span)
	if !ok {
		return nil, false
	}
	sv := &spanVar{spanName: spanNameOf(call), pos: assign.Pos()}
	if id.Name == "_" {
		return sv, true
	}
	sv.obj = pass.Info.ObjectOf(id)
	sv.name = id.Name
	return sv, sv.obj != nil
}

// isStart reports whether call invokes Start from an obs package
// (matched by import-path base so analysistest stubs work).
func isStart(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Start" {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if analysis.PkgPathBase(fn.Pkg().Path()) != "obs" {
		return false
	}
	// Package-level functions only: methods that happen to be named Start
	// (obs.TraceFlags.Start) don't return spans.
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// spanNameOf extracts the string-literal span name for diagnostics; the
// name is Start's second argument.
func spanNameOf(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if lit, ok := call.Args[len(call.Args)-1].(*ast.BasicLit); ok && lit.Kind == token.STRING {
		return lit.Value
	}
	return ""
}

func spanLabel(sv *spanVar) string {
	if sv.spanName == "" {
		return ""
	}
	return fmt.Sprintf(" %s", sv.spanName)
}
