// Package nodeterm enforces the determinism contract of the kernel
// packages: the mitigation core, the simulation kernels, and their
// numeric substrate must produce bitwise-identical output for a fixed
// seed at any worker count (DESIGN.md §7–§8). Three classes of
// nondeterminism are machine-checked:
//
//  1. math/rand (and math/rand/v2): kernel randomness must flow through
//     the seeded, splittable qbeep mathx streams — the global rand
//     source is process-wide mutable state that silently couples
//     callers. No directive lifts this; it is a hard ban.
//  2. time.Now / time.Since: wall-clock reads are nondeterministic
//     inputs. Kernel timing reads the obs span clock instead
//     (metX.ObserveDuration(sp.End())); a deliberate exception carries
//     a //qbeep:allow-time directive with a rationale.
//  3. Iterating a map while accumulating floating-point values into
//     outer state, or printing from the loop body: Go randomizes map
//     iteration order, and float addition is not associative, so such
//     loops produce run-to-run drift. Ranges that only build another
//     map, or that collect keys for sorting, are fine and not flagged.
//     //qbeep:allow-maprange suppresses deliberate sites.
package nodeterm

import (
	"go/ast"
	"go/token"
	"go/types"

	"qbeep/internal/analysis"
)

// KernelPackages names the deterministic kernel packages by import-path
// base, per ISSUE/DESIGN: the analyzer only fires inside these.
var KernelPackages = map[string]bool{
	"statevector":   true,
	"densitymatrix": true,
	"core":          true,
	"bitstring":     true,
	"mathx":         true,
	"noise":         true,
}

// Analyzer is the nodeterm checker.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc: "forbid nondeterminism sources (math/rand, time.Now/Since, order-sensitive " +
		"map iteration) in the deterministic kernel packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !KernelPackages[analysis.PkgPathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			path := importPath(imp)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Report(imp.Pos(), "rand",
					"import of %s in deterministic kernel package %s: use the seeded mathx streams (mathx.NewRNG/NewStream)",
					path, pass.Pkg.Name())
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := timeCall(pass, n); ok {
					pass.Report(n.Pos(), "time",
						"time.%s in deterministic kernel package %s: wall-clock reads are nondeterministic inputs (time the region with an obs span: metX.ObserveDuration(sp.End()))",
						name, pass.Pkg.Name())
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func importPath(imp *ast.ImportSpec) string {
	// The AST stores the quoted literal; strip the quotes manually so a
	// malformed literal (impossible post-typecheck) just mismatches.
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}

// timeCall reports whether call is time.Now(...) or time.Since(...).
func timeCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkMapRange flags `for ... range m` over a map when the loop body
// either accumulates floating-point values into state declared outside
// the loop (order-sensitive arithmetic) or prints (ordered output).
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	t := pass.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures get their own analysis when called
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if reason, pos, ok := floatAccumulation(pass, rng, n); ok {
				pass.Report(pos, "maprange",
					"map iteration feeds %s: Go randomizes map order and float addition is not associative — iterate a sorted key slice (cf. Dist.Outcomes) instead",
					reason)
			}
		case *ast.CallExpr:
			if name, ok := printCall(pass, n); ok {
				pass.Report(n.Pos(), "maprange",
					"map iteration feeds ordered output via fmt.%s: Go randomizes map order — iterate a sorted key slice (cf. Dist.Outcomes) instead",
					name)
			}
		}
		return true
	})
}

// floatAccumulation reports whether assign accumulates a float/complex
// value into a variable declared outside the range statement: either
// `x += v`-style compound assignment, or `x = x + v` where the target
// reappears on the right.
func floatAccumulation(pass *analysis.Pass, rng *ast.RangeStmt, assign *ast.AssignStmt) (string, token.Pos, bool) {
	accumulating := false
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		accumulating = true
	case token.ASSIGN:
		// x = x <op> v (single-target self-reference form only).
		if len(assign.Lhs) == 1 && len(assign.Rhs) == 1 {
			if id, ok := assign.Lhs[0].(*ast.Ident); ok {
				obj := pass.Info.ObjectOf(id)
				if obj != nil {
					ast.Inspect(assign.Rhs[0], func(n ast.Node) bool {
						if rid, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(rid) == obj {
							accumulating = true
						}
						return true
					})
				}
			}
		}
	}
	if !accumulating || len(assign.Lhs) == 0 {
		return "", token.NoPos, false
	}
	lhs := assign.Lhs[0]
	if !isFloatOrComplex(pass.Info.TypeOf(lhs)) {
		return "", token.NoPos, false
	}
	// Accumulation into loop-local state resets every iteration and is
	// order-insensitive; only outer targets carry order across entries.
	if id, ok := lhs.(*ast.Ident); ok {
		obj := pass.Info.ObjectOf(id)
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
			return "", token.NoPos, false
		}
	}
	return "float accumulation across iterations", assign.Pos(), true
}

func isFloatOrComplex(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// printCall reports whether call is one of the fmt print family.
func printCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" {
		return "", false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return sel.Sel.Name, true
	}
	return "", false
}
