// Package nogo routes all concurrency through the sanctioned fan-out
// machinery: outside internal/par (the deterministic sharding helper)
// and internal/obs (the debug server), raw `go` statements and
// sync.WaitGroup fan-out are forbidden. Every parallel path that goes
// through par.ForEachCtx inherits index-addressed result slots, the
// worker-count matrix tests, and the par.* metrics; a raw goroutine
// inherits none of that and is exactly how worker-count-dependent
// output sneaks back in.
//
// //qbeep:allow-go suppresses a deliberate raw goroutine and
// //qbeep:allow-waitgroup a deliberate WaitGroup, both with a
// rationale.
package nogo

import (
	"go/ast"
	"go/types"

	"qbeep/internal/analysis"
)

// ExemptPackages are the concurrency roots (by import-path base) where
// the primitives legitimately live.
var ExemptPackages = map[string]bool{
	"par": true,
	"obs": true,
}

// Analyzer is the nogo checker.
var Analyzer = &analysis.Analyzer{
	Name: "nogo",
	Doc: "forbid raw go statements and sync.WaitGroup fan-out outside internal/par " +
		"and internal/obs so every parallel path inherits the deterministic sharding machinery",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if ExemptPackages[analysis.PkgPathBase(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Report(n.Pos(), "go",
					"raw go statement outside internal/par and internal/obs: route fan-out through par.ForEachCtx so it inherits deterministic sharding (//qbeep:allow-go to override)")
			case *ast.SelectorExpr:
				if isWaitGroup(pass, n) {
					pass.Report(n.Pos(), "waitgroup",
						"sync.WaitGroup outside internal/par and internal/obs: route fan-out through par.ForEachCtx (//qbeep:allow-waitgroup to override)")
				}
			}
			return true
		})
	}
	return nil
}

// isWaitGroup reports whether sel is the type reference sync.WaitGroup.
func isWaitGroup(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "WaitGroup" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "sync"
}
