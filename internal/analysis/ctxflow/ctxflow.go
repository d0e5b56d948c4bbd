// Package ctxflow enforces the context-plumbing convention from
// DESIGN.md §10: context.Background() and context.TODO() are roots that
// detach work from cancellation, so they may only be minted at the
// process edge. Package main (the cmd/ binaries) is the process edge and
// is exempt wholesale; test files are never loaded by the driver.
// Everywhere else a root is a finding, worded by where it sits: inside a
// function that already receives a context (it must thread the received
// ctx through) or in a ctx-less function (it must accept a ctx instead).
//
// //qbeep:allow-ctx suppresses a deliberate root with a rationale: the
// ctx-less convenience forms of the public qbeep package, the pinned
// qaoa.NewInstance signature, the obs shutdown timeout and the nil-ctx
// normalization in the tracer.
package ctxflow

import (
	"go/ast"
	"go/types"

	"qbeep/internal/analysis"
)

// Analyzer is the ctxflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "context.Background()/TODO() only at the process edge (package main); " +
		"functions that receive a context must thread it through",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		// recv counts the enclosing functions (declarations and literals)
		// that declare a context.Context parameter. frames mirrors the
		// ast.Inspect descent, one entry per open node, so the nil
		// post-visit knows whether the node it closes was such a function.
		var frames []bool
		recv := 0
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				if frames[len(frames)-1] {
					recv--
				}
				frames = frames[:len(frames)-1]
				return true
			}
			var ft *ast.FuncType
			switch n := n.(type) {
			case *ast.FuncDecl:
				ft = n.Type
			case *ast.FuncLit:
				ft = n.Type
			case *ast.CallExpr:
				if which := backgroundOrTODO(pass, n); which != "" {
					report(pass, n, which, recv > 0)
				}
			}
			hasCtx := ft != nil && hasCtxParam(pass, ft)
			if hasCtx {
				recv++
			}
			frames = append(frames, hasCtx)
			return true
		})
	}
	return nil
}

// report flags one context.Background()/TODO() root.
func report(pass *analysis.Pass, call *ast.CallExpr, which string, received bool) {
	if received {
		pass.Report(call.Pos(), "ctx",
			"context.%s() inside a function that receives a context: thread the received ctx through (//qbeep:allow-ctx to override)", which)
		return
	}
	pass.Report(call.Pos(), "ctx",
		"context.%s() outside package main: accept a ctx parameter and thread it (//qbeep:allow-ctx with a rationale for a deliberate root)", which)
}

// backgroundOrTODO returns "Background" or "TODO" when call is that
// context-package root constructor, else "".
func backgroundOrTODO(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}

// hasCtxParam reports whether the signature declares a parameter of
// type context.Context.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}
