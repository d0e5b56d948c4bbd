// Package gcfacts is the compiler-fact gate: it compiles each annotated
// package with the gc compiler's escape-analysis and inlining
// diagnostics enabled (-m=2), distills the diagnostic stream into a
// fact database, and enforces three function-level directives:
//
//	//qbeep:allocfree         the function performs no heap allocation
//	                          on any path through its own frame
//	//qbeep:noescape <param>  the named parameter neither leaks nor is
//	                          moved to the heap
//	//qbeep:mustinline        the function stays within the inlining
//	                          budget (the compiler reports "can inline")
//
// Directives live in the function's doc comment, like //go:noinline.
// The facts they pin are exactly the ones PRs 2-8 established by manual
// `-gcflags=-m` inspection — the closure-free applyOp keeping the
// serial gate path allocation-free, the zero-alloc Step and trajectory
// replay loops, the inlinable RNG and bitstring primitives — so a
// refactor that quietly re-introduces a per-op heap move or pushes a
// hot helper past the inline budget fails `make lint` instead of
// surfacing weeks later as a bench-gate ratio collapse.
//
// Semantics are frame-local by source position: a diagnostic counts
// against the function whose source range it falls in. Allocations
// performed by callees (inlined or not) are attributed to the callee's
// own source lines, so each function is accountable for its own body —
// annotate the callee too if its allocations matter. This also means an
// allocfree function may still *trigger* an allocation in a non-inlined
// callee (applyOp's sharded branch does, deliberately and once per
// state, in bindShards);
// the gate pins where allocations are allowed to live, and the
// AllocsPerRun regression tests pin the end-to-end counts.
//
// The -m=2 text format is not a stable API: message prefixes ("moved to
// heap:", "leaking param:", "can inline") have been stable across many
// Go releases, but a toolchain upgrade can reword them. The parsing
// contract is deliberately narrow (see compile.go) and the package's
// tests compile fixture code with the live toolchain, so a wording
// change fails the gate's own tests rather than silently certifying
// nothing. See DESIGN.md §15.
package gcfacts

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"qbeep/internal/analysis"
)

// FactPrefix is the comment prefix of the fact-directive grammar.
const FactPrefix = "//qbeep:"

// An annotation is one fact directive attached to a function.
type annotation struct {
	kind   string   // "allocfree", "noescape", "mustinline"
	params []string // noescape: the named parameters
	fn     string   // rendered function name for diagnostics
	file   string
	// declLine is the line carrying the function name — where the
	// compiler anchors inlinability facts.
	declLine  int
	startLine int
	endLine   int
	pos       token.Position // of the func declaration
	// paramNames are the function's declared parameter (and receiver)
	// names, for validating noescape targets.
	paramNames map[string]bool
}

// Check runs the compiler-fact gate over the packages matching patterns
// (relative to dir). Findings print to w in the multichecker's output
// format and are returned for the caller's exit decision. Packages with
// no fact directives are not recompiled.
func Check(w io.Writer, dir string, patterns ...string) ([]analysis.Finding, error) {
	listed, err := analysis.List(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var targets []*analysis.ListedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("gcfacts: go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if !lp.DepOnly && !lp.Standard && len(lp.GoFiles) > 0 {
			targets = append(targets, lp)
		}
	}
	exports := exportTable(listed)

	var findings []analysis.Finding
	var tmpDir, importcfg string
	defer func() {
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
	}()
	for _, lp := range targets {
		anns, idx, err := scanPackage(lp)
		if err != nil {
			return nil, err
		}
		if len(anns) == 0 {
			continue
		}
		if tmpDir == "" {
			tmpDir, err = os.MkdirTemp("", "gcfacts-")
			if err != nil {
				return nil, err
			}
			importcfg, err = writeImportcfg(tmpDir, exports)
			if err != nil {
				return nil, err
			}
		}
		diags, err := compilePackage(lp.Dir, lp.ImportPath, lp.GoFiles, importcfg, tmpDir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, checkAnnotations(anns, buildFacts(diags), idx)...)
	}
	analysis.PrintFindings(w, dir, findings)
	return findings, nil
}

// CheckDir runs the gate over one unlisted source directory — a test
// fixture package. goFiles name the sources inside dir; importPath is
// the name the package compiles under; exportsFor resolves the fixture's
// imports ("." patterns relative to modDir, typically just stdlib
// packages). Used by the gate's own tests to compile known-bad code
// without wiring it into the module graph.
func CheckDir(w io.Writer, dir, importPath string, goFiles []string, modDir string, imports []string) ([]analysis.Finding, error) {
	exports := map[string]string{}
	if len(imports) > 0 {
		var err error
		exports, err = analysis.ExportData(modDir, imports)
		if err != nil {
			return nil, err
		}
	}
	lp := &analysis.ListedPackage{ImportPath: importPath, Dir: dir, GoFiles: goFiles}
	anns, idx, err := scanPackage(lp)
	if err != nil {
		return nil, err
	}
	tmpDir, err := os.MkdirTemp("", "gcfacts-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmpDir)
	importcfg, err := writeImportcfg(tmpDir, exports)
	if err != nil {
		return nil, err
	}
	diags, err := compilePackage(lp.Dir, lp.ImportPath, lp.GoFiles, importcfg, tmpDir)
	if err != nil {
		return nil, err
	}
	findings := checkAnnotations(anns, buildFacts(diags), idx)
	analysis.PrintFindings(w, dir, findings)
	return findings, nil
}

// scanPackage parses a package's sources and extracts its fact
// directives plus the //qbeep:allow-* suppression index.
func scanPackage(lp *analysis.ListedPackage) ([]annotation, analysis.DirectiveIndex, error) {
	fset := token.NewFileSet()
	var anns []annotation
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("gcfacts: parse %s: %w", path, err)
		}
		files = append(files, f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			anns = append(anns, fnAnnotations(fset, fn)...)
		}
	}
	return anns, analysis.IndexDirectives(fset, files), nil
}

// fnAnnotations extracts the fact directives from one function's doc
// comment.
func fnAnnotations(fset *token.FileSet, fn *ast.FuncDecl) []annotation {
	var anns []annotation
	for _, c := range fn.Doc.List {
		if !strings.HasPrefix(c.Text, FactPrefix) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, FactPrefix)
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		verb := fields[0]
		if verb != "allocfree" && verb != "noescape" && verb != "mustinline" {
			continue // allow-* and pooled belong to other checkers
		}
		a := annotation{
			kind:       verb,
			params:     fields[1:],
			fn:         funcDisplayName(fn),
			file:       fset.Position(fn.Pos()).Filename,
			declLine:   fset.Position(fn.Name.Pos()).Line,
			startLine:  fset.Position(fn.Pos()).Line,
			endLine:    fset.Position(fn.End()).Line,
			pos:        fset.Position(fn.Pos()),
			paramNames: declParamNames(fn),
		}
		anns = append(anns, a)
	}
	return anns
}

// funcDisplayName renders the function name the way the compiler's
// inline diagnostics do: F, T.M, or (*T).M.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch t := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := baseTypeName(t.X); ok {
			return "(*" + id + ")." + fn.Name.Name
		}
	default:
		if id, ok := baseTypeName(t); ok {
			return id + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

func baseTypeName(e ast.Expr) (string, bool) {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name, true
	case *ast.IndexExpr: // generic receiver T[P]
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return "", false
}

// declParamNames collects the function's parameter and receiver names.
func declParamNames(fn *ast.FuncDecl) map[string]bool {
	names := make(map[string]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				names[n.Name] = true
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	return names
}

// contains reports whether the diagnostic lies within the annotation's
// source range.
func (a *annotation) contains(d diag) bool {
	return d.file == a.file && d.line >= a.startLine && d.line <= a.endLine
}

// checkAnnotations enforces every directive against the fact database.
func checkAnnotations(anns []annotation, f *facts, idx analysis.DirectiveIndex) []analysis.Finding {
	var findings []analysis.Finding
	report := func(a *annotation, format string, args ...any) {
		if idx.Allowed(a.pos, a.kind) {
			return
		}
		findings = append(findings, analysis.Finding{
			Position: a.pos,
			Analyzer: "gcfacts",
			Diagnostic: analysis.Diagnostic{
				Category: a.kind,
				Message:  fmt.Sprintf(format, args...),
			},
		})
	}
	for i := range anns {
		a := &anns[i]
		switch a.kind {
		case "allocfree":
			for _, d := range f.heapEscapes {
				if a.contains(d) {
					report(a, "%s is marked //qbeep:allocfree but the compiler reports %q at %s:%d:%d — a heap allocation on this path; restore the zero-alloc shape (e.g. keep escaping closures behind a //go:noinline helper) or move the directive",
						a.fn, d.msg, d.file, d.line, d.col)
				}
			}
		case "noescape":
			if len(a.params) == 0 {
				report(a, "%s has //qbeep:noescape with no parameter name: write //qbeep:noescape <param>", a.fn)
				continue
			}
			for _, p := range a.params {
				if !a.paramNames[p] {
					report(a, "%s has //qbeep:noescape %s but declares no parameter %q", a.fn, p, p)
					continue
				}
				for _, leak := range f.paramLeaks {
					if leak.name == p && a.contains(leak.d) {
						report(a, "%s is marked //qbeep:noescape %s but the compiler reports %q at %s:%d:%d",
							a.fn, p, leak.d.msg, leak.d.file, leak.d.line, leak.d.col)
					}
				}
			}
		case "mustinline":
			key := lineKey(a.file, a.declLine)
			if _, ok := f.canInline[key]; ok {
				continue
			}
			if reason, ok := f.cannotInline[key]; ok {
				report(a, "%s is marked //qbeep:mustinline but the compiler reports: cannot inline %s", a.fn, reason)
			} else {
				report(a, "%s is marked //qbeep:mustinline but the compiler recorded no inlining fact for it (check the -m=2 parsing contract, DESIGN.md §15)", a.fn)
			}
		}
	}
	return findings
}
