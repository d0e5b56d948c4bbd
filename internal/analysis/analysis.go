// Package analysis is the repo's static-analysis framework: a minimal,
// dependency-free port of the golang.org/x/tools/go/analysis surface
// (Analyzer, Pass, Diagnostic) plus the //qbeep:allow-* suppression
// directive grammar shared by every checker.
//
// The build environment is hermetic — no module proxy — so the suite is
// built on the standard library alone: packages are loaded with
// `go list -export` and type-checked through the stdlib gc importer
// (see load.go), and the driver in run.go replaces x/tools'
// multichecker. Analyzer Run functions are source-compatible with the
// x/tools shape, so individual checkers could migrate to the real
// framework unchanged if the dependency ever lands.
//
// Directive grammar (DESIGN.md §9): a comment of the form
//
//	//qbeep:allow-<check> [rationale...]
//
// suppresses diagnostics carrying category <check> on the same line or
// on the line directly below the comment (so both trailing and
// standalone placements work). Every suppression is expected to carry a
// rationale; the directive is an audited escape hatch, not an off
// switch.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is the one-paragraph help text shown by qbeep-lint -list.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos token.Pos
	// Category is the directive key that suppresses this diagnostic
	// (the <check> in //qbeep:allow-<check>).
	Category string
	Message  string
}

// A Pass provides one analyzer run with a single type-checked package
// and collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      []Diagnostic
	directives DirectiveIndex
}

// NewPass assembles a Pass for one package. Directive comments are
// indexed up front so Report can consult them in O(1).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	p := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info}
	p.directives = IndexDirectives(fset, files)
	return p
}

// DirectivePrefix is the comment prefix of the suppression grammar.
const DirectivePrefix = "//qbeep:allow-"

// AllowKeys is the registry of every suppression category the suite can
// emit — the legal <check> values in //qbeep:allow-<check>. The
// directive analyzer rejects keys outside this set, so a typo'd
// suppression is a lint failure instead of a silent no-op. Adding a
// category to an analyzer means adding it here.
var AllowKeys = map[string]bool{
	// floatcmp
	"floatcmp": true,
	// nodeterm
	"rand": true, "time": true, "maprange": true,
	// nogo
	"go": true, "waitgroup": true,
	// spanend
	"spanleak": true,
	// ctxflow
	"ctx": true,
	// poolsafe
	"poolretain": true,
	// gcfacts
	"allocfree": true, "noescape": true, "mustinline": true,
	// directive (the grammar checker itself)
	"directive": true,
}

// FactVerbs is the registry of the non-suppression //qbeep: directives:
// the compiler-fact annotations enforced by gcfacts plus the ownership
// marker consumed by poolsafe. Like AllowKeys, membership here is what
// makes a directive legal to the grammar checker.
var FactVerbs = map[string]bool{
	// gcfacts: function performs no heap allocation on any path
	// (frame-local: diagnostics attributed to its own source lines).
	"allocfree": true,
	// gcfacts: the named parameter must not escape or leak.
	"noescape": true,
	// gcfacts: the function must stay within the inlining budget.
	"mustinline": true,
	// poolsafe: the type is a pooled/arena scratch whose fields must not
	// be retained past return or sent across goroutine boundaries.
	"pooled": true,
}

// A DirectiveIndex records which //qbeep:allow-<key> suppressions are
// active on which lines of which files.
type DirectiveIndex map[string]map[int]map[string]bool

// IndexDirectives scans every comment in files for //qbeep:allow-<key>
// directives and records which keys are active on which lines. A
// directive on line L covers both L (trailing placement) and L+1
// (standalone comment above the flagged statement).
func IndexDirectives(fset *token.FileSet, files []*ast.File) DirectiveIndex {
	idx := make(DirectiveIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, DirectivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, DirectivePrefix)
				key := rest
				if i := strings.IndexAny(rest, " \t"); i >= 0 {
					key = rest[:i]
				}
				if key == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					idx[pos.Filename] = byLine
				}
				for _, line := range [2]int{pos.Line, pos.Line + 1} {
					keys := byLine[line]
					if keys == nil {
						keys = make(map[string]bool)
						byLine[line] = keys
					}
					keys[key] = true
				}
			}
		}
	}
	return idx
}

// Allowed reports whether an //qbeep:allow-<key> directive covers the
// given file position.
func (idx DirectiveIndex) Allowed(position token.Position, key string) bool {
	byLine := idx[position.Filename]
	if byLine == nil {
		return false
	}
	return byLine[position.Line][key]
}

// Suppressed reports whether a diagnostic of category key at pos is
// silenced by an //qbeep:allow-<key> directive.
func (p *Pass) Suppressed(pos token.Pos, key string) bool {
	return p.directives.Allowed(p.Fset.Position(pos), key)
}

// Report records a diagnostic of the given category unless a directive
// suppresses it.
func (p *Pass) Report(pos token.Pos, category, format string, args ...any) {
	if p.Suppressed(pos, category) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the collected diagnostics in report order.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// PkgPathBase returns the last element of a package import path —
// the key the analyzers use to recognize the kernel packages and the
// par/obs concurrency roots, so the checkers work identically on the
// real tree ("qbeep/internal/obs") and on analysistest fixtures
// ("obs").
func PkgPathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
