// Command qbeep-lint is the repo's multichecker: it runs the custom
// invariant analyzers from internal/analysis over the packages named on
// the command line (default ./...) and exits non-zero if any analyzer
// reports a finding.
//
//	qbeep-lint [-only nodeterm,spanend] [-list] [-no-gcfacts] [packages...]
//
// The suite (see DESIGN.md §9, §15):
//
//	nodeterm   no math/rand, time.Now/Since, or order-sensitive map
//	           iteration in the deterministic kernel packages
//	nogo       no raw goroutines or sync.WaitGroup outside internal/par
//	           and internal/obs
//	spanend    obs spans must be ended on all return paths
//	floatcmp   no ==/!= on floats outside the exact-comparison allowlist
//	ctxflow    context.Background()/TODO() only at the process edge
//	           (package main); received ctx must thread
//	poolsafe   //qbeep:pooled scratch fields must not outlive the
//	           borrow; pool checkouts must reset before reuse
//	directive  the //qbeep: grammar itself: unknown verbs, unknown
//	           allow-keys, missing rationales, misplaced directives
//	gcfacts    the compiler-fact gate: //qbeep:allocfree, noescape and
//	           mustinline enforced against the gc compiler's -m=2
//	           escape/inline diagnostics (recompiles annotated
//	           packages; skip with -no-gcfacts)
//
// Findings are suppressed per line with //qbeep:allow-<check> directives
// carrying a rationale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qbeep/internal/analysis"
	"qbeep/internal/analysis/ctxflow"
	"qbeep/internal/analysis/directive"
	"qbeep/internal/analysis/floatcmp"
	"qbeep/internal/analysis/gcfacts"
	"qbeep/internal/analysis/nodeterm"
	"qbeep/internal/analysis/nogo"
	"qbeep/internal/analysis/poolsafe"
	"qbeep/internal/analysis/spanend"
	"qbeep/internal/buildinfo"
)

var suite = []*analysis.Analyzer{
	ctxflow.Analyzer,
	directive.Analyzer,
	floatcmp.Analyzer,
	nodeterm.Analyzer,
	nogo.Analyzer,
	poolsafe.Analyzer,
	spanend.Analyzer,
}

// gcfactsDoc is the -list entry for the compiler-fact gate, which runs
// outside the AST driver (it shells out to the compiler per annotated
// package).
const gcfactsDoc = "enforce //qbeep:allocfree, //qbeep:noescape and //qbeep:mustinline against the " +
	"gc compiler's -m=2 escape-analysis and inlining diagnostics"

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	noGcfacts := flag.Bool("no-gcfacts", false, "skip the compiler-fact gate (no recompiles)")
	version := buildinfo.AddVersionFlag(nil)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Summary("qbeep-lint"))
		return
	}
	if *list {
		for _, a := range suite {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-10s %s\n", "gcfacts", gcfactsDoc)
		return
	}

	analyzers := suite
	runGcfacts := !*noGcfacts
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		analyzers = nil
		runGcfacts = false
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "gcfacts" {
				runGcfacts = true
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "qbeep-lint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var findings []analysis.Finding
	if len(analyzers) > 0 {
		fs, err := analysis.Run(os.Stdout, *dir, analyzers, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qbeep-lint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if runGcfacts {
		fs, err := gcfacts.Check(os.Stdout, *dir, patterns...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qbeep-lint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "qbeep-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
