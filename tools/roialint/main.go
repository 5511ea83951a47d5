// Command roialint is the repo's static-analysis suite: a stdlib-only
// (go/ast, go/parser, go/types) multi-analyzer linter that machine-checks
// the runtime-loop invariants previous PRs kept re-applying by hand —
// hardened HTTP servers, no blocking I/O under rtf mutexes, the
// (roia|fleet)_ metric exposition grammar, bounded telemetry buffers,
// injectable clocks, and no discarded Close/Flush errors on writers.
//
// Since v2 the suite is two-phase: phase one builds a module-wide call
// graph with per-function summaries (callgraph.go), phase two runs the
// interprocedural analyzers over it — determinism (the byte-identical
// wire/output contract), hotpathalloc (allocation debt on the tick path,
// frozen in a committed baseline), goroutinelife (goroutine join/stop and
// ticker Stop evidence), plus the graph-rebased tickclock and lockhold.
// orphanpkg reports internal packages that no production code imports.
//
// Usage:
//
//	go run ./tools/roialint ./...            # whole module (CI gate)
//	go run ./tools/roialint internal/rtf/... # one subtree
//	go run ./tools/roialint -list            # list analyzers
//	go run ./tools/roialint -json ./...      # one JSON finding per line
//
// Exit status: 0 clean, 1 findings, 2 load/usage error. Findings print as
// file:line:col: [check] message. Suppress a single finding with an inline
// comment on (or directly above) the offending line:
//
//	//roialint:ignore <check> <reason>
//
// The reason is mandatory and itself linted. hotpathalloc additionally
// reads a committed baseline of frozen allocation debt; regenerate it with
// -write-hotpath-baseline after deliberate changes and review the diff.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultHotpathBaseline is the committed allocation-debt file, relative
// to the module root.
const defaultHotpathBaseline = "tools/roialint/hotpathalloc.baseline"

func defaultAnalyzers(baseline string) []Analyzer {
	return []Analyzer{
		HTTPTimeout{},
		LockHold{},
		&MetricName{},
		BoundedGrowth{},
		TickClock{},
		CloseErr{},
		Determinism{},
		HotPathAlloc{BaselinePath: baseline},
		GoroutineLife{},
		OrphanPkg{},
	}
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	checks := flag.String("check", "", "comma-separated analyzer names to run (default: all)")
	root := flag.String("C", ".", "module root to analyze")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines (including suppressed ones) instead of text")
	baselineFlag := flag.String("hotpath-baseline", defaultHotpathBaseline,
		"hotpathalloc baseline file, relative to the module root; empty disables the baseline")
	writeBaseline := flag.Bool("write-hotpath-baseline", false,
		"regenerate the hotpathalloc baseline from the current tree and exit")
	flag.Parse()

	baseline := *baselineFlag
	if baseline != "" && !filepath.IsAbs(baseline) {
		baseline = filepath.Join(*root, filepath.FromSlash(baseline))
	}

	analyzers := defaultAnalyzers(baseline)
	if *list {
		for _, a := range analyzers {
			fmt.Println(a.Name())
		}
		return
	}
	if *writeBaseline {
		if baseline == "" {
			fmt.Fprintln(os.Stderr, "roialint: -write-hotpath-baseline needs a -hotpath-baseline path")
			os.Exit(2)
		}
		analyzers = []Analyzer{HotPathAlloc{BaselinePath: baseline, WriteBaseline: true}}
	}
	if *checks != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []Analyzer
		for _, a := range analyzers {
			if want[a.Name()] {
				sel = append(sel, a)
				delete(want, a.Name())
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for name := range want {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			for _, name := range unknown {
				fmt.Fprintf(os.Stderr, "roialint: unknown check %q\n", name)
			}
			os.Exit(2)
		}
		analyzers = sel
	}

	loader, err := NewLoader(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "roialint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "roialint: %v\n", err)
		os.Exit(2)
	}

	// Positional patterns filter which packages are *reported on*; every
	// package is still loaded so cross-package checks see the whole tree.
	patterns := flag.Args()
	match := func(p *Package) bool {
		if len(patterns) == 0 {
			return true
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, loader.Module), "/")
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			pat = strings.TrimSuffix(pat, "...")
			pat = strings.TrimSuffix(pat, "/")
			if pat == "" || pat == "." || rel == pat || strings.HasPrefix(rel, pat+"/") {
				return true
			}
		}
		return false
	}

	r := NewReporter(loader.Fset, loader.Root)
	reportable := map[*Package]bool{}
	for _, pkg := range pkgs {
		if !match(pkg) {
			continue
		}
		reportable[pkg] = true
		r.ScanSuppressions(pkg)
	}

	needGraph := false
	for _, a := range analyzers {
		if _, ok := a.(GraphAnalyzer); ok {
			needGraph = true
		}
	}
	for _, pkg := range pkgs {
		if !reportable[pkg] {
			continue
		}
		for _, a := range analyzers {
			if pa, ok := a.(PackageAnalyzer); ok {
				pa.Check(pkg, r)
			}
		}
	}
	if needGraph {
		g := BuildGraph(loader, pkgs, reportable)
		for _, a := range analyzers {
			if ga, ok := a.(GraphAnalyzer); ok {
				ga.CheckGraph(g, r)
			}
		}
	}
	for _, a := range analyzers {
		if fin, ok := a.(Finisher); ok {
			fin.Finish(r)
		}
	}

	diags := r.Diagnostics()
	if *jsonOut {
		if err := WriteJSONL(os.Stdout, r.AllDiagnostics()); err != nil {
			fmt.Fprintf(os.Stderr, "roialint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if n := r.Suppressed(); n > 0 {
			fmt.Fprintf(os.Stderr, "roialint: %d finding(s) suppressed (inline or baselined)\n", n)
		}
	}
	if *writeBaseline && len(diags) == 0 {
		fmt.Fprintf(os.Stderr, "roialint: wrote %s\n", *baselineFlag)
		return
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "roialint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
