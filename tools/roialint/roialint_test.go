package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGolden runs each analyzer over its fixture package and compares the
// rendered diagnostics against the checked-in golden file. The fixtures
// double as negative tests: every shape that must NOT be flagged simply
// has no corresponding golden line.
func TestGolden(t *testing.T) {
	loader, err := NewLoader("testdata")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	cases := []struct {
		dir            string
		extra          []string // further fixture packages loaded alongside dir
		analyzers      []Analyzer
		wantSuppressed int
	}{
		{dir: "httptimeout", analyzers: []Analyzer{HTTPTimeout{}}},
		// PathPrefix/Allowed are repo paths in production; the fixtures
		// substitute their own so both branches are exercised.
		{dir: "lockhold", analyzers: []Analyzer{LockHold{PathPrefix: "lockhold/"}}},
		{dir: "metricname", analyzers: []Analyzer{&MetricName{}}},
		{dir: "boundedgrowth", analyzers: []Analyzer{BoundedGrowth{}}},
		{dir: "tickclock", analyzers: []Analyzer{TickClock{Allowed: []string{"clock_ok.go", "exec.go"}}}},
		{dir: "closeerr", analyzers: []Analyzer{CloseErr{}}},
		{dir: "determinism", analyzers: []Analyzer{Determinism{}}},
		// No BaselinePath: every allocation site reports. Baseline
		// round-tripping is covered by TestHotPathBaselineRoundTrip.
		{dir: "hotpathalloc", analyzers: []Analyzer{HotPathAlloc{}}},
		{dir: "goroutinelife", analyzers: []Analyzer{GoroutineLife{}}},
		{dir: "orphanpkg", extra: []string{"orphanpkg/internal/used", "orphanpkg/internal/orphan", "orphanpkg/internal/testonly"},
			analyzers: []Analyzer{OrphanPkg{}}},
		{dir: "suppress", analyzers: []Analyzer{TickClock{}}, wantSuppressed: 2},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			var pkgs []*Package
			for _, dir := range append([]string{tc.dir}, tc.extra...) {
				pkg, err := loader.LoadDir(filepath.Join("testdata", dir), "fixture/"+dir)
				if err != nil {
					t.Fatalf("load fixture: %v", err)
				}
				pkgs = append(pkgs, pkg)
			}
			pkg := pkgs[0]
			r := NewReporter(loader.Fset, loader.Root)
			r.ScanSuppressions(pkg)
			var g *Graph
			for _, a := range tc.analyzers {
				if _, ok := a.(GraphAnalyzer); ok && g == nil {
					g = BuildGraph(loader, pkgs, nil)
				}
			}
			for _, a := range tc.analyzers {
				if pa, ok := a.(PackageAnalyzer); ok {
					pa.Check(pkg, r)
				}
			}
			for _, a := range tc.analyzers {
				if ga, ok := a.(GraphAnalyzer); ok {
					ga.CheckGraph(g, r)
				}
			}
			for _, a := range tc.analyzers {
				if fin, ok := a.(Finisher); ok {
					fin.Finish(r)
				}
			}
			var lines []string
			for _, d := range r.Diagnostics() {
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			golden := filepath.Join("testdata", tc.dir, "golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run `go test ./tools/roialint -update` to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			if r.Suppressed() != tc.wantSuppressed {
				t.Errorf("suppressed = %d, want %d", r.Suppressed(), tc.wantSuppressed)
			}
		})
	}
}

// TestGoldenNonEmpty guards the harness itself: every fixture directory
// except the all-clean ones must produce at least one diagnostic, so a
// broken analyzer cannot silently pass by matching an empty golden file.
// The callgraph fixture is exempt — it feeds the structural unit tests in
// callgraph_test.go, not the golden harness.
func TestGoldenNonEmpty(t *testing.T) {
	dirs, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == "callgraph" {
			continue
		}
		golden := filepath.Join("testdata", d.Name(), "golden")
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("%s: %v", golden, err)
			continue
		}
		if len(strings.TrimSpace(string(data))) == 0 {
			t.Errorf("%s: golden file is empty; positive fixtures must produce diagnostics", golden)
		}
	}
}
