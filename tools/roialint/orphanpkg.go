package main

import "strings"

// OrphanPkg reports internal packages that no non-test file of another
// package imports: code with no production caller at package granularity.
// The loader never parses test files, so a package kept alive only by
// tests counts as orphaned. Only internal/... packages are checked — they
// cannot be imported from outside the module, so nothing else can be
// calling them.
type OrphanPkg struct{}

func (OrphanPkg) Name() string { return "orphanpkg" }

func (OrphanPkg) CheckGraph(g *Graph, r *Reporter) {
	imported := map[string]bool{}
	for _, p := range g.Pkgs {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	for _, p := range g.Pkgs {
		if !g.reportable[p] || imported[p.Path] || !strings.Contains("/"+p.Path+"/", "/internal/") {
			continue
		}
		r.Report(p.Files[0].Name, "orphanpkg",
			"package %s is imported by no non-test code of another package; give it a caller or delete it", p.Path)
	}
}
