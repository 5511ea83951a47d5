package main

import (
	"path/filepath"
	"testing"
)

// loadCallgraphFixture builds the graph over the callgraph unit fixture.
func loadCallgraphFixture(t *testing.T) *Graph {
	t.Helper()
	loader, err := NewLoader("testdata")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "callgraph"), "fixture/callgraph")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return BuildGraph(loader, []*Package{pkg}, nil)
}

func findNode(t *testing.T, g *Graph, name string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no node named %q in graph (have %d nodes)", name, len(g.Nodes))
	return nil
}

func edgesTo(n *FuncNode, callee *FuncNode) []Edge {
	var out []Edge
	for _, e := range n.Edges {
		if e.Callee == callee {
			out = append(out, e)
		}
	}
	return out
}

// TestGraphShape checks nodes, edge kinds, and root detection on the
// miniature tick pipeline.
func TestGraphShape(t *testing.T) {
	g := loadCallgraphFixture(t)

	tick := findNode(t, g, "(*Server).Tick")
	if !tick.TickRoot {
		t.Error("(*Server).Tick: TickRoot = false, want true")
	}

	worker := findNode(t, g, "(*Server).Tick.func1")
	if !worker.WorkerRoot {
		t.Error("worker closure: WorkerRoot = false, want true")
	}
	if item := findNode(t, g, "(*Server).item"); !item.WorkerRoot {
		t.Error("(*Server).item: WorkerRoot = false, want true (worker-typed method value)")
	}
	if es := edgesTo(tick, worker); len(es) != 1 || es[0].Kind != EdgeRef {
		t.Errorf("Tick→worker edges = %+v, want one EdgeRef", es)
	}

	helper := findNode(t, g, "helper")
	if es := edgesTo(worker, helper); len(es) != 1 || es[0].Kind != EdgeCall {
		t.Errorf("worker→helper edges = %+v, want one EdgeCall", es)
	}

	spawned := findNode(t, g, "spawned")
	if es := edgesTo(tick, spawned); len(es) != 1 || es[0].Kind != EdgeSpawn {
		t.Errorf("Tick→spawned edges = %+v, want one EdgeSpawn", es)
	}
	var spawnSite *Site
	for _, s := range tick.Sites {
		if s.Kind == SiteSpawn {
			spawnSite = s
		}
	}
	if spawnSite == nil || spawnSite.Target != spawned {
		t.Errorf("Tick spawn site target = %v, want the spawned node", spawnSite)
	}

	// Interface resolution: drive's Put call becomes a dynamic edge to the
	// single module implementation.
	drive := findNode(t, g, "drive")
	put := findNode(t, g, "(*mem).Put")
	es := edgesTo(drive, put)
	if len(es) != 1 || es[0].Kind != EdgeCall || !es[0].Dynamic {
		t.Errorf("drive→(*mem).Put edges = %+v, want one dynamic EdgeCall", es)
	}
}

// TestGraphSummaries checks the fixpoint bits: blocking through static
// calls only, emission through every edge, stop evidence on the spawnee.
func TestGraphSummaries(t *testing.T) {
	g := loadCallgraphFixture(t)

	helper := findNode(t, g, "helper")
	if !helper.Blocks {
		t.Error("helper (time.Sleep): Blocks = false, want true")
	}
	worker := findNode(t, g, "(*Server).Tick.func1")
	if !worker.Blocks {
		t.Error("worker closure: Blocks = false, want true (static call to helper)")
	}
	tick := findNode(t, g, "(*Server).Tick")
	if tick.Blocks {
		t.Error("Tick: Blocks = true, want false (EdgeRef and EdgeSpawn must not propagate blocking)")
	}

	spawned := findNode(t, g, "spawned")
	if !spawned.stops {
		t.Error("spawned (channel receive): stops = false, want true")
	}

	// (*mem).Put emits via fmt.Println in emit; drive reaches it only
	// through a dynamic edge — emission still propagates.
	emit := findNode(t, g, "emit")
	if !emit.Emits {
		t.Error("emit (fmt.Println): Emits = false, want true")
	}
	drive := findNode(t, g, "drive")
	if !drive.Emits {
		t.Error("drive: Emits = false, want true (emission propagates through dynamic edges)")
	}
}

// TestGraphReachability checks the hot-path and determinism scopes.
func TestGraphReachability(t *testing.T) {
	g := loadCallgraphFixture(t)

	tick := findNode(t, g, "(*Server).Tick")
	worker := findNode(t, g, "(*Server).Tick.func1")
	helper := findNode(t, g, "helper")
	spawned := findNode(t, g, "spawned")
	drive := findNode(t, g, "drive")
	put := findNode(t, g, "(*mem).Put")
	item := findNode(t, g, "(*Server).item")
	itemHelper := findNode(t, g, "itemHelper")

	for _, tc := range []struct {
		n    *FuncNode
		hot  bool
		det  bool
		desc string
	}{
		{tick, true, false, "Tick: hot root, not in the det scope"},
		{worker, true, true, "worker closure: both scopes' root"},
		{helper, true, true, "helper: reached from the worker"},
		{spawned, false, false, "spawned: spawn edges do not extend reachability"},
		{drive, false, false, "drive: not reached from any root"},
		{put, false, false, "(*mem).Put: only reachable via unrooted drive"},
		{item, true, true, "method-value worker: both scopes' root"},
		{itemHelper, true, true, "itemHelper: reached from the method-value worker"},
	} {
		if got := g.HotPath(tc.n); got != tc.hot {
			t.Errorf("%s: HotPath = %v, want %v", tc.desc, got, tc.hot)
		}
		if got := g.DetScope(tc.n); got != tc.det {
			t.Errorf("%s: DetScope = %v, want %v", tc.desc, got, tc.det)
		}
	}
}

// TestHotPathBaselineRoundTrip writes a baseline from the hotpathalloc
// fixture and re-runs the analyzer against it: every finding must be
// absorbed (suppressed but still visible to -json), and the baseline must
// hold line-number-independent keys only.
func TestHotPathBaselineRoundTrip(t *testing.T) {
	loader, err := NewLoader("testdata")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "hotpathalloc"), "fixture/hotpathalloc")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	g := BuildGraph(loader, []*Package{pkg}, nil)

	r1 := NewReporter(loader.Fset, loader.Root)
	HotPathAlloc{}.CheckGraph(g, r1)
	open := len(r1.Diagnostics())
	if open == 0 {
		t.Fatal("fixture produced no findings; the round-trip test needs debt to freeze")
	}

	baseline := filepath.Join(t.TempDir(), "baseline")
	rw := NewReporter(loader.Fset, loader.Root)
	HotPathAlloc{BaselinePath: baseline, WriteBaseline: true}.CheckGraph(g, rw)
	if n := len(rw.Diagnostics()); n != 0 {
		t.Fatalf("write-baseline pass reported %d finding(s): %v", n, rw.Diagnostics())
	}

	r2 := NewReporter(loader.Fset, loader.Root)
	HotPathAlloc{BaselinePath: baseline}.CheckGraph(g, r2)
	if n := len(r2.Diagnostics()); n != 0 {
		t.Errorf("baselined run still has %d active finding(s): %v", n, r2.Diagnostics())
	}
	if got := r2.Suppressed(); got != open {
		t.Errorf("baselined run suppressed %d, want %d", got, open)
	}
	all := r2.AllDiagnostics()
	if len(all) != open {
		t.Errorf("AllDiagnostics has %d entries, want %d (baselined findings stay visible)", len(all), open)
	}
	for _, d := range all {
		if !d.Suppressed {
			t.Errorf("finding not marked suppressed: %v", d)
		}
	}
}
