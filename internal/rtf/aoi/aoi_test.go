package aoi

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"roia/internal/rtf/entity"
)

func mkWorld(positions []entity.Vec2) []*entity.Entity {
	world := make([]*entity.Entity, len(positions))
	for i, p := range positions {
		world[i] = &entity.Entity{ID: entity.ID(i + 1), Pos: p}
	}
	return world
}

func TestEuclidVisibleBasic(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 4}})
	e := NewEuclid(5)
	got := e.Visible(nil, 1, world[0].Pos, world)
	want := []entity.ID{2, 4} // dist 3 and 4; entity 3 at dist 10 excluded
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Visible = %v, want %v", got, want)
	}
}

func TestEuclidExcludesSubject(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	e := NewEuclid(100)
	got := e.Visible(nil, 1, world[0].Pos, world)
	for _, id := range got {
		if id == 1 {
			t.Fatal("subject included in own AoI")
		}
	}
}

func TestEuclidBoundaryInclusive(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 5, Y: 0}})
	e := NewEuclid(5)
	got := e.Visible(nil, 1, world[0].Pos, world)
	if len(got) != 1 {
		t.Fatalf("entity exactly at radius excluded: %v", got)
	}
}

func TestEuclidNoDuplicates(t *testing.T) {
	// Duplicate IDs in the world list (e.g. transiently during migration)
	// must not produce duplicate subscriptions.
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	world = append(world, world[1]) // same entity listed twice
	e := NewEuclid(10)
	got := e.Visible(nil, 1, world[0].Pos, world)
	if len(got) != 1 {
		t.Fatalf("duplicate subscription: %v", got)
	}
}

// TestGridMatchesEuclidProperty compares one build of the production grid
// index, Incremental, against Euclid on random worlds.
func TestGridMatchesEuclidProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8, radiusRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%100) + 2
		radius := float64(radiusRaw%50) + 1
		positions := make([]entity.Vec2, n)
		for i := range positions {
			positions[i] = entity.Vec2{X: rng.Float64() * 200, Y: rng.Float64() * 200}
		}
		world := mkWorld(positions)
		euclid := NewEuclid(radius)
		grid := NewIncremental(radius)
		grid.Build(world)
		for _, subj := range world {
			a := euclid.Visible(nil, subj.ID, subj.Pos, world)
			b := grid.Visible(nil, subj.ID, subj.Pos, world)
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestVisibleConcurrent exercises the Manager concurrency contract: after
// one Build, Visible must be callable from many goroutines at once. Run
// under -race this proves both implementations (Euclid and the Incremental
// grid) are read-only per query.
func TestVisibleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	positions := make([]entity.Vec2, 200)
	for i := range positions {
		positions[i] = entity.Vec2{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	world := mkWorld(positions)
	for _, tc := range []struct {
		name string
		mgr  Manager
	}{
		{"euclid", NewEuclid(25)},
		{"grid", NewIncremental(25)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.mgr.Build(world)
			// Reference answers computed sequentially.
			want := make([][]entity.ID, len(world))
			for i, subj := range world {
				want[i] = tc.mgr.Visible(nil, subj.ID, subj.Pos, world)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var dst []entity.ID
					for i, subj := range world {
						dst = tc.mgr.Visible(dst[:0], subj.ID, subj.Pos, world)
						if len(dst) != len(want[i]) {
							t.Errorf("subj %d: concurrent Visible len %d, want %d", subj.ID, len(dst), len(want[i]))
							return
						}
						for j := range dst {
							if dst[j] != want[i][j] {
								t.Errorf("subj %d: concurrent Visible diverged", subj.ID)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestGridRebuildReflectsMovement and TestGridNegativeCoordinates pin the
// grid-bucketing edge cases on the production grid index, Incremental.
func TestGridRebuildReflectsMovement(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 100, Y: 100}})
	g := NewIncremental(5)
	g.Build(world)
	if got := g.Visible(nil, 1, world[0].Pos, world); len(got) != 0 {
		t.Fatalf("distant entity visible: %v", got)
	}
	world[1].Pos = entity.Vec2{X: 2, Y: 0}
	g.Build(world)
	if got := g.Visible(nil, 1, world[0].Pos, world); len(got) != 1 {
		t.Fatalf("moved entity invisible: %v", got)
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: -10, Y: -10}, {X: -12, Y: -10}, {X: 10, Y: 10}})
	g := NewIncremental(5)
	g.Build(world)
	got := g.Visible(nil, 1, world[0].Pos, world)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("negative-coordinate visibility = %v", got)
	}
}

func TestVisibleAppendsToDst(t *testing.T) {
	world := mkWorld([]entity.Vec2{{X: 0, Y: 0}, {X: 1, Y: 0}})
	e := NewEuclid(10)
	dst := make([]entity.ID, 1, 8)
	dst[0] = 99
	got := e.Visible(dst, 1, world[0].Pos, world)
	if len(got) != 2 || got[0] != 99 || got[1] != 2 {
		t.Fatalf("append semantics broken: %v", got)
	}
}
