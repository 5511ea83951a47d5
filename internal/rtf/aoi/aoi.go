// Package aoi implements interest management: computing each user's area of
// interest so that state-update filtering only transmits visible changes
// (step 4 of the paper's real-time loop, parameter t_aoi).
//
// Two algorithms are provided:
//
//   - Euclid is the Euclidean Distance Algorithm used by RTFDemo (Section
//     V-A, citing Boulanger et al.): for every subject, iterate over all
//     other entities, test the distance against the visibility radius, and
//     guard each subscription with a duplicate check over the subject's
//     update list. Its per-user cost grows quadratically with the user
//     count — exactly the behaviour the paper fits t_aoi with.
//   - Incremental is a uniform spatial hash maintained across ticks, the
//     standard faster alternative and the production index; the ablation
//     benchmarks (BenchmarkAoI*) show how the choice of interest-management
//     algorithm shifts the model parameter.
package aoi

import "roia/internal/rtf/entity"

// Manager computes the set of entities visible to a subject.
//
// Concurrency contract: Build is called once per tick by the tick
// goroutine, before any Visible call for that tick. Between one Build and
// the next, Visible must be safe to call from multiple goroutines
// concurrently — the parallel publish stage fans per-user queries over a
// worker pool — so Visible must not mutate manager state. Each caller
// passes its own dst slice; world is the same immutable snapshot slice
// Build received and must not be written through. Both implementations in
// this package (Euclid and Incremental) satisfy the contract.
type Manager interface {
	// Build prepares the manager for a tick's worth of Visible queries
	// over the given world (e.g. re-indexing a spatial hash). Managers
	// without per-tick state treat it as a no-op.
	Build(world []*entity.Entity)
	// Visible appends to dst the IDs of all entities in world (excluding
	// the subject itself) within the manager's visibility radius of pos,
	// and returns the extended slice. world is in deterministic ID order.
	// Visible is read-only on the manager and on world: see the
	// concurrency contract above.
	Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID
}

// Euclid is the paper's O(n²)-flavoured Euclidean Distance Algorithm.
type Euclid struct {
	// Radius is the visibility radius.
	Radius float64
}

// NewEuclid returns a Euclid manager with the given visibility radius.
func NewEuclid(radius float64) *Euclid { return &Euclid{Radius: radius} }

// Build implements Manager; the Euclidean algorithm keeps no per-tick
// state, so it is a no-op.
func (e *Euclid) Build([]*entity.Entity) {}

// Visible implements Manager. Following the paper's description of
// RTFDemo, each candidate subscription scans the update list built so far
// to avoid duplicate entries ("for each subscription, RTFDemo iterates
// through the update list in order to avoid duplicate entries").
func (e *Euclid) Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID {
	r2 := e.Radius * e.Radius
	start := len(dst)
	for _, cand := range world {
		if cand.ID == subject {
			continue
		}
		if pos.Dist2(cand.Pos) > r2 {
			continue
		}
		dup := false
		for _, seen := range dst[start:] {
			if seen == cand.ID {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, cand.ID)
		}
	}
	return dst
}
