package aoi

import (
	"math"

	"roia/internal/rtf/entity"
)

// Incremental is a uniform spatial hash that is maintained, not rebuilt:
// Build re-buckets only the entities that moved across a cell boundary
// since the previous tick and evicts the ones that despawned, instead of
// reallocating the whole index. In the steady state (no new cells visited,
// slice capacities warmed up) Build allocates nothing, which is what lets
// the publish stage hit 0 allocs/op.
//
// Visible output is deterministic (cell scan order and within-cell
// insertion order are fully determined by the Build history) but NOT
// ID-sorted, unlike Euclid's; callers that need sorted visible sets — the
// delta publish path's merge diff does — must sort the result.
type Incremental struct {
	// Radius is the visibility radius.
	Radius float64
	// CellSize is the edge length of one grid cell; zero defaults to
	// Radius (the usual choice: candidates lie in the 3×3 neighbourhood).
	CellSize float64

	// cells maps a cell to its residents. Emptied cells keep their slice
	// (capacity is the point of the exercise); the map grows with the area
	// the world has ever visited, bounded by world size / cell size.
	cells map[cellKey][]resident
	// slots tracks where each live entity currently resides, so a move is
	// a swap-remove plus an append rather than a rebuild.
	slots map[entity.ID]slot
	// prevIDs/curIDs are reusable ascending-ID scratch sets for the
	// despawn merge walk.
	prevIDs []entity.ID
	curIDs  []entity.ID
}

type cellKey struct{ cx, cy int32 }

type resident struct {
	id  entity.ID
	pos entity.Vec2
}

type slot struct {
	key cellKey
	idx int32
}

// NewIncremental returns an Incremental manager with the given visibility
// radius.
func NewIncremental(radius float64) *Incremental {
	return &Incremental{
		Radius: radius,
		cells:  make(map[cellKey][]resident),
		slots:  make(map[entity.ID]slot),
	}
}

func (g *Incremental) cellSize() float64 {
	if g.CellSize > 0 {
		return g.CellSize
	}
	if g.Radius > 0 {
		return g.Radius
	}
	return 1
}

func (g *Incremental) key(pos entity.Vec2) cellKey {
	cs := g.cellSize()
	return cellKey{int32(math.Floor(pos.X / cs)), int32(math.Floor(pos.Y / cs))}
}

// Build implements Manager: it folds the tick's world (ascending ID order)
// into the live index. New entities are bucketed, entities that crossed a
// cell boundary are re-bucketed, entities that moved within their cell get
// their stored position refreshed, and entities absent from world are
// evicted via a merge walk of the previous and current ID sets.
func (g *Incremental) Build(world []*entity.Entity) {
	if g.cells == nil { // zero-value construction
		g.cells = make(map[cellKey][]resident)
		g.slots = make(map[entity.ID]slot)
	}
	g.curIDs = g.curIDs[:0]
	for _, e := range world {
		g.curIDs = append(g.curIDs, e.ID)
		k := g.key(e.Pos)
		sl, ok := g.slots[e.ID]
		switch {
		case !ok:
			g.add(e.ID, e.Pos, k)
		case sl.key == k:
			g.cells[k][sl.idx].pos = e.Pos
		default:
			g.remove(sl)
			g.add(e.ID, e.Pos, k)
		}
	}
	// Evict despawned entities: IDs in the previous set but not the
	// current one. Both sets are ascending, so one merge walk finds them.
	i, j := 0, 0
	for i < len(g.prevIDs) {
		for j < len(g.curIDs) && g.curIDs[j] < g.prevIDs[i] {
			j++
		}
		if j >= len(g.curIDs) || g.curIDs[j] != g.prevIDs[i] {
			id := g.prevIDs[i]
			if sl, ok := g.slots[id]; ok {
				g.remove(sl)
				delete(g.slots, id)
			}
		}
		i++
	}
	g.prevIDs, g.curIDs = g.curIDs, g.prevIDs
}

func (g *Incremental) add(id entity.ID, pos entity.Vec2, k cellKey) {
	c := g.cells[k]
	g.slots[id] = slot{key: k, idx: int32(len(c))}
	g.cells[k] = append(c, resident{id: id, pos: pos})
}

// remove swap-deletes a resident from its cell, fixing the displaced
// resident's slot index. The caller owns the slots entry of the removed ID.
func (g *Incremental) remove(sl slot) {
	c := g.cells[sl.key]
	last := len(c) - 1
	if int(sl.idx) != last {
		moved := c[last]
		c[sl.idx] = moved
		g.slots[moved.id] = slot{key: sl.key, idx: sl.idx}
	}
	g.cells[sl.key] = c[:last]
}

// Visible implements Manager over the state folded in by Build. It never
// mutates the index (the Manager concurrency contract); if Build has not
// run yet it falls back to a read-only linear scan of world.
func (g *Incremental) Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID {
	r2 := g.Radius * g.Radius
	if g.slots == nil || len(g.slots) == 0 {
		for _, cand := range world {
			if cand.ID != subject && pos.Dist2(cand.Pos) <= r2 {
				dst = append(dst, cand.ID)
			}
		}
		return dst
	}
	cs := g.cellSize()
	// A disc of radius R around a point inside cell c only reaches cells
	// within ceil(R/cs) index distance: floor((x±R)/cs) is bounded by
	// floor(x/cs) ± ceil(R/cs). With the usual CellSize == Radius this is
	// the classic 3×3 neighbourhood.
	reach := int32(math.Ceil(g.Radius / cs))
	center := g.key(pos)
	for dy := -reach; dy <= reach; dy++ {
		for dx := -reach; dx <= reach; dx++ {
			for _, cand := range g.cells[cellKey{center.cx + dx, center.cy + dy}] {
				if cand.id == subject {
					continue
				}
				if pos.Dist2(cand.pos) <= r2 {
					dst = append(dst, cand.id)
				}
			}
		}
	}
	return dst
}

// Diff merge-walks two ascending entity-ID sets, appending the IDs present
// only in cur to enters and the IDs present only in prev to gone, and
// returns both extended slices. It is the visible-set differ of the delta
// publish path: prev is the client's last published visible set, cur the
// tick's new one, and the outputs become the StateDelta Enters/Gone columns
// (and the AoI-churn metric counts). Passing recycled [:0] slices keeps it
// allocation-free.
func Diff(prev, cur, enters, gone []entity.ID) (e, g []entity.ID) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] == cur[j]:
			i++
			j++
		case prev[i] < cur[j]:
			gone = append(gone, prev[i])
			i++
		default:
			enters = append(enters, cur[j])
			j++
		}
	}
	for ; i < len(prev); i++ {
		gone = append(gone, prev[i])
	}
	for ; j < len(cur); j++ {
		enters = append(enters, cur[j])
	}
	return enters, gone
}
