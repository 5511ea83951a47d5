package proto

import (
	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

// EntityDelta is one entity's masked field changes inside a StateDelta.
// Only the field groups named by Mask are meaningful in State; the client
// applies them onto its previous copy of the entity. On the wire the ID
// travels gap-encoded at the StateDelta framing level, not here.
type EntityDelta struct {
	ID    entity.ID
	Mask  entity.FieldMask
	State entity.Entity
}

// minDeltaSize is the smallest encoding of one EntityDelta: a one-byte ID
// gap and the mask byte.
const minDeltaSize = 2

// unmarshalMasked decodes the masked field groups of a delta record into e
// and zeroes the rest, so a reused record holds exactly what a fresh one
// would. The previous owner survives only as the reuse hint for a masked
// owner string.
func unmarshalMasked(r *wire.Reader, e *entity.Entity, mask entity.FieldMask) error {
	owner := ""
	if mask&entity.FieldOwner != 0 {
		owner = e.Owner
	}
	*e = entity.Entity{Owner: owner}
	return e.UnmarshalDelta(r, mask)
}

// StateDelta is the per-tick incremental state update of protocol v5: the
// difference between the client's visible world at BaseTick (the previous
// update it applied) and at Tick. A client that missed the base — joins,
// migrations, dropped frames — cannot apply it and waits for the next
// StateKeyframe instead (resync).
//
// Updates, Enters and Gone are strictly ascending by entity ID; ID columns
// are gap-encoded (first absolute, then successive differences) so dense ID
// ranges cost one byte per entity. Encoding is fully deterministic, which
// preserves the byte-identical-across-parallelism pipeline contract.
type StateDelta struct {
	// Tick is the server tick this delta advances the client to.
	Tick uint64
	// BaseTick is the tick of the update this delta applies on top of.
	BaseTick uint64
	// AckSeq is the last applied input sequence number (see StateUpdate).
	AckSeq uint64
	// SelfMask names the avatar field groups that changed; Self carries
	// only those (the avatar's ID never travels — the client knows it).
	SelfMask entity.FieldMask
	Self     entity.Entity
	// Updates are masked changes to entities already visible at BaseTick.
	Updates []EntityDelta
	// Enters are full records of entities that entered the visible set.
	Enters []entity.Entity
	// Gone lists entities that left the visible set.
	Gone []entity.ID
	// Events is an opaque application payload (e.g. hits suffered).
	Events []byte
}

// WireKind implements wire.Message.
func (*StateDelta) WireKind() wire.Kind { return KindStateDelta }

// MarshalWire implements wire.Message.
func (m *StateDelta) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Tick)
	w.Uvarint(m.Tick - m.BaseTick)
	w.Uvarint(m.AckSeq)
	w.Uint8(uint8(m.SelfMask))
	m.Self.MarshalDelta(w, m.SelfMask)
	w.Uvarint(uint64(len(m.Updates)))
	prev := uint64(0)
	for i := range m.Updates {
		u := &m.Updates[i]
		w.Uvarint(uint64(u.ID) - prev)
		prev = uint64(u.ID)
		w.Uint8(uint8(u.Mask))
		u.State.MarshalDelta(w, u.Mask)
	}
	w.Uvarint(uint64(len(m.Enters)))
	for i := range m.Enters {
		m.Enters[i].MarshalWire(w)
	}
	w.Uvarint(uint64(len(m.Gone)))
	prev = 0
	for _, id := range m.Gone {
		w.Uvarint(uint64(id) - prev)
		prev = uint64(id)
	}
	w.Blob(m.Events)
}

// UnmarshalWire implements wire.Message.
func (m *StateDelta) UnmarshalWire(r *wire.Reader) error {
	m.Tick = r.Uvarint()
	m.BaseTick = m.Tick - r.Uvarint()
	m.AckSeq = r.Uvarint()
	m.SelfMask = entity.FieldMask(r.Uint8())
	if err := unmarshalMasked(r, &m.Self, m.SelfMask); err != nil {
		return err
	}
	// Each column is followed by the remaining columns' counts and the
	// Events length, one byte each at least.
	m.Updates = refill(m.Updates, r.Count(minDeltaSize, 3))
	prev := uint64(0)
	for i := range m.Updates {
		u := &m.Updates[i]
		prev += r.Uvarint()
		u.ID = entity.ID(prev)
		u.Mask = entity.FieldMask(r.Uint8())
		if err := unmarshalMasked(r, &u.State, u.Mask); err != nil {
			return err
		}
	}
	m.Enters = refill(m.Enters, r.Count(entity.MinWireSize, 2))
	for i := range m.Enters {
		if err := m.Enters[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	m.Gone = refill(m.Gone, r.Count(1, 1))
	prev = 0
	for i := range m.Gone {
		prev += r.Uvarint()
		m.Gone[i] = entity.ID(prev)
	}
	m.Events = r.Blob()
	return r.Err()
}

// StateKeyframe is a full self-contained state update of protocol v5: the
// client replaces its visible world wholesale. Keyframes are emitted on a
// configurable cadence and forced whenever a client has no valid delta base
// (join, migration, resync after loss), bounding how long a desynchronized
// client stays stale.
type StateKeyframe struct {
	// Tick is the server tick this keyframe reflects.
	Tick uint64
	// AckSeq is the last applied input sequence number (see StateUpdate).
	AckSeq uint64
	// Self is the client's own avatar state.
	Self entity.Entity
	// Visible is the complete area-of-interest-filtered entity set, in
	// ascending ID order.
	Visible []entity.Entity
	// Events is an opaque application payload (e.g. hits suffered).
	Events []byte
}

// WireKind implements wire.Message.
func (*StateKeyframe) WireKind() wire.Kind { return KindStateKeyframe }

// MarshalWire implements wire.Message.
func (m *StateKeyframe) MarshalWire(w *wire.Writer) {
	w.Uvarint(m.Tick)
	w.Uvarint(m.AckSeq)
	m.Self.MarshalWire(w)
	w.Uvarint(uint64(len(m.Visible)))
	for i := range m.Visible {
		m.Visible[i].MarshalWire(w)
	}
	w.Blob(m.Events)
}

// UnmarshalWire implements wire.Message.
func (m *StateKeyframe) UnmarshalWire(r *wire.Reader) error {
	m.Tick = r.Uvarint()
	m.AckSeq = r.Uvarint()
	if err := m.Self.UnmarshalWire(r); err != nil {
		return err
	}
	m.Visible = refill(m.Visible, r.Count(entity.MinWireSize, 1))
	for i := range m.Visible {
		if err := m.Visible[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	m.Events = r.Blob()
	return r.Err()
}
