// Package proto defines the wire messages of the RTF runtime protocol:
// client↔server traffic (join, inputs, state keyframes and deltas), server↔server
// replication traffic (shadow updates, forwarded interactions) and the
// user-migration handshake. Application-specific payloads (the actual game
// commands and events) travel as opaque byte blobs inside these envelopes —
// RTF is middleware and stays agnostic of the application logic.
package proto

import (
	"slices"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

// Version is the protocol revision. Changes that alter any message's wire
// layout must bump it; both sides of a connection must agree.
//
//	v1  seed protocol
//	v2  MigrateInit/MigrateAck gained MigID (fleet migration tracing)
//	v3  StateUpdate gained AckSeq (client-perceived response time)
//	v4  JoinNack added (draining servers reject joins explicitly)
//	v5  StateDelta/StateKeyframe added (masked per-entity field deltas
//	    with periodic keyframes; see DESIGN §17)
//	v6  StateUpdate removed: clients receive only StateKeyframe and
//	    StateDelta (see DESIGN §19); its kind number stays reserved
//
// The format has no in-band negotiation: fields are appended at the end of
// a message's fixed prefix or, as with AckSeq, inserted with a version
// bump, and mixed-version fleets are not supported.
const Version = 6

// Message kinds of the RTF protocol.
const (
	KindJoin wire.Kind = iota + 1
	KindJoinAck
	KindLeave
	KindInput
	_ // 5: StateUpdate until v5, reserved so every other kind keeps its number
	KindShadowUpdate
	KindForwarded
	KindMigrateInit
	KindMigrateAck
	KindMigrateNotice
	KindJoinNack
	KindStateDelta
	KindStateKeyframe
)

// Registry decodes every RTF protocol message.
var Registry = wire.NewRegistry(
	func() wire.Message { return &Join{} },
	func() wire.Message { return &JoinAck{} },
	func() wire.Message { return &Leave{} },
	func() wire.Message { return &Input{} },
	func() wire.Message { return &ShadowUpdate{} },
	func() wire.Message { return &Forwarded{} },
	func() wire.Message { return &MigrateInit{} },
	func() wire.Message { return &MigrateAck{} },
	func() wire.Message { return &MigrateNotice{} },
	func() wire.Message { return &JoinNack{} },
	func() wire.Message { return &StateDelta{} },
	func() wire.Message { return &StateKeyframe{} },
)

// refill returns s resized to n elements within its retained capacity,
// allocating only when the capacity is short. Elements that survive from an
// earlier decode keep their old contents until overwritten; unmarshalers
// overwrite every field they read (stale strings serve as reuse hints).
func refill[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Join is sent by a client to enter a zone.
type Join struct {
	// UserName is a display name; the network node ID identifies the user.
	UserName string
	// Zone is the zone to join.
	Zone uint32
	// Pos is the requested spawn position.
	Pos entity.Vec2
}

// WireKind implements wire.Message.
func (*Join) WireKind() wire.Kind { return KindJoin }

// MarshalWire implements wire.Message.
func (m *Join) MarshalWire(w *wire.Writer) {
	w.String(m.UserName)
	w.Uint32(m.Zone)
	w.Float64(m.Pos.X)
	w.Float64(m.Pos.Y)
}

// UnmarshalWire implements wire.Message.
func (m *Join) UnmarshalWire(r *wire.Reader) error {
	m.UserName = r.StringReuse(m.UserName)
	m.Zone = r.Uint32()
	m.Pos.X = r.Float64()
	m.Pos.Y = r.Float64()
	return r.Err()
}

// JoinAck confirms a join and tells the client its avatar entity ID.
type JoinAck struct {
	Entity entity.ID
	// Tick is the server tick at which the avatar became live.
	Tick uint64
}

// WireKind implements wire.Message.
func (*JoinAck) WireKind() wire.Kind { return KindJoinAck }

// MarshalWire implements wire.Message.
func (m *JoinAck) MarshalWire(w *wire.Writer) {
	w.Uint64(uint64(m.Entity))
	w.Uint64(m.Tick)
}

// UnmarshalWire implements wire.Message.
func (m *JoinAck) UnmarshalWire(r *wire.Reader) error {
	m.Entity = entity.ID(r.Uint64())
	m.Tick = r.Uint64()
	return r.Err()
}

// Leave is sent by a client disconnecting cleanly.
type Leave struct{}

// WireKind implements wire.Message.
func (*Leave) WireKind() wire.Kind { return KindLeave }

// MarshalWire implements wire.Message.
func (*Leave) MarshalWire(*wire.Writer) {}

// UnmarshalWire implements wire.Message.
func (*Leave) UnmarshalWire(r *wire.Reader) error { return r.Err() }

// Input carries one application-specific user command.
type Input struct {
	// Seq is a client-side sequence number (diagnostics, dedup).
	Seq uint64
	// Payload is the application-encoded command.
	Payload []byte
}

// WireKind implements wire.Message.
func (*Input) WireKind() wire.Kind { return KindInput }

// MarshalWire implements wire.Message.
func (m *Input) MarshalWire(w *wire.Writer) {
	w.Uint64(m.Seq)
	w.Blob(m.Payload)
}

// UnmarshalWire implements wire.Message.
func (m *Input) UnmarshalWire(r *wire.Reader) error {
	m.Seq = r.Uint64()
	m.Payload = r.Blob()
	return r.Err()
}

// ShadowUpdate replicates the states of a server's active entities to the
// other replicas of the zone ("sending updates of their own users to other
// servers that are replicating the same zone").
type ShadowUpdate struct {
	Tick     uint64
	Entities []entity.Entity
	// Removed lists entities that left the zone (disconnected users,
	// despawned NPCs); replicas drop their shadow copies.
	Removed []entity.ID
}

// WireKind implements wire.Message.
func (*ShadowUpdate) WireKind() wire.Kind { return KindShadowUpdate }

// MarshalWire implements wire.Message.
func (m *ShadowUpdate) MarshalWire(w *wire.Writer) {
	w.Uint64(m.Tick)
	w.Uvarint(uint64(len(m.Entities)))
	for i := range m.Entities {
		m.Entities[i].MarshalWire(w)
	}
	w.Uvarint(uint64(len(m.Removed)))
	for _, id := range m.Removed {
		w.Uint64(uint64(id))
	}
}

// UnmarshalWire implements wire.Message.
func (m *ShadowUpdate) UnmarshalWire(r *wire.Reader) error {
	m.Tick = r.Uint64()
	m.Entities = refill(m.Entities, r.Count(entity.MinWireSize, 1))
	for i := range m.Entities {
		if err := m.Entities[i].UnmarshalWire(r); err != nil {
			return err
		}
	}
	m.Removed = refill(m.Removed, r.Count(8, 0))
	for i := range m.Removed {
		m.Removed[i] = entity.ID(r.Uint64())
	}
	return r.Err()
}

// Forwarded carries an interaction whose target is active on another
// replica ("forwarding the interactions between users that are connected
// to different servers to the responsible server").
type Forwarded struct {
	// Actor is the entity that caused the interaction.
	Actor entity.ID
	// Target is the entity the interaction applies to (active on the
	// receiving server).
	Target entity.ID
	// Payload is the application-encoded interaction.
	Payload []byte
}

// WireKind implements wire.Message.
func (*Forwarded) WireKind() wire.Kind { return KindForwarded }

// MarshalWire implements wire.Message.
func (m *Forwarded) MarshalWire(w *wire.Writer) {
	w.Uint64(uint64(m.Actor))
	w.Uint64(uint64(m.Target))
	w.Blob(m.Payload)
}

// UnmarshalWire implements wire.Message.
func (m *Forwarded) UnmarshalWire(r *wire.Reader) error {
	m.Actor = entity.ID(r.Uint64())
	m.Target = entity.ID(r.Uint64())
	m.Payload = r.Blob()
	return r.Err()
}

// MigrateInit transfers responsibility for a user from the source server to
// the target server: the avatar state plus an opaque application state blob
// (inventory, cooldowns, ...).
type MigrateInit struct {
	// MigID is the migration's unique identifier, assigned by the source
	// server and echoed in the MigrateAck, so begin/end spans recorded on
	// different replicas stitch into one cross-replica trace.
	MigID uint64
	// User is the network ID of the migrating client.
	User string
	// Avatar is the user's entity state at handoff.
	Avatar entity.Entity
	// AppState is the application-specific user state.
	AppState []byte
}

// WireKind implements wire.Message.
func (*MigrateInit) WireKind() wire.Kind { return KindMigrateInit }

// MarshalWire implements wire.Message.
func (m *MigrateInit) MarshalWire(w *wire.Writer) {
	w.Uint64(m.MigID)
	w.String(m.User)
	m.Avatar.MarshalWire(w)
	w.Blob(m.AppState)
}

// UnmarshalWire implements wire.Message.
func (m *MigrateInit) UnmarshalWire(r *wire.Reader) error {
	m.MigID = r.Uint64()
	m.User = r.StringReuse(m.User)
	if err := m.Avatar.UnmarshalWire(r); err != nil {
		return err
	}
	m.AppState = r.Blob()
	return r.Err()
}

// MigrateAck confirms a completed migration back to the source server.
type MigrateAck struct {
	// MigID echoes the MigrateInit's migration identifier.
	MigID  uint64
	User   string
	Avatar entity.ID
}

// WireKind implements wire.Message.
func (*MigrateAck) WireKind() wire.Kind { return KindMigrateAck }

// MarshalWire implements wire.Message.
func (m *MigrateAck) MarshalWire(w *wire.Writer) {
	w.Uint64(m.MigID)
	w.String(m.User)
	w.Uint64(uint64(m.Avatar))
}

// UnmarshalWire implements wire.Message.
func (m *MigrateAck) UnmarshalWire(r *wire.Reader) error {
	m.MigID = r.Uint64()
	m.User = r.StringReuse(m.User)
	m.Avatar = entity.ID(r.Uint64())
	return r.Err()
}

// MigrateNotice tells a client to switch its connection to a new server.
type MigrateNotice struct {
	// NewServer is the node ID of the server now responsible for the user.
	NewServer string
}

// WireKind implements wire.Message.
func (*MigrateNotice) WireKind() wire.Kind { return KindMigrateNotice }

// MarshalWire implements wire.Message.
func (m *MigrateNotice) MarshalWire(w *wire.Writer) { w.String(m.NewServer) }

// UnmarshalWire implements wire.Message.
func (m *MigrateNotice) UnmarshalWire(r *wire.Reader) error {
	m.NewServer = r.StringReuse(m.NewServer)
	return r.Err()
}

// JoinNack rejects a Join outright: the server cannot admit the user and
// knows no peer to redirect to (a draining last replica). Without it a
// draining server would silently drop the Join and the client would hang;
// with it the client fails fast and can retry against a fresh assignment.
type JoinNack struct {
	// Reason is a short human-readable explanation ("draining").
	Reason string
}

// WireKind implements wire.Message.
func (*JoinNack) WireKind() wire.Kind { return KindJoinNack }

// MarshalWire implements wire.Message.
func (m *JoinNack) MarshalWire(w *wire.Writer) { w.String(m.Reason) }

// UnmarshalWire implements wire.Message.
func (m *JoinNack) UnmarshalWire(r *wire.Reader) error {
	m.Reason = r.StringReuse(m.Reason)
	return r.Err()
}
