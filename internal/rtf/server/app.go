package server

import (
	"math/rand"

	"roia/internal/rtf/entity"
)

// Application is the callback interface through which RTF executes the
// application logic inside the real-time loop. The game (internal/game)
// implements it; RTF itself stays application-agnostic, exactly as the
// paper's middleware separates application developers from the framework.
//
// All callbacks run on the server's tick goroutine; implementations may
// freely mutate the entities they are handed and need no locking of their
// own.
type Application interface {
	// SpawnAvatar returns the initial entity state for a joining user.
	SpawnAvatar(env *Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity

	// ApplyInput validates and applies one user input to the actor's
	// state. Interactions that target entities active on other replicas
	// are returned as forwards; RTF routes them to the responsible server
	// (the "forwarded inputs" of the model). Invalid inputs return an
	// error and are dropped. The server consumes the forwards before its
	// next call into the application, so they may live in a buffer the
	// application reuses; payload is valid only during the call.
	ApplyInput(env *Env, actor *entity.Entity, payload []byte) ([]Forward, error)

	// ApplyForwarded applies an interaction forwarded from another replica
	// to a locally-active target (e.g. lowering the target's health after
	// a remote attack).
	ApplyForwarded(env *Env, actor entity.ID, target *entity.Entity, payload []byte) error

	// UpdateNPC advances one locally-active NPC by one tick. Like user
	// inputs, NPC behaviour may produce interactions with entities active
	// on other replicas; they are returned as forwards. The model's
	// t_npc(n, m) covers exactly this: "calculating interactions between
	// NPCs and users". As with ApplyInput, the forwards may live in a
	// reused buffer — except under ConcurrentSimulator, where the server
	// keeps every NPC's forwards until all updates have run.
	UpdateNPC(env *Env, npc *entity.Entity) []Forward

	// DrainEvents returns and clears the application events pending for
	// the user owning the given avatar (delivered in the Events field of
	// the next state update). The server encodes the bytes before the next
	// tick's callbacks, so the application may reuse the buffer after that.
	DrainEvents(env *Env, avatar entity.ID) []byte

	// EncodeUserState serializes the application-specific state attached
	// to an avatar for migration (the payload whose cost is t_mig_ini on
	// the source server).
	EncodeUserState(env *Env, avatar entity.ID) []byte

	// ApplyUserState installs migrated application state on the receiving
	// server (cost t_mig_rcv).
	ApplyUserState(env *Env, avatar entity.ID, data []byte)
}

// ConcurrentSimulator is an optional Application capability: an
// application whose UpdateNPC is a pure per-NPC function may declare it to
// let the tick pipeline fan NPC updates over the executor's workers.
//
// Declaring the capability asserts that UpdateNPC
//
//   - never uses env.Rand (the shared sequential random source would make
//     results depend on NPC scheduling order), and
//   - mutates only the npc entity it is handed — it may not write any
//     other entity or the store; cross-entity effects must be returned as
//     forwards.
//
// In exchange, the server runs NPC updates in two phases regardless of
// worker count — compute all updates (parallel, results in per-NPC slots),
// then apply the returned forwards sequentially in NPC ID order — so
// sequential and parallel executions are byte-identical by construction.
// Applications that do not implement the capability (internal/game uses
// env.Rand for movement) keep the original inline sequential path on every
// worker count.
type ConcurrentSimulator interface {
	// ConcurrentNPCUpdates reports whether UpdateNPC satisfies the purity
	// contract above.
	ConcurrentNPCUpdates() bool
}

// Forward is an interaction that must be applied on the replica owning the
// target entity.
type Forward struct {
	// Target is the entity the interaction applies to.
	Target entity.ID
	// Payload is the application-encoded interaction.
	Payload []byte
}

// Env is the execution environment RTF hands to application callbacks.
type Env struct {
	// ServerID is the node ID of the executing server.
	ServerID string
	// Tick is the current tick number.
	Tick uint64
	// Store is the server's full replica of the zone state.
	Store *entity.Store
	// Rand is the server's deterministic random source. Seeded from the
	// server configuration, so simulated sessions replay identically.
	Rand *rand.Rand
}
