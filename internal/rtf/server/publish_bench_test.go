package server_test

// Allocation benchmark for the publish half of the tick: n users in mutual
// view, moving NPCs dirtying the world every tick, proto v5 delta stream.
// The sink node discards frames without copying, so the measurement is the
// server pipeline alone — the acceptance bar is 0 allocs/op in steady
// state (see DESIGN §17 and ISSUE 10).

import (
	"fmt"
	"testing"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
)

// sinkNode is a transport.Node that counts and discards everything sent
// through it. Its inbox is fed directly by the benchmark setup (joins) and
// is empty in steady state. It implements transport.BatchSender so the
// server's outbox takes the vectored-write path. With digest set, sum
// folds every sent payload into an FNV-1a hash, so two runs' byte streams
// can be compared.
type sinkNode struct {
	id     string
	in     chan transport.Frame
	frames int64
	bytes  int64
	digest bool
	sum    uint64
}

func newSinkNode(id string, depth int) *sinkNode {
	return &sinkNode{id: id, in: make(chan transport.Frame, depth)}
}

func (n *sinkNode) ID() string { return n.id }

func (n *sinkNode) Send(to string, payload []byte) error {
	n.frames++
	n.bytes += int64(len(payload))
	n.fold(payload)
	return nil
}

func (n *sinkNode) SendBatch(to string, payloads [][]byte) error {
	n.frames += int64(len(payloads))
	for _, p := range payloads {
		n.bytes += int64(len(p))
		n.fold(p)
	}
	return nil
}

func (n *sinkNode) fold(payload []byte) {
	if !n.digest {
		return
	}
	if n.sum == 0 {
		n.sum = 14695981039346656037 // FNV-1a offset basis
	}
	for _, b := range payload {
		n.sum = (n.sum ^ uint64(b)) * 1099511628211
	}
}

func (n *sinkNode) Inbox() <-chan transport.Frame { return n.in }
func (n *sinkNode) Close() error                  { close(n.in); return nil }

// benchApp is a minimal allocation-free Application: NPCs drift every tick
// (keeping the world dirty so deltas are never empty), users apply inputs
// by moving.
type benchApp struct{}

func (benchApp) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	return &entity.Entity{ID: id, Pos: pos, Health: 100}
}

func (benchApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	if len(payload) >= 2 {
		actor.Pos.X += float64(int8(payload[0]))
		actor.Pos.Y += float64(int8(payload[1]))
	}
	return nil, nil
}

func (benchApp) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	return nil
}

func (benchApp) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	// Oscillating patrol: every NPC moves every tick (keeping the world
	// dirty) but stays in its neighbourhood, so visible sets — and with
	// them the steady-state buffer capacities — stay bounded.
	d := 1.0
	if env.Tick%16 >= 8 {
		d = -1.0
	}
	npc.Pos.X += d * 0.5 * float64(1+npc.ID%7)
	npc.Pos.Y += d * 0.25 * float64(1+npc.ID%3)
	return nil
}

func (benchApp) DrainEvents(env *server.Env, avatar entity.ID) []byte     { return nil }
func (benchApp) EncodeUserState(env *server.Env, avatar entity.ID) []byte { return nil }
func (benchApp) ApplyUserState(env *server.Env, avatar entity.ID, data []byte) {
}

// benchServer builds a server on a sink node with n joined users spread
// over a grid sized so AoI neighbourhoods stay populated, plus n/10 NPCs.
func benchServer(b *testing.B, n int, delta bool, parallelism int) (*server.Server, *sinkNode) {
	b.Helper()
	node := newSinkNode("s1", n+16)
	srv, err := server.New(server.Config{
		Node:          node,
		Zone:          1,
		Assignment:    zone.NewAssignment(),
		App:           benchApp{},
		AOI:           aoi.NewIncremental(60),
		IDPrefix:      1,
		Seed:          1,
		Parallelism:   parallelism,
		DeltaUpdates:  delta,
		KeyframeTicks: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv.Start()
	b.Cleanup(func() { srv.Stop() })
	w := wire.NewWriter(256)
	for i := 0; i < n; i++ {
		join := &proto.Join{
			UserName: fmt.Sprintf("u%d", i),
			Zone:     1,
			Pos:      entity.Vec2{X: float64(20 * (i % 32)), Y: float64(20 * (i / 32))},
		}
		payload := proto.Registry.Encode(w, join)
		cp := make([]byte, len(payload))
		copy(cp, payload)
		node.in <- transport.Frame{From: fmt.Sprintf("c%d", i), To: "s1", Payload: cp}
	}
	srv.Tick() // admit everyone
	for i := 0; i < n/10; i++ {
		srv.SpawnNPC(entity.Vec2{X: float64(25 * (i % 16)), Y: float64(40 * (i / 16))})
	}
	return srv, node
}

// BenchmarkPublish measures a full tick — incremental AoI rebuild, visible
// -set diff, delta encoding and vectored staging for every user — at
// n=500 with a dirty world. The publish stage dominates; the whole tick
// must be allocation-free in steady state. "full" runs without delta
// updates, so every user gets a keyframe every tick.
func BenchmarkPublish(b *testing.B) {
	for _, mode := range []struct {
		name  string
		delta bool
	}{{"delta", true}, {"full", false}} {
		b.Run(mode.name, func(b *testing.B) {
			srv, node := benchServer(b, 500, mode.delta, 1)
			// Warm up past two keyframe cycles so every reusable buffer
			// has reached steady-state capacity.
			for i := 0; i < 80; i++ {
				srv.Tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Tick()
			}
			b.StopTimer()
			if node.frames == 0 {
				b.Fatal("sink received no frames")
			}
		})
	}
}
