package server_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
)

// TestTickInputStreamAllocs holds the whole tick — receive, decode, input
// and forwarded-input application, publish — to zero steady-state
// allocations under an input stream: 200 users of the shooter in mutual
// view, each sending a move (probability 0.9) and an attack (0.4) every
// tick, as pre-encoded frames fed straight into the server's inbox. No
// observers are configured. The wire output must also be byte-identical at
// Parallelism 1 and 4.
func TestTickInputStreamAllocs(t *testing.T) {
	const users, warmup, runs = 200, 60, 40
	schedule := inputSchedule(users, warmup+1+runs, 1)
	var sums []uint64
	for _, par := range []int{1, 4} {
		srv, node := inputServer(t, users, par)
		next := 0
		step := func() {
			for _, f := range schedule[next] {
				node.in <- f
			}
			next++
			srv.Tick()
		}
		for range warmup {
			step()
		}
		if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
			t.Errorf("Parallelism %d: Server.Tick allocates %.0f objects per tick with an input stream, want 0", par, allocs)
		}
		sums = append(sums, node.sum)
	}
	if sums[0] != sums[1] {
		t.Errorf("wire output differs between Parallelism 1 (%016x) and 4 (%016x)", sums[0], sums[1])
	}
}

// inputServer builds a delta-mode server running the shooter on a sink
// node, with users joined at seeded positions inside a 35×35 arena: every
// user stays within the default AoI radius of every other, respawns
// included.
func inputServer(t *testing.T, users, parallelism int) (*server.Server, *sinkNode) {
	t.Helper()
	cfg := game.DefaultConfig()
	cfg.WorldMax = 35
	node := newSinkNode("s1", 2*users+16)
	node.digest = true
	srv, err := server.New(server.Config{
		Node:         node,
		Zone:         1,
		Assignment:   zone.NewAssignment(),
		App:          game.New(cfg),
		AOI:          aoi.NewIncremental(server.DefaultAOIRadius),
		IDPrefix:     1,
		Seed:         1,
		Parallelism:  parallelism,
		DeltaUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Stop() })
	rng := rand.New(rand.NewSource(2))
	w := wire.NewWriter(64)
	for i := 0; i < users; i++ {
		join := &proto.Join{UserName: userID(i), Zone: 1, Pos: entity.Vec2{X: rng.Float64() * 35, Y: rng.Float64() * 35}}
		node.in <- transport.Frame{From: userID(i), To: "s1", Payload: append([]byte(nil), proto.Registry.Encode(w, join)...)}
	}
	srv.Tick()
	if n := srv.UserCount(); n != users {
		t.Fatalf("%d users joined, want %d", n, users)
	}
	return srv, node
}

// inputSchedule pre-encodes ticks × users input frames from a seed: per
// user and tick a move with probability 0.9 and an attack in a random
// direction with probability 0.4, with increasing sequence numbers.
func inputSchedule(users, ticks int, seed int64) [][]transport.Frame {
	rng := rand.New(rand.NewSource(seed))
	w := wire.NewWriter(64)
	cmd := wire.NewWriter(32)
	seq := make([]uint64, users)
	out := make([][]transport.Frame, ticks)
	for tick := range out {
		for u := 0; u < users; u++ {
			var cmds []wire.Message
			if rng.Float64() < 0.9 {
				cmds = append(cmds, &game.Move{DX: rng.Float64()*10 - 5, DY: rng.Float64()*10 - 5})
			}
			if rng.Float64() < 0.4 {
				a := rng.Float64() * 2 * math.Pi
				cmds = append(cmds, &game.Attack{DirX: math.Cos(a), DirY: math.Sin(a)})
			}
			for _, c := range cmds {
				seq[u]++
				in := &proto.Input{Seq: seq[u], Payload: game.Commands.Encode(cmd, c)}
				out[tick] = append(out[tick], transport.Frame{
					From: userID(u), To: "s1", Payload: append([]byte(nil), proto.Registry.Encode(w, in)...),
				})
			}
		}
	}
	return out
}

func userID(i int) string { return fmt.Sprintf("c%d", i) }
