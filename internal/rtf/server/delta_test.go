package server_test

import (
	"fmt"
	"sort"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
)

// deltaCluster builds a single-server cluster in the requested update mode
// with n clients standing in mutual view.
func deltaCluster(t *testing.T, delta bool, n int) (*server.Server, []*client.Client, func()) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	node, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Node:         node,
		Zone:         1,
		Assignment:   zone.NewAssignment(),
		App:          game.New(game.DefaultConfig()),
		IDPrefix:     1,
		Seed:         1,
		DeltaUpdates: delta,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	clients := make([]*client.Client, n)
	for i := range clients {
		cn, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client.New(cn, "s1")
		if err := clients[i].Join(1, entity.Vec2{X: float64(100 + i*5), Y: 100}, cn.ID()); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		srv.Tick()
		for _, cl := range clients {
			cl.Poll()
		}
	}
	return srv, clients, step
}

func worldIDs(cl *client.Client) []entity.ID {
	var ids []entity.ID
	for _, e := range cl.World() {
		ids = append(ids, e.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestDeltaUpdatesMatchFullUpdatesView(t *testing.T) {
	const n = 5
	_, fullClients, fullStep := deltaCluster(t, false, n)
	_, deltaClients, deltaStep := deltaCluster(t, true, n)
	for i := 0; i < 6; i++ {
		fullStep()
		deltaStep()
	}
	// Same movement in both clusters.
	for i, cl := range fullClients {
		cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: float64(i), DY: 1}))
	}
	for i, cl := range deltaClients {
		cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: float64(i), DY: 1}))
	}
	for i := 0; i < 4; i++ {
		fullStep()
		deltaStep()
	}
	for i := range fullClients {
		fw, dw := fullClients[i].World(), deltaClients[i].World()
		if len(fw) != len(dw) {
			t.Fatalf("client %d world sizes differ: full=%d delta=%d", i, len(fw), len(dw))
		}
		for j := range fw {
			if fw[j] != dw[j] {
				t.Fatalf("client %d world diverged at %d:\nfull  %+v\ndelta %+v", i, j, fw[j], dw[j])
			}
		}
	}
}

func TestDeltaUpdatesSaveBandwidthWhenIdle(t *testing.T) {
	const n, warm, idle = 8, 4, 10
	run := func(delta bool) int {
		srv, _, step := deltaCluster(t, delta, n)
		for i := 0; i < warm; i++ {
			step()
		}
		// Idle phase: nobody moves, nothing changes.
		bytes := 0
		for i := 0; i < idle; i++ {
			step()
			bytes += srv.Monitor().LastBreakdown().BytesOut
		}
		return bytes
	}
	full := run(false)
	withDelta := run(true)
	if withDelta >= full {
		t.Fatalf("delta mode not cheaper when idle: %d >= %d bytes", withDelta, full)
	}
	// The saving must be substantial — idle keyframes resend every entity
	// every tick, idle delta updates send only the self state.
	if withDelta > full/3 {
		t.Fatalf("delta saving too small: %d vs %d bytes", withDelta, full)
	}
}

// TestDeltaGoneListPrunesClientWorld checks both update modes: the delta
// stream drops a leaver through its Gone column, and without delta updates
// every update is a keyframe that replaces the world, so the leaver goes
// too (the v5 full StateUpdate never listed leavers, and the client world
// only grew).
func TestDeltaGoneListPrunesClientWorld(t *testing.T) {
	for _, mode := range []struct {
		name  string
		delta bool
	}{{"delta", true}, {"keyframes", false}} {
		t.Run(mode.name, func(t *testing.T) {
			// Two clients in view; one walks out of the other's AoI (radius 50).
			srv, clients, step := deltaCluster(t, mode.delta, 2)
			for i := 0; i < 3; i++ {
				step()
			}
			watcher, walker := clients[0], clients[1]
			if ids := worldIDs(watcher); len(ids) != 1 || ids[0] != walker.Avatar() {
				t.Fatalf("watcher world = %v, want [walker]", ids)
			}
			// Walk the walker far away (AoI radius is 50; positions start 5 apart).
			for i := 0; i < 30; i++ {
				walker.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 5, DY: 0}))
				step()
			}
			if ids := worldIDs(watcher); len(ids) != 0 {
				t.Fatalf("watcher world after walk-away = %v, want empty", ids)
			}
			// And the walker's own server-side view lost the watcher too.
			e, _ := srv.Entity(walker.Avatar())
			if d := e.Pos.Dist(entity.Vec2{X: 100, Y: 100}); d < 50 {
				t.Fatalf("walker only moved %g units", d)
			}
		})
	}
}

// TestDeltaKeyframeResyncAfterLoss drops most server→client traffic while
// everyone moves, then heals the link: the clients must report resyncs
// (gaps detected, never silently applied) and converge back to the exact
// server state once keyframes get through — within two keyframe periods of
// the link healing.
func TestDeltaKeyframeResyncAfterLoss(t *testing.T) {
	const n, keyframeTicks = 3, 4
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	raw, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	lossy := transport.NewLossy(raw, 0, 99)
	srv, err := server.New(server.Config{
		Node:          lossy,
		Zone:          1,
		Assignment:    zone.NewAssignment(),
		App:           game.New(game.DefaultConfig()),
		IDPrefix:      1,
		Seed:          1,
		DeltaUpdates:  true,
		KeyframeTicks: keyframeTicks,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	clients := make([]*client.Client, n)
	for i := range clients {
		cn, err := net.Attach(fmt.Sprintf("c%d", i+1), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = client.New(cn, "s1")
		if err := clients[i].Join(1, entity.Vec2{X: float64(100 + i*5), Y: 100}, cn.ID()); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		srv.Tick()
		for _, cl := range clients {
			cl.Poll()
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	// Loss phase: 60% of updates vanish while everyone keeps moving.
	lossy.SetRate(0.6)
	for i := 0; i < 20; i++ {
		for j, cl := range clients {
			cl.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 1, DY: float64(j % 2)}))
		}
		step()
	}
	// Heal and let two keyframe periods pass with no further movement.
	lossy.SetRate(0)
	for i := 0; i < 2*keyframeTicks+2; i++ {
		step()
	}
	resyncs := uint64(0)
	for i, cl := range clients {
		resyncs += cl.Resyncs()
		if !cl.Synced() {
			t.Fatalf("client %d not re-anchored after link healed", i)
		}
		world := cl.World()
		if len(world) != n-1 {
			t.Fatalf("client %d world has %d entities, want %d", i, len(world), n-1)
		}
		for _, got := range world {
			want, ok := srv.Entity(got.ID)
			if !ok {
				t.Fatalf("client %d sees entity %d the server does not have", i, got.ID)
			}
			if got != want {
				t.Fatalf("client %d diverged on entity %d:\nclient %+v\nserver %+v", i, got.ID, got, want)
			}
		}
	}
	if resyncs == 0 {
		t.Fatal("no client reported a resync despite 60% loss")
	}
}

func TestDeltaReappearsAfterReturn(t *testing.T) {
	_, clients, step := deltaCluster(t, true, 2)
	for i := 0; i < 3; i++ {
		step()
	}
	watcher, walker := clients[0], clients[1]
	// Leave the AoI...
	for i := 0; i < 30; i++ {
		walker.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: 5, DY: 0}))
		step()
	}
	if len(worldIDs(watcher)) != 0 {
		t.Fatal("walker still visible after leaving")
	}
	// ...and come back: the delta protocol must re-announce the entity.
	for i := 0; i < 30; i++ {
		walker.SendInput(game.Commands.EncodeToBytes(&game.Move{DX: -5, DY: 0}))
		step()
	}
	if ids := worldIDs(watcher); len(ids) != 1 || ids[0] != walker.Avatar() {
		t.Fatalf("walker did not reappear: %v", ids)
	}
}
