package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
)

// fakeServer lets tests hand-feed protocol frames to a client.
type fakeServer struct {
	node transport.Node
}

func setup(t *testing.T) (*Client, *fakeServer) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	sn, err := net.Attach("srv", 64)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := net.Attach("cli", 64)
	if err != nil {
		t.Fatal(err)
	}
	return New(cn, "srv"), &fakeServer{node: sn}
}

func (f *fakeServer) send(t *testing.T, to string, payload []byte) {
	t.Helper()
	if err := f.node.Send(to, payload); err != nil {
		t.Fatal(err)
	}
}

func TestSendInputBeforeJoinFails(t *testing.T) {
	c, _ := setup(t)
	if err := c.SendInput([]byte{1}); !errors.Is(err, ErrNotJoined) {
		t.Fatalf("err = %v, want ErrNotJoined", err)
	}
}

func TestJoinAckBindsAvatar(t *testing.T) {
	c, srv := setup(t)
	if err := c.Join(1, entity.Vec2{X: 5, Y: 5}, "tester"); err != nil {
		t.Fatal(err)
	}
	// The server received the join frame.
	frames := transport.Drain(srv.node, 0)
	if len(frames) != 1 {
		t.Fatalf("server saw %d frames", len(frames))
	}
	msg, err := proto.Registry.Decode(frames[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	if j := msg.(*proto.Join); j.UserName != "tester" || j.Zone != 1 {
		t.Fatalf("join = %+v", j)
	}
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 42, Tick: 3}))
	c.Poll()
	if !c.Joined() || c.Avatar() != 42 {
		t.Fatalf("joined=%v avatar=%d", c.Joined(), c.Avatar())
	}
	// Inputs now flow and carry increasing sequence numbers.
	if err := c.SendInput([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendInput([]byte{9}); err != nil {
		t.Fatal(err)
	}
	in1, _ := proto.Registry.Decode(transport.Drain(srv.node, 0)[0].Payload)
	if in1.(*proto.Input).Seq != 1 {
		t.Fatalf("first input seq = %d", in1.(*proto.Input).Seq)
	}
}

func TestPollRetainsLatestUpdateAndAccumulatesEvents(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 1, Self: entity.Entity{ID: 1}, Events: []byte("hit"),
	}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 2, Self: entity.Entity{ID: 1},
	}))
	if got := c.Poll(); got != 2 {
		t.Fatalf("Poll processed %d updates, want 2", got)
	}
	if c.LastUpdate().Tick != 2 {
		t.Fatalf("latest tick = %d", c.LastUpdate().Tick)
	}
	if c.Updates() != 2 {
		t.Fatalf("updates = %d", c.Updates())
	}
	ev := c.DrainEvents()
	if len(ev) != 1 || string(ev[0]) != "hit" {
		t.Fatalf("events = %q", ev)
	}
	if got := c.DrainEvents(); got != nil {
		t.Fatal("events not cleared")
	}
}

func TestMigrateNoticeSwitchesServer(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.MigrateNotice{NewServer: "srv2"}))
	c.Poll()
	if got := c.Server(); got != "srv2" {
		t.Fatalf("server = %q, want srv2", got)
	}
	if c.Migrations() != 1 {
		t.Fatalf("migrations = %d", c.Migrations())
	}
	// Still joined: migration keeps the session alive.
	if !c.Joined() {
		t.Fatal("migration dropped the session")
	}
}

func TestPollIgnoresJunkFrames(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", []byte{})           // empty
	srv.send(t, "cli", []byte{0xFF})       // too short
	srv.send(t, "cli", []byte{0xFF, 0xFF}) // unknown kind
	srv.send(t, "cli", []byte{0, 2, 1})    // KindJoinAck but truncated
	if got := c.Poll(); got != 0 {
		t.Fatalf("Poll = %d on junk", got)
	}
	if c.Joined() {
		t.Fatal("junk made the client joined")
	}
}

func TestLeaveResetsJoined(t *testing.T) {
	c, srv := setup(t)
	srv.send(t, "cli", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 1}))
	c.Poll()
	if err := c.Leave(); err != nil {
		t.Fatal(err)
	}
	if c.Joined() {
		t.Fatal("still joined after leave")
	}
	if err := c.SendInput([]byte{1}); !errors.Is(err, ErrNotJoined) {
		t.Fatal("input accepted after leave")
	}
}

// TestConcurrentPollsShareScratch polls many clients from their own
// goroutines at once. Their Polls draw decode shells and merge buffers from
// one shared pool, so every client must still end with exactly its own
// stream's world (run with -race to check the hand-offs).
func TestConcurrentPollsShareScratch(t *testing.T) {
	const clients, rounds = 8, 50
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	srv, err := net.Attach("srv", 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		id := fmt.Sprintf("cli%d", k)
		cn, err := net.Attach(id, 64)
		if err != nil {
			t.Fatal(err)
		}
		c := New(cn, "srv")
		// Client k sees entities k*1000+1 .. k*1000+4; each round one of
		// them leaves and re-enters while the others change.
		base := entity.ID(k * 1000)
		self := entity.Entity{ID: base, Owner: "srv", Health: 100}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send := func(m wire.Message) {
				if err := srv.Send(id, proto.Registry.EncodeToBytes(m)); err != nil {
					t.Error(err)
				}
			}
			send(&proto.JoinAck{Entity: base})
			vis := []entity.Entity{{ID: base + 1}, {ID: base + 2}, {ID: base + 3}, {ID: base + 4}}
			send(&proto.StateKeyframe{Tick: 1, Self: self, Visible: vis})
			c.Poll()
			// delta advances the chain one tick: every listed visible
			// entity but skip gets a new Seq.
			tick := uint64(1)
			delta := func(skip entity.ID) *proto.StateDelta {
				tick++
				d := &proto.StateDelta{Tick: tick, BaseTick: tick - 1}
				for _, e := range vis {
					if e.ID != skip {
						d.Updates = append(d.Updates, proto.EntityDelta{ID: e.ID, Mask: entity.FieldSeq, State: entity.Entity{Seq: tick}})
					}
				}
				return d
			}
			for r := 0; r < rounds; r++ {
				leaver := base + 1 + entity.ID(r%4)
				d := delta(leaver)
				d.Gone = []entity.ID{leaver}
				send(d)
				d = delta(leaver)
				d.Enters = []entity.Entity{{ID: leaver, Seq: tick}}
				send(d)
				c.Poll()
			}
			world := c.World()
			if len(world) != 4 || c.Resyncs() != 0 {
				t.Errorf("client %d: world %+v, resyncs %d", k, world, c.Resyncs())
				return
			}
			for i, e := range world {
				if want := base + 1 + entity.ID(i); e.ID != want || e.Seq != 2*rounds+1 {
					t.Errorf("client %d: world[%d] = %+v, want ID %d at seq %d", k, i, e, want, 2*rounds+1)
				}
			}
		}()
	}
	wg.Wait()
}
