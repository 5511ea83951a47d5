package bots

import (
	"testing"

	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
)

func setup(t *testing.T) (*Bot, transport.Node) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	srv, err := net.Attach("srv", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := net.Attach("bot", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	return New(client.New(cn, "srv"), DefaultProfile(), 1), srv
}

func TestBotIdleUntilJoined(t *testing.T) {
	b, srv := setup(t)
	for i := 0; i < 10; i++ {
		b.Step()
	}
	if b.InputsSent() != 0 {
		t.Fatalf("bot sent %d inputs before joining", b.InputsSent())
	}
	if got := transport.Drain(srv, 0); len(got) != 0 {
		t.Fatalf("frames before join: %d", len(got))
	}
}

func TestBotSendsCommandsAfterJoin(t *testing.T) {
	b, srv := setup(t)
	// Simulate the server acknowledging a join.
	if err := srv.Send("bot", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 5})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b.Step()
	}
	if b.InputsSent() == 0 {
		t.Fatal("bot never sent commands")
	}
	frames := transport.Drain(srv, 0)
	if len(frames) != b.InputsSent() {
		t.Fatalf("server saw %d frames, bot reports %d", len(frames), b.InputsSent())
	}
	for _, f := range frames {
		if _, err := proto.Registry.Decode(f.Payload); err != nil {
			t.Fatalf("undecodable bot input: %v", err)
		}
	}
}

func TestBotAimsAtVisibleTargets(t *testing.T) {
	b, srv := setup(t)
	srv.Send("bot", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 5}))
	// Give the bot a keyframe with one visible target east of it.
	srv.Send("bot", proto.Registry.EncodeToBytes(&proto.StateKeyframe{
		Tick: 1,
		Self: entity.Entity{ID: 5, Pos: entity.Vec2{X: 0, Y: 0}},
		Visible: []entity.Entity{
			{ID: 9, Pos: entity.Vec2{X: 50, Y: 0}},
		},
	}))
	b.Step()
	atk := b.aim()
	if atk.DirX <= 0 || atk.DirY != 0 {
		t.Fatalf("aim = (%g,%g), want toward (50,0)", atk.DirX, atk.DirY)
	}
}

func TestProfilesOrdering(t *testing.T) {
	if AggressiveProfile().AttackProb <= DefaultProfile().AttackProb {
		t.Fatal("aggressive not more interactive than default")
	}
	if PassiveProfile().AttackProb >= DefaultProfile().AttackProb {
		t.Fatal("passive not less interactive than default")
	}
}

func TestBotDeterministicWithSeed(t *testing.T) {
	run := func() int {
		net := transport.NewLoopback()
		defer net.Close()
		srv, _ := net.Attach("srv", 1<<12)
		cn, _ := net.Attach("bot", 1<<12)
		b := New(client.New(cn, "srv"), DefaultProfile(), 99)
		srv.Send("bot", proto.Registry.EncodeToBytes(&proto.JoinAck{Entity: 5}))
		for i := 0; i < 30; i++ {
			b.Step()
		}
		return b.InputsSent()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("bot not deterministic: %d vs %d", a, b)
	}
}
