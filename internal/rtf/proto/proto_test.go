package proto

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

func roundTrip(t *testing.T, msg wire.Message) wire.Message {
	t.Helper()
	payload := Registry.EncodeToBytes(msg)
	got, err := Registry.Decode(payload)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	if got.WireKind() != msg.WireKind() {
		t.Fatalf("kind changed: %d -> %d", msg.WireKind(), got.WireKind())
	}
	return got
}

func TestJoinRoundTrip(t *testing.T) {
	m := roundTrip(t, &Join{UserName: "bot-1", Zone: 3, Pos: entity.Vec2{X: 1, Y: 2}}).(*Join)
	if m.UserName != "bot-1" || m.Zone != 3 || m.Pos != (entity.Vec2{X: 1, Y: 2}) {
		t.Fatalf("join = %+v", m)
	}
}

func TestJoinAckLeaveRoundTrip(t *testing.T) {
	a := roundTrip(t, &JoinAck{Entity: 77, Tick: 12}).(*JoinAck)
	if a.Entity != 77 || a.Tick != 12 {
		t.Fatalf("ack = %+v", a)
	}
	roundTrip(t, &Leave{})
}

func TestInputRoundTrip(t *testing.T) {
	m := roundTrip(t, &Input{Seq: 5, Payload: []byte{9, 8, 7}}).(*Input)
	if m.Seq != 5 || !bytes.Equal(m.Payload, []byte{9, 8, 7}) {
		t.Fatalf("input = %+v", m)
	}
}

// The client update stream has two message kinds, StateKeyframe and
// StateDelta; the TestStateUpdate* tests cover both.

func sampleKeyframe() *StateKeyframe {
	return &StateKeyframe{
		Tick:   100,
		AckSeq: 41,
		Self:   entity.Entity{ID: 1, Owner: "s1", Health: 95, Pos: entity.Vec2{X: 4, Y: 5}},
		Visible: []entity.Entity{
			{ID: 2, Owner: "s1", Seq: 3},
			{ID: 3, Owner: "s2", Kind: entity.NPC},
		},
		Events: []byte("hit:2"),
	}
}

func sampleDelta() *StateDelta {
	return &StateDelta{
		Tick: 101, BaseTick: 100, AckSeq: 42,
		SelfMask: entity.FieldPos, Self: entity.Entity{Pos: entity.Vec2{X: 5, Y: 5}},
		Updates: []EntityDelta{{ID: 2, Mask: entity.FieldHealth, State: entity.Entity{Health: 40}}},
		Enters:  []entity.Entity{{ID: 4, Owner: "s2", Seq: 1}},
		Gone:    []entity.ID{3},
		Events:  []byte("hit:4"),
	}
}

func TestStateUpdateRoundTrip(t *testing.T) {
	in := sampleKeyframe()
	m := roundTrip(t, in).(*StateKeyframe)
	if m.Tick != 100 || m.AckSeq != 41 || m.Self != in.Self || len(m.Visible) != 2 {
		t.Fatalf("keyframe = %+v", m)
	}
	if m.Visible[0] != in.Visible[0] || m.Visible[1] != in.Visible[1] {
		t.Fatalf("visible = %+v", m.Visible)
	}
	if string(m.Events) != "hit:2" {
		t.Fatalf("events = %q", m.Events)
	}
	din := sampleDelta()
	d := roundTrip(t, din).(*StateDelta)
	if d.Tick != 101 || d.BaseTick != 100 || d.AckSeq != 42 || d.SelfMask != entity.FieldPos || d.Self != din.Self {
		t.Fatalf("delta header = %+v", d)
	}
	if len(d.Updates) != 1 || d.Updates[0] != din.Updates[0] || len(d.Enters) != 1 || d.Enters[0] != din.Enters[0] {
		t.Fatalf("delta columns = %+v", d)
	}
	if len(d.Gone) != 1 || d.Gone[0] != 3 || string(d.Events) != "hit:4" {
		t.Fatalf("delta gone/events = %v %q", d.Gone, d.Events)
	}
}

func TestStateUpdateEmptyVisible(t *testing.T) {
	m := roundTrip(t, &StateKeyframe{Tick: 1, Self: entity.Entity{ID: 9}}).(*StateKeyframe)
	if len(m.Visible) != 0 || len(m.Events) != 0 {
		t.Fatalf("empty keyframe = %+v", m)
	}
	d := roundTrip(t, &StateDelta{Tick: 2, BaseTick: 1}).(*StateDelta)
	if len(d.Updates) != 0 || len(d.Enters) != 0 || len(d.Gone) != 0 || len(d.Events) != 0 {
		t.Fatalf("empty delta = %+v", d)
	}
}

func TestShadowUpdateRoundTrip(t *testing.T) {
	in := &ShadowUpdate{Tick: 7, Entities: []entity.Entity{{ID: 4, Seq: 9, Owner: "s2"}}}
	m := roundTrip(t, in).(*ShadowUpdate)
	if m.Tick != 7 || len(m.Entities) != 1 || m.Entities[0] != in.Entities[0] {
		t.Fatalf("shadow = %+v", m)
	}
}

func TestForwardedRoundTrip(t *testing.T) {
	m := roundTrip(t, &Forwarded{Actor: 10, Target: 20, Payload: []byte{1}}).(*Forwarded)
	if m.Actor != 10 || m.Target != 20 || len(m.Payload) != 1 {
		t.Fatalf("forwarded = %+v", m)
	}
}

func TestMigrationMessagesRoundTrip(t *testing.T) {
	mi := roundTrip(t, &MigrateInit{
		MigID:    0x0001000000000007,
		User:     "client-9",
		Avatar:   entity.Entity{ID: 33, Owner: "s1", Health: 50},
		AppState: []byte("ammo=7"),
	}).(*MigrateInit)
	if mi.User != "client-9" || mi.Avatar.ID != 33 || string(mi.AppState) != "ammo=7" {
		t.Fatalf("migrate init = %+v", mi)
	}
	if mi.MigID != 0x0001000000000007 {
		t.Fatalf("migration ID lost on the wire: %#x", mi.MigID)
	}
	ack := roundTrip(t, &MigrateAck{MigID: 0x0001000000000007, User: "client-9", Avatar: 33}).(*MigrateAck)
	if ack.User != "client-9" || ack.Avatar != 33 || ack.MigID != 0x0001000000000007 {
		t.Fatalf("migrate ack = %+v", ack)
	}
	n := roundTrip(t, &MigrateNotice{NewServer: "server-2"}).(*MigrateNotice)
	if n.NewServer != "server-2" {
		t.Fatalf("notice = %+v", n)
	}
}

func TestStateUpdateAckSeqRoundTripProperty(t *testing.T) {
	prop := func(tick, base, ackSeq uint64) bool {
		got, err := Registry.Decode(Registry.EncodeToBytes(&StateKeyframe{Tick: tick, AckSeq: ackSeq}))
		if err != nil {
			return false
		}
		kf := got.(*StateKeyframe)
		if kf.Tick != tick || kf.AckSeq != ackSeq {
			return false
		}
		got, err = Registry.Decode(Registry.EncodeToBytes(&StateDelta{Tick: tick, BaseTick: base, AckSeq: ackSeq}))
		if err != nil {
			return false
		}
		d := got.(*StateDelta)
		return d.Tick == tick && d.BaseTick == base && d.AckSeq == ackSeq
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStateUpdateTruncatedEveryPrefix decodes every strict prefix of an
// encoded keyframe and delta; all must fail cleanly, not misparse.
func TestStateUpdateTruncatedEveryPrefix(t *testing.T) {
	for _, msg := range []wire.Message{sampleKeyframe(), sampleDelta()} {
		payload := Registry.EncodeToBytes(msg)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := Registry.Decode(payload[:cut]); err == nil {
				t.Fatalf("%T: prefix of %d/%d bytes decoded without error", msg, cut, len(payload))
			}
		}
		if _, err := Registry.Decode(payload); err != nil {
			t.Fatalf("%T: full payload rejected: %v", msg, err)
		}
	}
}

func TestDecodeRejectsCorruptStateUpdate(t *testing.T) {
	payload := Registry.EncodeToBytes(&StateKeyframe{
		Tick:    1,
		Self:    entity.Entity{ID: 1},
		Visible: []entity.Entity{{ID: 2}, {ID: 3}},
	})
	// Truncate mid-entity.
	if _, err := Registry.Decode(payload[:len(payload)-10]); err == nil {
		t.Fatal("truncated keyframe decoded")
	}
}

// TestRetiredStateUpdateKind pins protocol v6: kind 5 (the v5 full
// StateUpdate) is reserved and decodes to the unknown-kind error, while the
// kinds around it keep their numbers.
func TestRetiredStateUpdateKind(t *testing.T) {
	payload := append([]byte{0, 5}, Registry.EncodeToBytes(sampleKeyframe())[2:]...)
	_, err := Registry.Decode(payload)
	var de *wire.DecodeError
	if !errors.As(err, &de) || de.Kind != 5 || de.Err != nil || de.Want != 0 {
		t.Fatalf("kind 5 decode error = %v, want the unknown-kind error", err)
	}
	if Version != 6 {
		t.Fatalf("Version = %d, want 6", Version)
	}
	if KindInput != 4 || KindShadowUpdate != 6 || KindStateKeyframe != 13 {
		t.Fatalf("kind numbers moved: input %d shadow %d keyframe %d", KindInput, KindShadowUpdate, KindStateKeyframe)
	}
}

func TestDecodeRejectsHostileEntityCount(t *testing.T) {
	// Hand-craft a ShadowUpdate declaring 2^40 entities.
	w := wire.NewWriter(0)
	w.Uint16(uint16(KindShadowUpdate))
	w.Uint64(1)        // tick
	w.Uvarint(1 << 40) // entity count
	if _, err := Registry.Decode(w.Bytes()); err == nil {
		t.Fatal("hostile entity count decoded (would allocate 2^40 entities)")
	}
}

func TestInputRoundTripProperty(t *testing.T) {
	prop := func(seq uint64, payload []byte) bool {
		got, err := Registry.Decode(Registry.EncodeToBytes(&Input{Seq: seq, Payload: payload}))
		if err != nil {
			return false
		}
		in := got.(*Input)
		return in.Seq == seq && bytes.Equal(in.Payload, payload)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
