package proto

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/wire"
)

// TestDecodeCountAmplification feeds every counted column of every message
// a frame that declares as many elements as it has bytes left. Decoding
// must fail with wire.ErrStringTooLong before it allocates the column: the
// decoder may allocate at most 4× the frame's size. A one-byte-per-element
// bound would let a 1 MiB frame allocate 64 MiB of entities first.
func TestDecodeCountAmplification(t *testing.T) {
	self := func(w *wire.Writer) { (&entity.Entity{}).MarshalWire(w) }
	rows := []struct {
		name   string
		prefix func(w *wire.Writer) // fields before the hostile count
	}{
		{"StateKeyframe.Visible", func(w *wire.Writer) {
			w.Uint16(uint16(KindStateKeyframe))
			w.Uvarint(1)
			w.Uvarint(0)
			self(w)
		}},
		{"ShadowUpdate.Entities", func(w *wire.Writer) {
			w.Uint16(uint16(KindShadowUpdate))
			w.Uint64(1)
		}},
		{"ShadowUpdate.Removed", func(w *wire.Writer) {
			w.Uint16(uint16(KindShadowUpdate))
			w.Uint64(1)
			w.Uvarint(0) // no entities
		}},
		{"StateDelta.Updates", func(w *wire.Writer) {
			w.Uint16(uint16(KindStateDelta))
			w.Uvarint(2)
			w.Uvarint(1)
			w.Uvarint(0)
			w.Uint8(0) // empty self mask
		}},
		{"StateDelta.Enters", func(w *wire.Writer) {
			w.Uint16(uint16(KindStateDelta))
			w.Uvarint(2)
			w.Uvarint(1)
			w.Uvarint(0)
			w.Uint8(0)
			w.Uvarint(0) // no updates
		}},
		{"StateDelta.Gone", func(w *wire.Writer) {
			w.Uint16(uint16(KindStateDelta))
			w.Uvarint(2)
			w.Uvarint(1)
			w.Uvarint(0)
			w.Uint8(0)
			w.Uvarint(0) // no updates
			w.Uvarint(0) // no enters
		}},
	}
	const rest = 1 << 20 // bytes after the count: zeros, each a valid minimal field
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := wire.NewWriter(rest + 64)
			row.prefix(w)
			w.Uvarint(rest)
			frame := append(w.Bytes(), make([]byte, rest)...)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Registry.Decode(frame)
			runtime.ReadMemStats(&after)

			if !errors.Is(err, wire.ErrStringTooLong) {
				t.Fatalf("decode error = %v, want %v", err, wire.ErrStringTooLong)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(frame)) {
				t.Fatalf("decoding a %d-byte frame allocated %d bytes (%.1f×), want ≤ 4×",
					len(frame), alloc, float64(alloc)/float64(len(frame)))
			}
		})
	}
}

// largeMessages returns one valid message of every registered kind, in
// kind order (kind 5 is retired), each larger than the seed frames and
// with every slice, string and byte field populated. FuzzDecodeInto
// decodes them into the shells first, so stale contents are there to leak.
func largeMessages() []wire.Message {
	ents := func(n int, owner string) []entity.Entity {
		out := make([]entity.Entity, n)
		for i := range out {
			out[i] = entity.Entity{
				ID: entity.ID(100 + i), Kind: entity.NPC, Pos: entity.Vec2{X: float64(i), Y: -1},
				Health: int32(i * 7), Zone: 3, Owner: owner, Seq: uint64(i + 9),
			}
		}
		return out
	}
	ids := []entity.ID{5, 9, 70, 71, 900}
	deltas := make([]EntityDelta, 6)
	for i := range deltas {
		deltas[i] = EntityDelta{
			ID: entity.ID(10 + 2*i), Mask: entity.FieldAll,
			State: entity.Entity{Kind: entity.NPC, Pos: entity.Vec2{X: 1, Y: 2}, Health: 3, Zone: 4, Owner: "peer", Seq: 5},
		}
	}
	self := entity.Entity{ID: 1, Pos: entity.Vec2{X: 3, Y: 4}, Health: 80, Zone: 2, Owner: "server-one", Seq: 44}
	return []wire.Message{
		&Join{UserName: "a-long-user-name", Zone: 9, Pos: entity.Vec2{X: 1, Y: 2}},
		&JoinAck{Entity: 77, Tick: 88},
		&Leave{},
		&Input{Seq: 1234, Payload: []byte("a long input payload")},
		&ShadowUpdate{Tick: 51, Entities: ents(9, "s2"), Removed: ids},
		&Forwarded{Actor: 3, Target: 4, Payload: []byte("forwarded payload")},
		&MigrateInit{MigID: 7, User: "migrating-user", Avatar: self, AppState: []byte("app state blob")},
		&MigrateAck{MigID: 7, User: "migrating-user", Avatar: 1},
		&MigrateNotice{NewServer: "server-seven"},
		&JoinNack{Reason: "draining for a while"},
		&StateDelta{
			Tick: 60, BaseTick: 59, AckSeq: 58, SelfMask: entity.FieldAll, Self: self,
			Updates: deltas, Enters: ents(7, "s3"), Gone: ids, Events: []byte("events"),
		},
		&StateKeyframe{Tick: 61, AckSeq: 60, Self: self, Visible: ents(10, "s4"), Events: []byte("kf events")},
	}
}

// FuzzDecodeInto checks that decoding into a reused shell is
// indistinguishable from decoding into a fresh message: for every
// registered kind the shell is first filled from a larger, different valid
// message, then arbitrary bytes of that kind are decoded into it. The
// outcome must equal Registry.Decode's — both fail, or both succeed with
// equal messages (nil and empty slices alike) — so no stale slice element,
// masked-out field or string survives a reuse.
func FuzzDecodeInto(f *testing.F) {
	large := largeMessages()
	index := make(map[wire.Kind]uint8, len(large)) // kind → position in large
	for i, m := range large {
		index[m.WireKind()] = uint8(i)
		if _, err := Registry.Decode(Registry.EncodeToBytes(m)); err != nil {
			f.Fatalf("large %T does not decode: %v", m, err)
		}
	}
	for k := wire.Kind(1); k <= KindStateKeyframe+1; k++ {
		_, err := Registry.Decode([]byte{0, byte(k)})
		var de *wire.DecodeError
		unknown := errors.As(err, &de) && de.Err == nil && de.Want == 0
		if _, ok := index[k]; !ok && !unknown {
			f.Fatalf("kind %d is registered but has no large message", k)
		}
	}
	for _, seed := range [][]byte{
		Registry.EncodeToBytes(&Join{UserName: "u"}),
		Registry.EncodeToBytes(&JoinAck{Entity: 1}),
		Registry.EncodeToBytes(&Leave{}),
		Registry.EncodeToBytes(&Input{Seq: 1, Payload: []byte{1}}),
		Registry.EncodeToBytes(&StateKeyframe{Tick: 1, Self: entity.Entity{ID: 1, Owner: "s"}, Events: []byte("e")}),
		Registry.EncodeToBytes(&ShadowUpdate{Tick: 2, Entities: []entity.Entity{{ID: 3, Owner: "s"}}}),
		Registry.EncodeToBytes(&Forwarded{Actor: 1, Target: 2}),
		Registry.EncodeToBytes(&MigrateInit{User: "u", Avatar: entity.Entity{ID: 5}}),
		Registry.EncodeToBytes(&MigrateAck{User: "u"}),
		Registry.EncodeToBytes(&MigrateNotice{NewServer: "s2"}),
		Registry.EncodeToBytes(&JoinNack{}),
		Registry.EncodeToBytes(&StateDelta{
			Tick: 3, BaseTick: 2, SelfMask: entity.FieldPos,
			Updates: []EntityDelta{{ID: 4, Mask: entity.FieldHealth, State: entity.Entity{Health: 1}}},
			Gone:    []entity.ID{7},
		}),
		Registry.EncodeToBytes(&StateKeyframe{Tick: 4, Visible: []entity.Entity{{ID: 8}}}),
	} {
		i, body := index[wire.Kind(seed[1])], seed[2:]
		f.Add(i, body)
		if len(body) > 0 {
			f.Add(i, body[:len(body)-1])
		}
	}

	var r wire.Reader
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		fill := large[int(sel)%len(large)]
		shell := reflect.New(reflect.TypeOf(fill).Elem()).Interface().(wire.Message)
		if err := Registry.DecodeInto(&r, Registry.EncodeToBytes(fill), shell); err != nil {
			t.Fatalf("filling %T: %v", shell, err)
		}
		payload := append([]byte{0, byte(fill.WireKind())}, body...)
		fresh, freshErr := Registry.Decode(payload)
		reuseErr := Registry.DecodeInto(&r, payload, shell)
		switch {
		case (freshErr == nil) != (reuseErr == nil):
			t.Fatalf("%T: fresh decode error %v, reused-shell error %v", shell, freshErr, reuseErr)
		case freshErr == nil && !sameValue(reflect.ValueOf(fresh), reflect.ValueOf(shell)):
			t.Fatalf("reused shell differs from fresh decode:\nfresh  %+v\nreused %+v", fresh, shell)
		}
	})
}

// sameValue is deep equality for decoded messages with nil and empty
// slices treated alike and floats compared bit for bit (so a decoded NaN
// equals itself).
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}
