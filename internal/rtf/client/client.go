// Package client implements the RTF client runtime used by bots, examples
// and the load-generator command: it connects a user to an application
// server, sends inputs, receives area-of-interest-filtered state updates,
// and transparently follows user migrations between servers.
package client

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/telemetry"
)

// ErrNotJoined is returned by input sends before a join is acknowledged.
var ErrNotJoined = errors.New("client: not joined")

// maxPendingInputs bounds the in-flight input ring: when the server (or a
// lossy link) stops acking, the oldest pending timestamps are evicted and
// counted lost instead of growing without bound. 1024 inputs is ~40 s of
// continuous input at 25 Hz — far past any RTT worth measuring.
const maxPendingInputs = 1024

// pendingAge caps how long an unacked input stays pending before it ages
// out as lost. Keeps the ring small under light input rates too.
const pendingAge = 10 * time.Second

// pendingInput is one sent-but-not-yet-acked input.
type pendingInput struct {
	seq uint64
	at  time.Time
}

// Client is one user connection.
type Client struct {
	node transport.Node

	mu         sync.Mutex
	server     string
	avatar     entity.ID
	joined     bool
	inputSeq   uint64
	updates    uint64
	migrations int
	w          *wire.Writer

	// world is the client's view, own avatar included, kept strictly
	// ascending by entity ID: a delta applies by merge-walking its
	// ascending Updates, Enters and Gone columns against it, with no
	// hashing.
	world []entity.Entity

	// last holds the Tick, AckSeq and Self of the most recent applied
	// update (hasLast reports one exists). When it was a full StateUpdate
	// (lastFull), full is that update's decoded shell, traded out of the
	// Poll scratch, and LastUpdate also reports its Visible, Gone and
	// Events. LastUpdate builds its result from these only when called.
	last     proto.StateUpdate
	hasLast  bool
	lastFull bool
	full     proto.StateUpdate

	// events accumulates the Events payloads of applied updates; they
	// alias the received frames, which the transport never reuses.
	// DrainEvents hands the slice out and refills evSpare, the slice it
	// handed out the time before.
	events, evSpare [][]byte

	// in is the send shell for SendInput.
	in proto.Input

	// Delta-stream state (proto v5, server.Config.DeltaUpdates). A delta
	// applies only when its BaseTick matches lastTick of a synced client;
	// anything else — a gap, a duplicate, an unknown entity, columns out of
	// ascending ID order — flips synced off and counts a resync, and the
	// client coasts on its last coherent world until the next keyframe
	// re-anchors it. The client never applies a delta onto a base it does
	// not hold, so it cannot diverge silently.
	synced    bool
	lastTick  uint64
	resyncs   uint64
	keyframes uint64

	// pending holds send timestamps of unacked inputs, oldest first;
	// ackSeq is the highest AckSeq delivered (guards against reordered
	// updates re-acking); lost counts inputs evicted unacked.
	pending []pendingInput
	ackSeq  uint64
	lost    uint64
	now     func() time.Time
	lat     *telemetry.Latency

	// lastJoin is the most recent join request, retained so a redirect
	// (MigrateNotice before the join was acked — a draining server pointing
	// the client at a peer replica) can be answered by re-joining there.
	lastJoin *proto.Join
	// joinNacks counts explicit join rejections (proto.JoinNack).
	joinNacks int
}

// New wraps an attached transport node into a client that will talk to the
// given server.
func New(node transport.Node, server string) *Client {
	return &Client{
		node:   node,
		server: server,
		w:      wire.NewWriter(256),
		now:    time.Now,
		lat:    telemetry.NewLatency(0),
	}
}

// ID returns the client's node ID (its user identity).
func (c *Client) ID() string { return c.node.ID() }

// Server returns the server the client is currently connected to.
func (c *Client) Server() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.server
}

// Joined reports whether the server has acknowledged the join.
func (c *Client) Joined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joined
}

// Avatar returns the entity ID assigned at join.
func (c *Client) Avatar() entity.ID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.avatar
}

// Updates reports how many state updates have been received.
func (c *Client) Updates() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates
}

// Resyncs reports how many times the delta stream lost coherence (a gap,
// duplicate, reorder or unknown-entity delta) and the client had to wait
// for a keyframe to re-anchor. Zero on full-update streams.
func (c *Client) Resyncs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resyncs
}

// Keyframes reports how many full keyframes the delta stream delivered.
func (c *Client) Keyframes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keyframes
}

// Synced reports whether the client holds a coherent delta-stream view
// (anchored by a keyframe with no unapplied gap since). Always false on
// full-update streams, where World is maintained per update instead.
func (c *Client) Synced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.synced
}

// JoinNacks reports how many join requests were explicitly rejected
// (servers with no peer to redirect to send proto.JoinNack while draining).
func (c *Client) JoinNacks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joinNacks
}

// Migrations reports how many times the client followed a user migration.
func (c *Client) Migrations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migrations
}

// LastUpdate returns the most recent state update, or nil. Under delta
// updates it carries the Tick, AckSeq and Self of the applied keyframe or
// delta. The result is a fresh copy the caller may keep.
func (c *Client) LastUpdate() *proto.StateUpdate {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.hasLast {
		return nil
	}
	u := c.last
	if c.lastFull {
		u.Visible = slices.Clone(c.full.Visible)
		u.Gone = slices.Clone(c.full.Gone)
		u.Events = c.full.Events
	}
	return &u
}

// World returns the client's view of nearby entities (everything received
// in state updates and not yet reported gone, excluding its own avatar),
// in ID order. Under delta updates (see server.Config.DeltaUpdates) this
// cache is the authoritative client view; under full updates it is the
// union of recently visible entities.
func (c *Client) World() []entity.Entity {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]entity.Entity, 0, len(c.world))
	for _, e := range c.world {
		if e.ID != c.avatar {
			out = append(out, e)
		}
	}
	return out
}

// DrainEvents returns and clears the application events accumulated from
// state updates since the last call. The returned slice is reused after
// the next DrainEvents call; the event payloads themselves stay valid.
func (c *Client) DrainEvents() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events) == 0 {
		return nil
	}
	ev := c.events
	c.events, c.evSpare = c.evSpare[:0], ev
	return ev
}

// Join requests entry into a zone at the given position. The server's
// acknowledgement arrives asynchronously via Poll.
func (c *Client) Join(zoneID uint32, pos entity.Vec2, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastJoin = &proto.Join{UserName: name, Zone: zoneID, Pos: pos}
	return c.sendLocked(c.lastJoin)
}

// Leave announces a clean disconnect.
func (c *Client) Leave() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.joined = false
	return c.sendLocked(&proto.Leave{})
}

// SendInput transmits one application-encoded command and stamps it for
// response-time measurement: when a state update acknowledging the input's
// sequence arrives, the input→update round trip is recorded in Latency.
func (c *Client) SendInput(payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.joined {
		return ErrNotJoined
	}
	c.inputSeq++
	c.pending = append(c.pending, pendingInput{seq: c.inputSeq, at: c.now()})
	if len(c.pending) > maxPendingInputs {
		drop := len(c.pending) - maxPendingInputs
		c.lost += uint64(drop)
		c.pending = append(c.pending[:0], c.pending[drop:]...)
	}
	c.in = proto.Input{Seq: c.inputSeq, Payload: payload}
	return c.sendLocked(&c.in)
}

// resolveAckLocked consumes an AckSeq carried by a state update: the
// exact-match pending input yields an RTT observation; older pending
// inputs were coalesced into the same tick (applied, but not individually
// measurable) and are discarded; newer ones stay pending. Updates whose
// ack is not beyond the highest seen (reordered or duplicated delivery)
// are ignored — the first delivery already measured the RTT. Unacked
// inputs older than pendingAge are aged out as lost.
func (c *Client) resolveAckLocked(ack uint64, at time.Time) {
	if ack > c.ackSeq {
		c.ackSeq = ack
		i := 0
		for ; i < len(c.pending) && c.pending[i].seq < ack; i++ {
		}
		if i < len(c.pending) && c.pending[i].seq == ack {
			c.lat.Observe(float64(at.Sub(c.pending[i].at)) / float64(time.Millisecond))
			i++
		}
		c.pending = append(c.pending[:0], c.pending[i:]...)
	}
	for len(c.pending) > 0 && at.Sub(c.pending[0].at) > pendingAge {
		c.lost++
		c.pending = append(c.pending[:0], c.pending[1:]...)
	}
}

// Latency returns the client's input→update response-time recorder. Set a
// deadline with SetLatencyDeadline to count QoS violations against the
// model's threshold U.
func (c *Client) Latency() *telemetry.Latency { return c.lat }

// SetLatencyDeadline sets the RTT deadline (ms) for QoS violation
// accounting; non-positive disables.
func (c *Client) SetLatencyDeadline(ms float64) { c.lat.SetDeadline(ms) }

// AckSeq returns the highest input sequence the server has acknowledged.
func (c *Client) AckSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackSeq
}

// PendingInputs reports how many sent inputs await acknowledgement.
func (c *Client) PendingInputs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// LostInputs reports how many inputs aged out or were evicted unacked
// (dropped on a lossy link, or acked only after their timestamp expired).
func (c *Client) LostInputs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost
}

func (c *Client) sendLocked(msg wire.Message) error {
	payload := proto.Registry.Encode(c.w, msg)
	return c.node.Send(c.server, payload)
}

// pollScratch is everything a Poll decodes into: the drained frames, a
// reader, one message shell per kind and the merge target of a delta. It
// is pooled across clients instead of kept per client: shells sized for a
// crowded view weigh several kilobytes, so at hundreds of clients per
// process per-client shells would outweigh the world caches themselves,
// while a pool holds about one scratch per concurrently polling goroutine.
// Buffers move freely between a scratch and the client it serves (the
// merged world, the last full update), so every one stays reused.
type pollScratch struct {
	frames []transport.Frame
	r      wire.Reader
	ack    proto.JoinAck
	upd    proto.StateUpdate
	kf     proto.StateKeyframe
	delta  proto.StateDelta
	notice proto.MigrateNotice
	nack   proto.JoinNack
	spare  []entity.Entity
}

var pollScratches = sync.Pool{New: func() any { return new(pollScratch) }}

// Poll drains and processes all pending server traffic: join acks update
// the avatar binding, state updates are retained (the latest wins), and
// migration notices re-point the client at its new server — the
// "switching user connections between servers" of Section III-B. It
// returns the number of state updates processed. A steady-state Poll
// allocates nothing.
func (c *Client) Poll() int {
	ps := pollScratches.Get().(*pollScratch)
	defer pollScratches.Put(ps)
	c.mu.Lock()
	defer c.mu.Unlock()
	ps.frames = transport.DrainInto(c.node, ps.frames[:0], 0)
	now := c.now()
	seen := 0
	for i := range ps.frames {
		payload := ps.frames[i].Payload
		if len(payload) < 2 {
			continue
		}
		switch wire.Kind(binary.BigEndian.Uint16(payload)) {
		case proto.KindJoinAck:
			if ps.decode(payload, &ps.ack) {
				c.avatar = ps.ack.Entity
				c.joined = true
			}
		case proto.KindStateUpdate:
			if ps.decode(payload, &ps.upd) {
				c.applyFull(ps, now)
				seen++
			}
		case proto.KindStateKeyframe:
			if ps.decode(payload, &ps.kf) {
				c.applyKeyframe(&ps.kf, now)
				seen++
			}
		case proto.KindStateDelta:
			if ps.decode(payload, &ps.delta) && c.applyDelta(ps, now) {
				seen++
			}
		case proto.KindMigrateNotice:
			if !ps.decode(payload, &ps.notice) {
				continue
			}
			c.server = ps.notice.NewServer
			c.migrations++
			// The new server opens its stream with a keyframe; drop the old
			// server's delta chain so a straggler frame cannot apply.
			c.synced = false
			if !c.joined && c.lastJoin != nil {
				// Redirected before the join was acked (e.g. by a draining
				// server): re-issue the join at the new server.
				_ = c.sendLocked(c.lastJoin)
			}
		case proto.KindJoinNack:
			if ps.decode(payload, &ps.nack) {
				c.joinNacks++
			}
		}
	}
	clear(ps.frames) // drop the payload references the pool would keep
	return seen
}

// decode parses payload into the scratch's shell for its kind.
func (ps *pollScratch) decode(payload []byte, shell wire.Message) bool {
	return proto.Registry.DecodeInto(&ps.r, payload, shell) == nil
}

// applyFull applies the full StateUpdate in ps.upd: the avatar and every
// visible entity are upserted into the world, Gone entities dropped. The
// update's shell then stays with the client for LastUpdate.
func (c *Client) applyFull(ps *pollScratch, now time.Time) {
	upd := &ps.upd
	c.resolveAckLocked(upd.AckSeq, now)
	c.upsert(&upd.Self)
	for i := range upd.Visible {
		c.upsert(&upd.Visible[i])
	}
	for _, id := range upd.Gone {
		if i, ok := c.find(id); ok {
			c.world = slices.Delete(c.world, i, i+1)
		}
	}
	c.setLast(upd.Tick, upd.AckSeq, &upd.Self, true)
	c.appendEvents(upd.Events)
	ps.upd, c.full = c.full, ps.upd
}

// applyKeyframe replaces the world wholesale with kf's visible set and
// re-anchors the delta chain.
func (c *Client) applyKeyframe(kf *proto.StateKeyframe, now time.Time) {
	c.resolveAckLocked(kf.AckSeq, now)
	c.world = c.world[:0]
	c.upsert(&kf.Self)
	for i := range kf.Visible {
		c.upsert(&kf.Visible[i])
	}
	c.lastTick = kf.Tick
	c.synced = true
	c.keyframes++
	c.setLast(kf.Tick, kf.AckSeq, &kf.Self, false)
	c.appendEvents(kf.Events)
}

// applyDelta applies the StateDelta in ps.delta onto the world when it
// continues the client's chain, and reports whether it did. The avatar's
// masked fields apply first; then one merge walk applies Updates in place
// and, when entities entered or left, a second merges Enters and Gone into
// the scratch's spare buffer, which becomes the world.
func (c *Client) applyDelta(ps *pollScratch, now time.Time) bool {
	d := &ps.delta
	c.resolveAckLocked(d.AckSeq, now)
	if !c.synced || d.BaseTick != c.lastTick {
		// Base mismatch (dropped, duplicated or reordered frame) or not yet
		// anchored: count a resync once per loss of sync and coast until
		// the next keyframe.
		if c.synced {
			c.desync()
		}
		return false
	}
	a, ok := c.find(c.avatar)
	if !ok || !ascendingDelta(d) {
		c.desync()
		return false
	}
	c.world[a].ApplyMasked(&d.Self, d.SelfMask)
	self := c.world[a]
	w := 0
	for k := range d.Updates {
		u := &d.Updates[k]
		for w < len(c.world) && c.world[w].ID < u.ID {
			w++
		}
		if w == len(c.world) || c.world[w].ID != u.ID {
			// Delta against an entity this client never saw: the stream and
			// our view have diverged — stop applying and wait for the
			// keyframe rather than guess.
			c.desync()
			return false
		}
		c.world[w].ApplyMasked(&u.State, u.Mask)
	}
	if len(d.Enters) > 0 || len(d.Gone) > 0 {
		c.world, ps.spare = mergeWorld(ps.spare[:0], c.world, d.Enters, d.Gone), c.world
	}
	c.lastTick = d.Tick
	c.setLast(d.Tick, d.AckSeq, &self, false)
	c.appendEvents(d.Events)
	return true
}

// desync drops the delta chain and counts a resync.
func (c *Client) desync() {
	c.synced = false
	c.resyncs++
}

// setLast records an applied update for LastUpdate and counts it.
func (c *Client) setLast(tick, ack uint64, self *entity.Entity, full bool) {
	c.last = proto.StateUpdate{Tick: tick, AckSeq: ack, Self: *self}
	c.hasLast, c.lastFull = true, full
	c.updates++
}

func (c *Client) appendEvents(ev []byte) {
	if len(ev) > 0 {
		c.events = append(c.events, ev)
	}
}

// find binary-searches the world for id, returning its index or the index
// it would be inserted at.
func (c *Client) find(id entity.ID) (int, bool) {
	return slices.BinarySearchFunc(c.world, id, func(e entity.Entity, id entity.ID) int {
		return cmp.Compare(e.ID, id)
	})
}

// upsert inserts e into the world or overwrites the entity with its ID.
// Ascending input appends.
func (c *Client) upsert(e *entity.Entity) {
	if n := len(c.world); n == 0 || c.world[n-1].ID < e.ID {
		c.world = append(c.world, *e)
		return
	}
	i, ok := c.find(e.ID)
	if ok {
		c.world[i] = *e
		return
	}
	c.world = slices.Insert(c.world, i, *e)
}

// ascendingDelta reports whether a delta's Updates, Enters and Gone are
// each strictly ascending by ID, as the server encodes them. Decoding
// cannot guarantee it (an ID gap can wrap around), and the merge walks
// depend on it.
func ascendingDelta(d *proto.StateDelta) bool {
	for i := 1; i < len(d.Updates); i++ {
		if d.Updates[i].ID <= d.Updates[i-1].ID {
			return false
		}
	}
	for i := 1; i < len(d.Enters); i++ {
		if d.Enters[i].ID <= d.Enters[i-1].ID {
			return false
		}
	}
	for i := 1; i < len(d.Gone); i++ {
		if d.Gone[i] <= d.Gone[i-1] {
			return false
		}
	}
	return true
}

// mergeWorld appends to dst the ascending merge of world and enters (an
// entering entity replaces a known one with its ID) minus the IDs in gone.
// All three inputs are strictly ascending; so is the result.
func mergeWorld(dst, world, enters []entity.Entity, gone []entity.ID) []entity.Entity {
	i, e, g := 0, 0, 0
	for i < len(world) || e < len(enters) {
		var next *entity.Entity
		switch {
		case e == len(enters) || (i < len(world) && world[i].ID < enters[e].ID):
			next = &world[i]
			i++
		case i == len(world) || enters[e].ID < world[i].ID:
			next = &enters[e]
			e++
		default: // same ID: the entering record wins
			next = &enters[e]
			i++
			e++
		}
		for g < len(gone) && gone[g] < next.ID {
			g++
		}
		if g < len(gone) && gone[g] == next.ID {
			continue
		}
		dst = append(dst, *next)
	}
	return dst
}

// Close detaches the client from the network.
func (c *Client) Close() error { return c.node.Close() }

func (c *Client) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("client(%s → %s joined=%v)", c.node.ID(), c.server, c.joined)
}
