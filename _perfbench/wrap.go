package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
)

// The wrappers in this file are the seams through which the benchmark
// observes a replica from outside the program: server.New receives them in
// place of the aoi.Manager, server.Application and transport.Node it would
// otherwise get. Untraced, they only forward (the node also counts the
// bytes delivered to users, which an end-to-end metric needs). Traced, every call is
// timed into the replica's open span for its layer. Replicas run with
// Parallelism 1, so every call arrives on the tick goroutine.

// probe is a wrapper's handle on its replica's open spans: nil acc means
// untraced.
type probe struct {
	acc *acc
}

// aoiProbe wraps a replica's interest manager.
type aoiProbe struct {
	inner aoi.Manager
	probe
}

func (p *aoiProbe) Build(world []*entity.Entity) {
	if p.acc == nil {
		p.inner.Build(world)
		return
	}
	t0 := mono()
	p.inner.Build(world)
	p.acc.add(lAOIBuild, t0, mono())
}

func (p *aoiProbe) Visible(dst []entity.ID, subject entity.ID, pos entity.Vec2, world []*entity.Entity) []entity.ID {
	if p.acc == nil {
		return p.inner.Visible(dst, subject, pos, world)
	}
	n := len(dst)
	t0 := mono()
	dst = p.inner.Visible(dst, subject, pos, world)
	p.acc.add(lAOIVisible, t0, mono()).Items += int64(len(dst) - n)
	return dst
}

// appProbe wraps a replica's application logic. Calls the application
// rejects with an error are counted in the span's Errs.
type appProbe struct {
	inner server.Application
	probe
}

func (p *appProbe) SpawnAvatar(env *server.Env, id entity.ID, pos entity.Vec2, zoneID uint32) *entity.Entity {
	return p.inner.SpawnAvatar(env, id, pos, zoneID)
}

func (p *appProbe) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	if p.acc == nil {
		return p.inner.ApplyInput(env, actor, payload)
	}
	t0 := mono()
	fwds, err := p.inner.ApplyInput(env, actor, payload)
	s := p.acc.add(lGameInput, t0, mono())
	if err != nil {
		s.Errs++
	}
	return fwds, err
}

func (p *appProbe) ApplyForwarded(env *server.Env, actor entity.ID, target *entity.Entity, payload []byte) error {
	if p.acc == nil {
		return p.inner.ApplyForwarded(env, actor, target, payload)
	}
	t0 := mono()
	err := p.inner.ApplyForwarded(env, actor, target, payload)
	s := p.acc.add(lGameFwd, t0, mono())
	if err != nil {
		s.Errs++
	}
	return err
}

func (p *appProbe) UpdateNPC(env *server.Env, npc *entity.Entity) []server.Forward {
	if p.acc == nil {
		return p.inner.UpdateNPC(env, npc)
	}
	t0 := mono()
	fwds := p.inner.UpdateNPC(env, npc)
	p.acc.add(lGameNPC, t0, mono())
	return fwds
}

func (p *appProbe) DrainEvents(env *server.Env, avatar entity.ID) []byte {
	if p.acc == nil {
		return p.inner.DrainEvents(env, avatar)
	}
	t0 := mono()
	ev := p.inner.DrainEvents(env, avatar)
	p.acc.add(lGameEvents, t0, mono())
	return ev
}

func (p *appProbe) EncodeUserState(env *server.Env, avatar entity.ID) []byte {
	return p.inner.EncodeUserState(env, avatar)
}

func (p *appProbe) ApplyUserState(env *server.Env, avatar entity.ID, data []byte) {
	p.inner.ApplyUserState(env, avatar, data)
}

// serverNode is a replica's transport endpoint. Users reach it through the
// in-process loopback network; the peer replica, if any, through one TCP
// connection. Sends are routed by destination. Received frames wait in the
// two underlying inboxes until feed moves them, in a fixed order, into the
// inbox Server.Tick drains, so the replica's input order does not depend
// on when TCP frames happen to arrive.
type serverNode struct {
	id     string
	users  transport.Node
	peer   transport.Node // nil without a peer replica
	peerID string
	inbox  chan transport.Frame
	// held keeps peer frames received but not yet fed; batches counts the
	// complete rounds among them. Every replica tick sends its peer one
	// shadow update after all its forwarded frames, so a shadow update
	// closes the peer's round.
	held    []transport.Frame
	batches int
	// timer bounds a wait for the peer; it is reused, so a wait allocates
	// nothing that the window's allocation count would bill the program.
	timer *time.Timer
	probe

	// clientBytes counts the framed bytes delivered to users.
	clientBytes int64
	// sample, when set, receives a copy of every frame this tick moves.
	sample *frameSample
}

func newServerNode(id string, users, peer transport.Node, peerID string, inboxSize int, p probe) *serverNode {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &serverNode{
		id: id, users: users, peer: peer, peerID: peerID,
		inbox: make(chan transport.Frame, inboxSize), timer: t, probe: p,
	}
}

func (n *serverNode) ID() string                    { return n.id }
func (n *serverNode) Inbox() <-chan transport.Frame { return n.inbox }

func (n *serverNode) Close() error {
	err := n.users.Close()
	if n.peer != nil {
		err = errors.Join(err, n.peer.Close())
	}
	return err
}

func (n *serverNode) Send(to string, payload []byte) error {
	return n.SendBatch(to, [][]byte{payload})
}

// SendBatch implements transport.BatchSender, so the replica flushes its
// tick through one call per destination: one vectored write on the peer's
// TCP connection, a Send per frame on the loopback network (what the
// loopback node's own SendBatch does).
func (n *serverNode) SendBatch(to string, payloads [][]byte) error {
	t0 := mono()
	var err error
	sent := len(payloads)
	if n.peer != nil && to == n.peerID {
		if err = n.peer.(transport.BatchSender).SendBatch(to, payloads); err != nil {
			sent = 0
		}
	} else {
		for i, p := range payloads {
			if err = n.users.Send(to, p); err != nil {
				sent = i
				break
			}
		}
	}
	t1 := mono()
	var bytes int64
	for _, p := range payloads[:sent] {
		bytes += int64(transport.FrameWireBytes(n.id, to, len(p)))
	}
	if to != n.peerID {
		n.clientBytes += bytes
	}
	if n.sample != nil {
		for _, p := range payloads[:sent] {
			n.sample.add(p)
		}
	}
	if n.acc != nil {
		s := n.acc.add(lFlush, t0, t1)
		s.Items += int64(sent)
		s.Bytes += bytes
		s.Errs += int64(len(payloads) - sent)
	}
	return err
}

// hold keeps one peer frame until its round is fed.
func (n *serverNode) hold(f transport.Frame) {
	n.held = append(n.held, f)
	if frameKind(f.Payload) == proto.KindShadowUpdate {
		n.batches++
	}
}

// awaitPeerRound blocks until at least one complete peer round is held and
// returns how long it waited.
func (n *serverNode) awaitPeerRound(timeout time.Duration) (time.Duration, error) {
	if err := n.pullPeer(); err != nil || n.batches > 0 {
		return 0, err
	}
	start := time.Now()
	n.timer.Reset(timeout)
	defer func() {
		if !n.timer.Stop() {
			select {
			case <-n.timer.C:
			default:
			}
		}
	}()
	for n.batches == 0 {
		select {
		case f, ok := <-n.peer.Inbox():
			if !ok {
				return 0, fmt.Errorf("%s: peer link closed", n.id)
			}
			n.hold(f)
		case <-n.timer.C:
			return 0, fmt.Errorf("%s: no round from peer %s within %v", n.id, n.peerID, timeout)
		}
	}
	return time.Since(start), nil
}

// pullPeer holds every peer frame that has already arrived.
func (n *serverNode) pullPeer() error {
	for {
		select {
		case f, ok := <-n.peer.Inbox():
			if !ok {
				return fmt.Errorf("%s: peer link closed", n.id)
			}
			n.hold(f)
		default:
			return nil
		}
	}
}

// feed moves the frames for the next tick into the replica's inbox: when
// peerRound is set, the oldest complete peer round in arrival order, then
// every frame users have sent, in arrival order. The caller has made sure
// a peer round is held.
func (n *serverNode) feed(peerRound bool) error {
	if peerRound {
		k := 0
		for k < len(n.held) && frameKind(n.held[k].Payload) != proto.KindShadowUpdate {
			k++
		}
		if k == len(n.held) {
			return fmt.Errorf("%s: no complete peer round held", n.id)
		}
		for _, f := range n.held[:k+1] {
			if err := n.push(f); err != nil {
				return err
			}
		}
		rest := copy(n.held, n.held[k+1:])
		clear(n.held[rest:])
		n.held = n.held[:rest]
		n.batches--
	}
	for {
		select {
		case f, ok := <-n.users.Inbox():
			if !ok {
				return fmt.Errorf("%s: loopback endpoint closed", n.id)
			}
			if err := n.push(f); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func (n *serverNode) push(f transport.Frame) error {
	select {
	case n.inbox <- f:
		if n.sample != nil {
			n.sample.add(f.Payload)
		}
		return nil
	default:
		return fmt.Errorf("%s: inbox overflow (%d frames queued)", n.id, len(n.inbox))
	}
}

// clientNode is a user's transport endpoint. Frames the loopback network
// delivers wait until pull moves them into the inbox Client.Poll drains,
// folding them into the user's work digest on the way.
type clientNode struct {
	inner transport.Node
	inbox chan transport.Frame

	hashing       bool
	crc           uint32
	frames, bytes int64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (c *clientNode) ID() string                     { return c.inner.ID() }
func (c *clientNode) Send(to string, p []byte) error { return c.inner.Send(to, p) }
func (c *clientNode) Inbox() <-chan transport.Frame  { return c.inbox }
func (c *clientNode) Close() error                   { return c.inner.Close() }

func (c *clientNode) pull() error {
	for {
		select {
		case f, ok := <-c.inner.Inbox():
			if !ok {
				return fmt.Errorf("%s: loopback endpoint closed", c.ID())
			}
			if c.hashing {
				c.crc = crc32.Update(c.crc, castagnoli, f.Payload)
				c.frames++
				c.bytes += int64(len(f.Payload))
			}
			select {
			case c.inbox <- f:
			default:
				return fmt.Errorf("%s: inbox overflow (%d frames queued)", c.ID(), len(c.inbox))
			}
		default:
			return nil
		}
	}
}

func frameKind(p []byte) wire.Kind {
	if len(p) < 2 {
		return 0
	}
	return wire.Kind(binary.BigEndian.Uint16(p))
}
