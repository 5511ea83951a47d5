package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"time"

	"roia/internal/game"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

const (
	// inboxSize bounds a replica's inboxes; a tick queues at most two
	// inputs per user plus the peer's round, far below it.
	inboxSize = 1 << 14
	// clientInboxSize bounds a user's inboxes; a user receives one update
	// per tick, plus its join ack during set-up.
	clientInboxSize = 64
	// peerTimeout fails a run whose peer replica stopped sending.
	peerTimeout = 10 * time.Second
	// joinIters bounds the set-up iterations spent waiting for join acks.
	joinIters = 50
	// sampleEvery is the tick stride of the protocol frame sample.
	sampleEvery = 16
	// sampleLimit caps the bytes kept in the protocol frame sample.
	sampleLimit = 8 << 20
)

// epoch anchors mono; it is set once at start-up.
var epoch = time.Now()

// mono reads the monotonic clock in nanoseconds since start-up.
func mono() int64 { return int64(time.Since(epoch)) }

// rig is one closed-loop system under test: the replicas of one zone, the
// users connected to them and the input generator.
type rig struct {
	tr      *tracer // nil in an untraced run
	net     *transport.Loopback
	tcp     *transport.TCPNetwork // nil with one replica
	reps    []*replica
	clients []*benchClient
	npcs    []entity.ID
	gen     *generator
	iter    uint64

	allocs metricReader
	heap   metricReader

	// peerWaitNS is the time spent waiting for peer rounds.
	peerWaitNS int64

	// Window accounting, set up by measure: tick times on the thread CPU
	// clock and on the wall clock, and updates applied. sample, when set,
	// collects the frames of every sampleEvery-th tick.
	window     bool
	tickMS     []float64
	tickWallMS []float64
	applied    int64
	sample     *frameSample
}

type replica struct {
	srv  *server.Server
	node *serverNode
}

type benchClient struct {
	c    *client.Client
	node *clientNode
	rep  int
}

// newRig builds the replicas, spawns the NPCs, connects every user and
// iterates the loop until every join is acknowledged.
func newRig(w workload, seed int64, tr *tracer, observers bool) (*rig, error) {
	r := &rig{
		tr: tr, net: transport.NewLoopback(),
		gen:    newGenerator(seed, game.DefaultConfig().MoveSpeed),
		allocs: newMetricReader("/gc/heap/allocs:objects"),
		heap:   newMetricReader("/gc/heap/live:bytes"),
	}
	if err := r.build(w, seed, observers); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

func (r *rig) build(w workload, seed int64, observers bool) error {
	tr := r.tr
	if w.replicas > 1 {
		r.tcp = transport.NewTCP()
	}
	assignment := zone.NewAssignment()
	cfg := game.DefaultConfig()
	cfg.WorldMax = w.world
	ids := make([]string, w.replicas)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%d", i+1)
	}
	for i, id := range ids {
		users, err := r.net.Attach(id, inboxSize)
		if err != nil {
			return err
		}
		var peer transport.Node
		var peerID string
		if r.tcp != nil {
			if peer, err = r.tcp.Attach(id, inboxSize); err != nil {
				users.Close()
				return err
			}
			peerID = ids[1-i]
		}
		var p probe
		if tr != nil {
			p = probe{acc: &tr.reps[i]}
		}
		node := newServerNode(id, users, peer, peerID, inboxSize, p)
		scfg := server.Config{
			Node:         node,
			Zone:         1,
			Assignment:   assignment,
			App:          &appProbe{inner: game.New(cfg), probe: p},
			AOI:          &aoiProbe{inner: aoi.NewIncremental(server.DefaultAOIRadius), probe: p},
			IDPrefix:     uint16(i + 1),
			Seed:         seed + int64(i),
			DeltaUpdates: true,
			Parallelism:  1,
		}
		if observers {
			scfg.Tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
			scfg.Profiler = telemetry.NewTaskProfiler()
			scfg.FlightRec = telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
			scfg.Cost = telemetry.NewCostTracker()
		}
		srv, err := server.New(scfg)
		if err != nil {
			node.Close()
			return err
		}
		srv.Start()
		r.reps = append(r.reps, &replica{srv: srv, node: node})
	}

	place := rand.New(rand.NewSource(seed))
	pos := func() entity.Vec2 {
		return entity.Vec2{X: place.Float64() * w.world, Y: place.Float64() * w.world}
	}
	for i := 0; i < w.npcs; i++ {
		r.npcs = append(r.npcs, r.reps[0].srv.SpawnNPC(pos()))
	}
	for i := 0; i < w.users; i++ {
		id := fmt.Sprintf("u%04d", i)
		inner, err := r.net.Attach(id, clientInboxSize)
		if err != nil {
			return err
		}
		node := &clientNode{inner: inner, inbox: make(chan transport.Frame, clientInboxSize), hashing: true}
		rep := i % w.replicas
		bc := &benchClient{c: client.New(node, ids[rep]), node: node, rep: rep}
		r.clients = append(r.clients, bc)
		if err := bc.c.Join(1, pos(), id); err != nil {
			return fmt.Errorf("join %s: %w", id, err)
		}
	}
	for i := 0; ; i++ {
		if _, _, err := r.iterate(func() bool { return false }); err != nil {
			return err
		}
		joined := 0
		for _, c := range r.clients {
			if c.c.Joined() {
				joined++
			}
		}
		if joined == len(r.clients) {
			return nil
		}
		if i == joinIters {
			return fmt.Errorf("set-up: %d of %d joins acknowledged after %d iterations", joined, len(r.clients), joinIters)
		}
	}
}

// close stops every replica and user endpoint and waits for the transport
// goroutines to end.
func (r *rig) close() error {
	var err error
	for _, rep := range r.reps {
		err = errors.Join(err, rep.srv.Stop())
	}
	for _, c := range r.clients {
		err = errors.Join(err, c.c.Close())
	}
	return errors.Join(err, r.net.Close())
}

// tickAndPoll ticks every replica once, each after its peer's previous
// round has arrived, then lets every user poll.
func (r *rig) tickAndPoll() error {
	r.iter++
	tr := r.tr
	var sample *frameSample
	if r.window && r.iter%sampleEvery == 0 {
		sample = r.sample
	}
	for i, rep := range r.reps {
		n := rep.node
		n.sample = sample
		peerRound := n.peer != nil && r.iter >= 2
		if peerRound {
			w0 := mono()
			wait, err := n.awaitPeerRound(peerTimeout)
			if err != nil {
				return err
			}
			r.peerWaitNS += int64(wait)
			if tr != nil {
				tr.loop.add(lPeerWait, w0, mono())
			}
		}
		f0 := mono()
		if err := n.feed(peerRound); err != nil {
			return err
		}
		framesIn := len(n.inbox)
		var a0 int64
		if tr != nil {
			a0 = r.allocs.read()
		}
		c0 := threadCPU()
		t0 := mono()
		if tr != nil {
			tr.loop.add(lFeed, f0, t0)
		}
		rep.srv.Tick()
		t1 := mono()
		c1 := threadCPU()
		if r.window {
			r.tickMS = append(r.tickMS, float64(c1-c0)/1e6)
			r.tickWallMS = append(r.tickWallMS, float64(t1-t0)/1e6)
		}
		if tr != nil {
			s := tr.reps[i].add(lTick, t0, t1)
			s.Items = int64(framesIn)
			s.Allocs = r.allocs.read() - a0
			tr.closeTick(r.iter, i)
		}
		n.sample = nil
		if r.iter == 1 && i == 0 && len(r.reps) > 1 {
			// The first round opens the only TCP connection: replica 1
			// dials replica 2. Waiting until replica 2 has received
			// that round means replica 2 has adopted the connection, so
			// its replies ride it instead of dialing a second one.
			wait, err := r.reps[1].node.awaitPeerRound(peerTimeout)
			if err != nil {
				return err
			}
			r.peerWaitNS += int64(wait)
		}
	}
	f0 := mono()
	for _, c := range r.clients {
		if err := c.node.pull(); err != nil {
			return err
		}
	}
	var a0 int64
	if tr != nil {
		tr.loop.add(lFeed, f0, mono())
		a0 = r.allocs.read()
	}
	for _, c := range r.clients {
		p0 := mono()
		n := c.c.Poll()
		// A user consumes its events; undrained, they pile up in the client.
		c.c.DrainEvents()
		if tr != nil {
			tr.loop.add(lPoll, p0, mono()).Items += int64(n)
		}
		if r.window {
			r.applied += int64(n)
		}
	}
	if tr != nil {
		tr.loop.cur[lPoll].Allocs = r.allocs.read() - a0
	}
	return nil
}

// iterate runs one closed-loop iteration: every replica ticks, every user
// polls, and then, if gen (asked after the polls) says so, the generator
// sends every user's next inputs. It returns the inputs sent and those
// that failed to send.
func (r *rig) iterate(gen func() bool) (sent, failed int64, err error) {
	tr := r.tr
	it0 := mono()
	if err := r.tickAndPoll(); err != nil {
		return 0, 0, err
	}
	if gen() {
		g0 := mono()
		sent, failed = r.gen.step(r.clients, tr)
		if tr != nil {
			tr.loop.add(lLoadgen, g0, mono())
		}
	}
	if tr != nil {
		tr.loop.add(lIter, it0, mono())
		tr.closeIter(r.iter)
	}
	return sent, failed, nil
}

// generator draws every user's commands from the workload seed alone: per
// step, a move with probability 0.9 and an attack in a random direction
// with probability 0.4.
type generator struct {
	rng   *rand.Rand
	w     *wire.Writer
	speed float64
	move  game.Move
	atk   game.Attack
}

func newGenerator(seed int64, speed float64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed ^ 0x6c6f6164)), w: wire.NewWriter(64), speed: speed}
}

func (g *generator) step(clients []*benchClient, tr *tracer) (sent, failed int64) {
	for _, c := range clients {
		if g.rng.Float64() < 0.9 {
			g.move.DX = (g.rng.Float64()*2 - 1) * g.speed
			g.move.DY = (g.rng.Float64()*2 - 1) * g.speed
			sent++
			if g.send(c.c, &g.move, tr) != nil {
				failed++
			}
		}
		if g.rng.Float64() < 0.4 {
			a := g.rng.Float64() * 2 * math.Pi
			g.atk.DirX, g.atk.DirY = math.Cos(a), math.Sin(a)
			sent++
			if g.send(c.c, &g.atk, tr) != nil {
				failed++
			}
		}
	}
	return sent, failed
}

func (g *generator) send(c *client.Client, cmd wire.Message, tr *tracer) error {
	payload := game.Commands.Encode(g.w, cmd)
	if tr == nil {
		return c.SendInput(payload)
	}
	t0 := mono()
	err := c.SendInput(payload)
	tr.loop.add(lSend, t0, mono())
	return err
}

// metricReader reads one runtime/metrics counter without allocating.
type metricReader struct{ s []metrics.Sample }

func newMetricReader(name string) metricReader {
	return metricReader{s: []metrics.Sample{{Name: name}}}
}

func (m metricReader) read() int64 {
	metrics.Read(m.s)
	return int64(m.s[0].Value.Uint64())
}
