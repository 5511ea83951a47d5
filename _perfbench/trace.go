package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// layer names one span kind. Replica layers are recorded once per replica
// tick with the tick span as parent; loop layers once per loop iteration
// with the iteration span as parent.
type layer uint8

const (
	// Replica layers.
	lTick       layer = iota // server: one Server.Tick call (root of a replica tick)
	lAOIBuild                // aoi: Manager.Build
	lAOIVisible              // aoi: Manager.Visible, one call per published user
	lGameInput               // game: Application.ApplyInput
	lGameFwd                 // game: Application.ApplyForwarded
	lGameEvents              // game: Application.DrainEvents
	lGameNPC                 // game: Application.UpdateNPC
	lFlush                   // transport: Node.SendBatch / Send

	// Loop layers.
	lIter     // one closed-loop iteration (root)
	lPeerWait // transport: waiting for the peer replica's frames
	lFeed     // harness: moving queued frames into replica and client inboxes
	lPoll     // client: Client.Poll
	lLoadgen  // loadgen: one generator step, client sends included
	lSend     // client: Client.SendInput (child of lLoadgen)
	nLayers
)

// nReplicaLayers ends the replica layers: every layer below it belongs to
// a replica tick.
const nReplicaLayers = lIter

var layerNames = [nLayers]string{
	lTick: "server.tick", lAOIBuild: "aoi.build", lAOIVisible: "aoi.visible",
	lGameInput: "game.input", lGameFwd: "game.forwarded", lGameEvents: "game.events",
	lGameNPC: "game.npc", lFlush: "transport.flush",
	lIter: "loop.iteration", lPeerWait: "transport.peer_wait", lFeed: "harness.feed",
	lPoll: "client.poll", lLoadgen: "loadgen.step", lSend: "client.send",
}

func (l layer) String() string { return layerNames[l] }

// span is one layer's activity within one replica tick or loop iteration.
// Calls to the same layer within that tick are folded into one span: Start
// is the first call's start, End the last call's end (both on the mono
// clock), Busy the summed call durations. The counters are layer-specific: Items counts visible IDs
// (aoi.visible), frames (server.tick: queued at tick start;
// transport.flush: sent) or updates applied (client.poll); Bytes counts
// framed bytes sent; Errs counts rejected calls (game) or failed sends;
// Allocs counts heap objects allocated during the span.
type span struct {
	Iter   uint64 `json:"iter"`
	Rep    int    `json:"replica"` // -1 for loop layers
	Parent int    `json:"parent"`  // index of the parent span in the trace, -1 for roots
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
	Items  int64  `json:"items,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Errs   int64  `json:"errs,omitempty"`
	Allocs int64  `json:"allocs,omitempty"`

	layer layer
}

// acc accumulates the open spans of one replica tick or loop iteration.
type acc struct {
	cur [nLayers]span
}

// add folds one call [t0, t1] into the open span of layer l.
func (a *acc) add(l layer, t0, t1 int64) *span {
	s := &a.cur[l]
	if s.Calls == 0 {
		s.Start = t0
	}
	s.End = t1
	s.Busy += t1 - t0
	s.Calls++
	return s
}

// tracer keeps every span of a traced run in memory, keyed by loop
// iteration (equal to the tick number: every replica ticks once per
// iteration), and writes them out when the run ends.
type tracer struct {
	spans []span
	reps  []acc
	loop  acc
}

func newTracer(replicas int) *tracer {
	return &tracer{reps: make([]acc, replicas)}
}

// closeTick moves replica rep's open spans for tick iter into the trace:
// the tick span first, then its children pointing at it.
func (t *tracer) closeTick(iter uint64, rep int) {
	a := &t.reps[rep]
	root := len(t.spans)
	for l := layer(0); l < nReplicaLayers; l++ {
		s := a.cur[l]
		if s.Calls == 0 {
			continue
		}
		s.Iter, s.Rep, s.layer, s.Parent = iter, rep, l, root
		if l == lTick {
			s.Parent = -1
		}
		t.spans = append(t.spans, s)
	}
	a.cur = [nLayers]span{}
}

// closeIter moves the loop's open spans for iteration iter into the trace,
// the iteration span first. Client sends are children of the generator
// step; every other loop layer is a child of the iteration.
func (t *tracer) closeIter(iter uint64) {
	root := len(t.spans)
	loadgen := -1
	for l := lIter; l < nLayers; l++ {
		s := t.loop.cur[l]
		if s.Calls == 0 {
			continue
		}
		s.Iter, s.Rep, s.layer = iter, -1, l
		switch l {
		case lIter:
			s.Parent = -1
		case lSend:
			s.Parent = loadgen
		default:
			s.Parent = root
		}
		if l == lLoadgen {
			loadgen = len(t.spans)
		}
		t.spans = append(t.spans, s)
	}
	t.loop.cur = [nLayers]span{}
}

// write stores the trace as JSON lines, one span per line, each tagged
// with the run phase that recorded it. Parent indices count spans within
// one phase.
func (t *tracer) write(path, phase string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Phase string `json:"phase"`
		Name  string `json:"name"`
		span
	}
	for _, s := range t.spans {
		if err := enc.Encode(line{Phase: phase, Name: s.layer.String(), span: s}); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
