package server_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"roia/internal/game"
	"roia/internal/rtf/client"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// tracedServer builds a single-replica server with tick tracing enabled
// and one connected client driving load.
func tracedServer(t *testing.T) (*server.Server, *client.Client, *telemetry.Tracer) {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	node, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(64)
	srv, err := server.New(server.Config{
		Node:       node,
		Zone:       1,
		Assignment: zone.NewAssignment(),
		App:        game.New(game.DefaultConfig()),
		IDPrefix:   1,
		Seed:       7,
		Tracer:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	cnode, err := net.Attach("c1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(cnode, "s1")
	if err := cl.Join(1, entity.Vec2{X: 10, Y: 10}, "c1"); err != nil {
		t.Fatal(err)
	}
	return srv, cl, tracer
}

func TestTickTraceRecordsSpans(t *testing.T) {
	srv, cl, tracer := tracedServer(t)
	srv.SpawnNPC(entity.Vec2{X: 12, Y: 12})
	for i := 0; i < 10; i++ {
		srv.Tick()
		cl.Poll()
		if err := cl.SendInput([]byte{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if tracer.Len() == 0 {
		t.Fatal("no traces recorded")
	}
	recs := tracer.Last(0)
	last := recs[len(recs)-1]
	if last.Tick != srv.Monitor().Ticks() {
		t.Fatalf("last record tick = %d, monitor ticks = %d", last.Tick, srv.Monitor().Ticks())
	}
	if len(last.Tasks) == 0 {
		t.Fatal("last record has no tasks")
	}
	if len(last.Tasks) != cap(last.Tasks) {
		t.Fatalf("Tasks holds %d spans in %d slots; the ring retains every slot", len(last.Tasks), cap(last.Tasks))
	}
	// The tasks are synthesized from the same Breakdown the monitor
	// ingests, so they must sum exactly to its task total.
	br := srv.Monitor().LastBreakdown()
	total := tasksMS(last.Tasks)
	if diff := math.Abs(total - br.Total()); diff > 1e-9 {
		t.Fatalf("task total %g ms != breakdown total %g ms", total, br.Total())
	}
	// Wall time covers at least the task time.
	if last.WallMS < total {
		t.Fatalf("wall %g ms < task total %g ms", last.WallMS, total)
	}
	// Tasks are contiguous from 0 in loop order.
	offset := 0.0
	for _, sp := range last.Tasks {
		if math.Abs(sp.StartMS-offset) > 1e-9 {
			t.Fatalf("task %s starts at %g, want %g", sp.Name, sp.StartMS, offset)
		}
		offset += sp.DurMS
	}
	// NPC work must show up as a named model parameter.
	found := false
	for _, sp := range last.Tasks {
		if sp.Name == "t_npc" && sp.Items == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("t_npc task missing: %+v", last.Tasks)
	}
}

func tasksMS(tasks []telemetry.Span) float64 {
	sum := 0.0
	for _, sp := range tasks {
		sum += sp.DurMS
	}
	return sum
}

// TestTracerAndFlightRecShareTickRecord runs a server with both per-tick
// observers on and checks that, for every tick the flight recorder
// captured, the Tracer ring holds the very same record: equal fields and
// one shared Tasks slice, built once per tick.
func TestTracerAndFlightRecShareTickRecord(t *testing.T) {
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	node, err := net.Attach("s1", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(64)
	// A 1 ns tick interval makes every tick miss its deadline, and Post -1
	// closes each capture on its trigger: every tick yields one capture.
	fr := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{Pre: 2, Post: -1})
	srv, err := server.New(server.Config{
		Node: node, Zone: 1, Assignment: zone.NewAssignment(),
		App: game.New(game.DefaultConfig()), IDPrefix: 1, Seed: 7,
		TickInterval: time.Nanosecond,
		Tracer:       tracer,
		FlightRec:    fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.SpawnNPC(entity.Vec2{X: 12, Y: 12})
	for i := 0; i < 5; i++ {
		srv.Tick()
	}
	byTick := make(map[uint64]telemetry.TickRecord)
	for _, rec := range tracer.Last(0) {
		byTick[rec.Tick] = rec
	}
	caps := fr.Captures()
	if len(caps) != 5 {
		t.Fatalf("got %d captures, want one per tick", len(caps))
	}
	for _, c := range caps {
		for _, got := range c.Records {
			want, ok := byTick[got.Tick]
			if !ok {
				t.Fatalf("tick %d captured but not traced", got.Tick)
			}
			if len(got.Tasks) == 0 || &got.Tasks[0] != &want.Tasks[0] {
				t.Fatalf("tick %d: flight recorder and tracer hold different Tasks slices", got.Tick)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d records differ:\nflightrec %+v\ntracer    %+v", got.Tick, got, want)
			}
		}
	}
}

func TestTickTraceDisabledByDefault(t *testing.T) {
	c := newCluster(t, 1)
	if c.servers[0].Tracer() != nil {
		t.Fatal("tracer set without configuration")
	}
	c.servers[0].Tick() // must not panic with a nil tracer
}
