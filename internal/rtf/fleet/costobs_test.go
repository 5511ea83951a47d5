package fleet_test

// Cost observability at fleet level: the collector's zone-merged egress /
// GC / AoI-churn families and the qos_gc_pause and egress_per_user_ceiling
// alert rules. The GC rule test forces a collection from inside ApplyInput
// so a GC pause provably lands between BeginTick and EndTick, instead of
// hoping the runtime collects on cue.

import (
	"runtime"
	"strings"
	"testing"

	"roia/internal/game"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/fleet"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// gcForceApp wraps the game application and forces a garbage collection on
// every user input, guaranteeing in-tick GC pause for the cost tracker to
// attribute.
type gcForceApp struct{ server.Application }

func (a gcForceApp) ApplyInput(env *server.Env, actor *entity.Entity, payload []byte) ([]server.Forward, error) {
	runtime.GC()
	return a.Application.ApplyInput(env, actor, payload)
}

func newCostHarness(t *testing.T, forceGC bool) *harness {
	t.Helper()
	net := transport.NewLoopback()
	t.Cleanup(func() { net.Close() })
	newApp := func() server.Application { return game.New(game.DefaultConfig()) }
	if forceGC {
		newApp = func() server.Application { return gcForceApp{game.New(game.DefaultConfig())} }
	}
	fl, err := fleet.New(fleet.Config{
		Network:      net,
		Zone:         1,
		Assignment:   zone.NewAssignment(),
		NewApp:       newApp,
		Seed:         7,
		CostTrackers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddReplica(); err != nil {
		t.Fatal(err)
	}
	return &harness{net: net, fl: fl}
}

func TestFleetCostMetricsExposition(t *testing.T) {
	h := newCostHarness(t, false)
	h.addBot(t, "server-1")
	for i := 0; i < 40; i++ {
		h.step()
	}
	ct, ok := h.fl.CostTracker("server-1")
	if !ok || ct == nil {
		t.Fatalf("CostTracker(server-1) = %v, %v; want a tracker with CostTrackers on", ct, ok)
	}
	if ct.Ticks() == 0 {
		t.Fatal("cost tracker recorded no ticks")
	}

	c := fleet.NewCollector(h.fl)
	var b strings.Builder
	if err := c.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE roia_fleet_egress_bytes_total counter",
		`roia_fleet_egress_bytes_total{zone="1",type="state_keyframe"} `,
		"# TYPE roia_fleet_egress_client_bytes_total counter",
		`roia_fleet_egress_client_bytes_total{zone="1"} `,
		"# TYPE roia_fleet_egress_payload_q_bytes gauge",
		`roia_fleet_egress_payload_q_bytes{zone="1",q="p50"}`,
		`roia_fleet_egress_payload_q_bytes{zone="1",q="p999"}`,
		"# TYPE roia_fleet_gc_cycles_total counter",
		`roia_fleet_gc_cycles_total{zone="1"} `,
		"# TYPE roia_fleet_gc_pause_ms_total counter",
		"# TYPE roia_fleet_gc_pause_q_ms gauge",
		`roia_fleet_gc_pause_q_ms{zone="1",q="p99"}`,
		"# TYPE roia_fleet_alloc_bytes_total counter",
		`roia_fleet_alloc_bytes_total{zone="1",stage="publish"} `,
		"# TYPE roia_fleet_aoi_churn_enter_q gauge",
		`roia_fleet_aoi_churn_enter_q{zone="1",q="p50"}`,
		"# TYPE roia_fleet_aoi_churn_leave_q gauge",
		`roia_fleet_aoi_churn_leave_q{zone="1",q="p50"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet metrics missing %q:\n%s", want, out)
		}
	}
}

func TestFleetCostMetricsOmittedWithoutTrackers(t *testing.T) {
	h := newHarness(t) // CostTrackers off
	h.addBot(t, "server-1")
	for i := 0; i < 10; i++ {
		h.step()
	}
	c := fleet.NewCollector(h.fl)
	var b strings.Builder
	if err := c.WriteMetrics(&b, ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "roia_fleet_egress_bytes_total") {
		t.Fatalf("cost families emitted without cost trackers:\n%s", b.String())
	}
}

func TestQoSGCPauseRule(t *testing.T) {
	h := newCostHarness(t, true)
	h.addBot(t, "server-1")
	srv, ok := h.fl.Server("server-1")
	if !ok {
		t.Fatal("server-1 not running")
	}
	srv.Monitor().SetDeadline(25)
	// A near-zero budget fraction makes any in-tick GC pause a breach; the
	// wrapped app forces a collection on every input, so the windowed pause
	// p99 is nonzero by construction after a handful of ticks.
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{
		Model:         tinyModel(t),
		GCPauseBudget: 1e-9,
	})...)
	for i := 0; i < 30; i++ {
		h.step()
	}
	engine.Eval(0)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertQoSGCPause {
			found = true
			if a.Key != "server-1" || a.Value <= a.Threshold {
				t.Fatalf("gc pause alert = %+v, want server-1 over threshold", a)
			}
		}
	}
	if !found {
		ct, _ := h.fl.CostTracker("server-1")
		t.Fatalf("qos_gc_pause not active after forced in-tick GCs (snapshot %+v)", ct.Snapshot())
	}
}

func TestEgressPerUserCeilingRule(t *testing.T) {
	h := newCostHarness(t, false)
	h.addBot(t, "server-1")
	// One byte per user per tick: a single state update frame breaches it.
	engine := telemetry.NewAlertEngine(nil, h.fl.AlertRules(fleet.AlertConfig{
		Model:                tinyModel(t),
		EgressPerUserCeiling: 1,
	})...)
	for i := 0; i < 10; i++ {
		h.step()
	}
	engine.Eval(0)
	for i := 0; i < 10; i++ {
		h.step()
	}
	engine.Eval(1)
	found := false
	for _, a := range engine.Active() {
		if a.Rule == fleet.AlertEgressPerUser {
			found = true
			if a.Key != "server-1" || a.Value <= a.Threshold || a.Threshold != 1 {
				t.Fatalf("egress alert = %+v, want server-1 over the 1-byte ceiling", a)
			}
		}
	}
	if !found {
		ct, _ := h.fl.CostTracker("server-1")
		t.Fatalf("egress_per_user_ceiling not active under live traffic (snapshot %+v)", ct.Snapshot())
	}
}

func TestEgressRuleAbsentWithoutCeiling(t *testing.T) {
	h := newCostHarness(t, false)
	for _, r := range h.fl.AlertRules(fleet.AlertConfig{Model: tinyModel(t)}) {
		if r.Name == fleet.AlertEgressPerUser {
			t.Fatal("egress_per_user_ceiling rule built with a zero ceiling")
		}
	}
}
