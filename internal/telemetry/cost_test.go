package telemetry

import (
	"runtime"
	"strings"
	"testing"
)

// costSink keeps test allocations live so the compiler cannot elide them.
var costSink [][]byte

func allocMB(n int) {
	for i := 0; i < n; i++ {
		costSink = append(costSink, make([]byte, 1<<20))
	}
	if len(costSink) > 64 {
		costSink = costSink[:0]
	}
}

func TestCostTrackerStageAttribution(t *testing.T) {
	c := NewCostTracker()
	c.BeginTick()
	allocMB(2)
	c.EndStage(CostStageDecode)
	allocMB(4)
	c.EndStage(CostStageApply)
	cost := c.EndTick()

	snap := c.Snapshot()
	if snap.Ticks != 1 {
		t.Fatalf("ticks = %d, want 1", snap.Ticks)
	}
	if got := snap.AllocBytes[CostStageDecode]; got < 2<<20 {
		t.Fatalf("decode bytes = %d, want >= 2 MiB", got)
	}
	if got := snap.AllocBytes[CostStageApply]; got < 4<<20 {
		t.Fatalf("apply bytes = %d, want >= 4 MiB", got)
	}
	// The stage deltas partition [BeginTick, EndTick], so their sum must
	// equal the tick total exactly (the residue is charged to "other").
	var sumB, sumO uint64
	for _, v := range snap.AllocBytes {
		sumB += v
	}
	for _, v := range snap.AllocObjects {
		sumO += v
	}
	if sumB != cost.AllocBytes || sumO != cost.AllocObjects {
		t.Fatalf("stage sums (%d B, %d objs) != tick totals (%d B, %d objs)",
			sumB, sumO, cost.AllocBytes, cost.AllocObjects)
	}
	if _, ok := snap.AllocBytes[CostStageOther]; !ok {
		t.Fatal("no residual \"other\" stage recorded")
	}
}

func TestCostTrackerStageVocabularyBounded(t *testing.T) {
	c := NewCostTracker()
	c.BeginTick()
	for i := 0; i < 2*maxCostStages; i++ {
		c.EndStage(strings.Repeat("x", i+1))
	}
	c.EndTick()
	if n := len(c.Snapshot().AllocBytes); n > maxCostStages+1 {
		t.Fatalf("stage map grew to %d entries, want <= %d", n, maxCostStages+1)
	}
}

func TestCostTrackerGCAttribution(t *testing.T) {
	c := NewCostTracker()
	c.BeginTick()
	runtime.GC()
	cost := c.EndTick()
	if cost.GCCycles == 0 {
		t.Fatal("forced GC inside the tick, but GCCycles delta is 0")
	}
	if cost.GCPauseMS <= 0 {
		t.Fatalf("forced GC inside the tick, but pause delta is %g ms", cost.GCPauseMS)
	}
	snap := c.Snapshot()
	if snap.GCCycles != cost.GCCycles || snap.GCPauseTotalMS != cost.GCPauseMS {
		t.Fatalf("snapshot GC totals (%d, %g) != tick cost (%d, %g)",
			snap.GCCycles, snap.GCPauseTotalMS, cost.GCCycles, cost.GCPauseMS)
	}
	if q := snap.GCPause.Quantile(1); q <= 0 {
		t.Fatalf("windowed pause max = %g, want > 0", q)
	}

	// A tick without a GC must not inherit the previous tick's pauses.
	c.BeginTick()
	cost = c.EndTick()
	if cost.GCPauseMS != 0 && cost.GCCycles == 0 {
		t.Fatalf("no GC cycle in tick but pause delta = %g ms", cost.GCPauseMS)
	}
}

func TestCostTrackerOutsideTickNoOps(t *testing.T) {
	c := NewCostTracker()
	c.EndStage(CostStageDecode) // before any tick: must not attribute
	if cost := c.EndTick(); cost != (TickCost{}) {
		t.Fatalf("EndTick outside a tick = %+v, want zero", cost)
	}
	if snap := c.Snapshot(); snap.Ticks != 0 || len(snap.AllocBytes) != 0 {
		t.Fatalf("tracker mutated outside a tick: %+v", snap)
	}
}

func TestCostTrackerEgressAccounting(t *testing.T) {
	c := NewCostTracker()
	c.ObserveEgress("c1", "state_keyframe", 100)
	c.ObserveEgress("c1", "state_keyframe", 50)
	c.ObserveEgress("c2", "join_ack", 30)
	c.ObserveEgress("", "shadow_update", 500) // server-to-server: type only
	c.ObserveEgress("c1", "input", 0)         // empty frames are ignored

	snap := c.Snapshot()
	if got := snap.EgressByType["state_keyframe"]; got != 150 {
		t.Fatalf("state_keyframe bytes = %d, want 150", got)
	}
	if got := snap.EgressByType["shadow_update"]; got != 500 {
		t.Fatalf("shadow_update bytes = %d, want 500", got)
	}
	if snap.EgressClientBytes != 180 {
		t.Fatalf("client bytes = %d, want 180 (shadow traffic must not count)", snap.EgressClientBytes)
	}
	if snap.EgressClients != 2 {
		t.Fatalf("clients = %d, want 2", snap.EgressClients)
	}
	if b, ok := c.ClientEgressBytes("c1"); !ok || b != 150 {
		t.Fatalf("ClientEgressBytes(c1) = %d, %v, want 150, true", b, ok)
	}
	if max := snap.Payload.Quantile(1); max != 100 {
		t.Fatalf("payload max = %g, want 100", max)
	}

	c.EvictClient("c1")
	if _, ok := c.ClientEgressBytes("c1"); ok {
		t.Fatal("c1 still tracked after EvictClient")
	}
	snap = c.Snapshot()
	if snap.EgressClients != 1 {
		t.Fatalf("clients after evict = %d, want 1", snap.EgressClients)
	}
	if snap.EgressClientBytes != 180 {
		t.Fatalf("cumulative client bytes changed on evict: %d", snap.EgressClientBytes)
	}
}

func TestCostTrackerEgressTypeVocabularyBounded(t *testing.T) {
	c := NewCostTracker()
	for i := 0; i < 3*maxEgressTypes; i++ {
		c.ObserveEgress("", strings.Repeat("t", i+1), 1)
	}
	snap := c.Snapshot()
	if n := len(snap.EgressByType); n > maxEgressTypes+1 {
		t.Fatalf("egress type map grew to %d entries, want <= %d", n, maxEgressTypes+1)
	}
	if snap.EgressByType["other"] == 0 {
		t.Fatal("overflow types not collapsed into \"other\"")
	}
}

func TestCostTrackerChurn(t *testing.T) {
	c := NewCostTracker()
	for i := 0; i < 10; i++ {
		c.ObserveChurn(2, 0)
	}
	c.ObserveChurn(40, 7)
	snap := c.Snapshot()
	if max := snap.ChurnEnter.Quantile(1); max != 40 {
		t.Fatalf("churn enter max = %g, want 40", max)
	}
	if max := snap.ChurnLeave.Quantile(1); max != 7 {
		t.Fatalf("churn leave max = %g, want 7", max)
	}
	if med := snap.ChurnEnter.Quantile(0.5); med <= 0 || med > 3 {
		t.Fatalf("churn enter median = %g, want ~2", med)
	}
}

func TestCostTrackerWriteMetrics(t *testing.T) {
	c := NewCostTracker()
	c.BeginTick()
	runtime.GC()
	c.EndStage(CostStagePublish)
	c.EndTick()
	c.ObserveEgress("c1", "state_keyframe", 64)
	c.ObserveChurn(1, 1)

	var b strings.Builder
	if err := c.WriteMetrics(&b, `zone="1"`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE roia_alloc_bytes_total counter",
		`roia_alloc_bytes_total{zone="1",stage="publish"} `,
		"# TYPE roia_alloc_objects_total counter",
		"# TYPE roia_gc_cycles_total counter",
		`roia_gc_cycles_total{zone="1"} `,
		"# TYPE roia_gc_pause_ms_total counter",
		"# TYPE roia_gc_pause_q_ms gauge",
		`roia_gc_pause_q_ms{zone="1",q="0.99"} `,
		"# TYPE roia_egress_bytes_total counter",
		`roia_egress_bytes_total{zone="1",type="state_keyframe"} 64`,
		"# TYPE roia_egress_client_bytes_total counter",
		`roia_egress_client_bytes_total{zone="1"} 64`,
		"# TYPE roia_egress_clients gauge",
		`roia_egress_clients{zone="1"} 1`,
		"# TYPE roia_egress_payload_q_bytes gauge",
		`roia_egress_payload_q_bytes{zone="1",q="1"} `,
		"# TYPE roia_aoi_churn_enter_q gauge",
		"# TYPE roia_aoi_churn_leave_q gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("cost metrics missing %q:\n%s", want, out)
		}
	}
}
