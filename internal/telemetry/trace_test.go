package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func sampleTrace(tick uint64) TickRecord {
	return TickRecord{
		Tick:           tick,
		StartUnixMicro: int64(tick) * 40_000,
		WallMS:         1.2,
		CPUMS:          1.0,
		Users:          10,
		ActiveUsers:    10,
		Tasks: []Span{
			{Name: "t_ua", StartMS: 0, DurMS: 0.5, Items: 10},
			{Name: "t_aoi", StartMS: 0.5, DurMS: 0.3, Items: 10},
			{Name: "t_su", StartMS: 0.8, DurMS: 0.2, Items: 10},
		},
	}
}

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := uint64(1); i <= 10; i++ {
		tr.Record(sampleTrace(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	last := tr.Last(0)
	if len(last) != 4 {
		t.Fatalf("Last(0) returned %d records", len(last))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if last[i].Tick != want {
			t.Fatalf("Last(0)[%d].Tick = %d, want %d (chronological order)", i, last[i].Tick, want)
		}
	}
	if got := tr.Last(2); len(got) != 2 || got[0].Tick != 9 || got[1].Tick != 10 {
		t.Fatalf("Last(2) = %v", got)
	}
	if got := tr.Last(100); len(got) != 4 {
		t.Fatalf("Last(100) returned %d records", len(got))
	}
}

func TestTracerDefaultCapacity(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < DefaultTraceCapacity+5; i++ {
		tr.Record(TickRecord{Tick: uint64(i)})
	}
	if tr.Len() != DefaultTraceCapacity {
		t.Fatalf("Len = %d, want %d", tr.Len(), DefaultTraceCapacity)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	recs := []TickRecord{sampleTrace(1), sampleTrace(2)}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, recs); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("not valid trace_event JSON: %v\n%s", err, sb.String())
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", decoded.DisplayTimeUnit)
	}
	// 2 ticks × (1 enclosing event + 3 tasks).
	if len(decoded.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(decoded.TraceEvents))
	}
	// Per tick: the task events must sum to the breakdown total, and every
	// event must be a complete ("X") event inside its tick window.
	spanSum := 0.0
	var tickDur float64
	for _, ev := range decoded.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph=%q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "tick" {
			tickDur = ev.Dur
			continue
		}
		if ev.TID != 1 {
			t.Fatalf("span %q on tid %d", ev.Name, ev.TID)
		}
		spanSum += ev.Dur
	}
	if want := 2 * 1.0 * 1000; math.Abs(spanSum-want) > 1e-9 { // µs
		t.Fatalf("span durations sum to %g µs, want %g", spanSum, want)
	}
	if tickDur != 1.2*1000 {
		t.Fatalf("tick event dur = %g µs, want 1200", tickDur)
	}
}

// TestWriteChromeTraceGolden pins the Chrome export byte for byte: the
// golden file is the output of the earlier span-list trace type for the
// same tick data, so moving the Tracer onto TickRecord changed nothing a
// trace viewer sees. Fields a TickRecord adds (CPU, gauges, GC) must not
// leak into the export.
func TestWriteChromeTraceGolden(t *testing.T) {
	recs := []TickRecord{
		{Tick: 41, StartUnixMicro: 1_700_000_000_123_456, WallMS: 2.75, CPUMS: 9, Users: 12, QueueDepth: 30, Tasks: []Span{
			{Name: "t_ua_dser", StartMS: 0, DurMS: 0.1, Items: 12},
			{Name: "t_ua", StartMS: 0.1, DurMS: 0.2, Items: 12},
			{Name: "t_npc", StartMS: 0.30000000000000004, DurMS: 1.0625, Items: 3},
			{Name: "t_aoi", StartMS: 1.3625, DurMS: 0.333, Items: 40},
			{Name: "t_su", StartMS: 1.6955, DurMS: 0.0175},
		}},
		{Tick: 42, StartUnixMicro: 1_700_000_000_163_456, WallMS: 0.004, DeadlineMS: 40, SlackMS: 39.996},
		{Tick: 43, StartUnixMicro: 1_700_000_000_203_456, WallMS: 41.5, GCPauseMS: 0.5, GCCycles: 1, Tasks: []Span{
			{Name: "t_fa_dser", StartMS: 0, DurMS: 7e-05, Items: 1},
			{Name: "t_mig_ini", StartMS: 7e-05, DurMS: 40.123456789, Items: 2},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/chrome_trace.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace drifted from the golden:\ngot  %s\nwant %s", buf.Bytes(), want)
	}
}

func TestWriteTraceJSONLRoundTrip(t *testing.T) {
	recs := []TickRecord{sampleTrace(1), sampleTrace(2), sampleTrace(3)}
	var sb strings.Builder
	if err := WriteTraceJSONL(&sb, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var rec TickRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if rec.Tick != recs[i].Tick || rec.Users != 10 || len(rec.Tasks) != 3 {
			t.Fatalf("line %d round-trip mismatch: %+v", i, rec)
		}
	}
}

// TestTickTraceTotal checks the enclosing tick event's tasks_ms: the sum of
// the record's task durations (not its CPUMS field), and 0 for a tick with
// no task work.
func TestTickTraceTotal(t *testing.T) {
	tasksMS := func(rec TickRecord) float64 {
		var sb strings.Builder
		if err := WriteChromeTrace(&sb, []TickRecord{rec}); err != nil {
			t.Fatal(err)
		}
		var decoded struct {
			TraceEvents []struct {
				Args map[string]float64 `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
			t.Fatal(err)
		}
		return decoded.TraceEvents[0].Args["tasks_ms"]
	}
	if got := tasksMS(sampleTrace(1)); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("tasks_ms = %g, want 1.0", got)
	}
	if got := tasksMS(TickRecord{CPUMS: 3}); got != 0 {
		t.Fatalf("empty record tasks_ms = %g, want 0", got)
	}
}
