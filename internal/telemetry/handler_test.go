package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func tracerWith(n int) *Tracer {
	tr := NewTracer(n + 8)
	for i := 1; i <= n; i++ {
		tr.Record(sampleTrace(uint64(i)))
	}
	return tr
}

func TestTraceHandlerChrome(t *testing.T) {
	srv := httptest.NewServer(TraceHandler(tracerWith(150)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?n=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 100 ticks × (1 tick event + 3 spans).
	if len(decoded.TraceEvents) != 400 {
		t.Fatalf("got %d events, want 400", len(decoded.TraceEvents))
	}
}

func TestTraceHandlerJSONL(t *testing.T) {
	srv := httptest.NewServer(TraceHandler(tracerWith(5)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?n=3&format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var rec TickRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Tick != 3 { // last 3 of 5: ticks 3,4,5
		t.Fatalf("first exported tick = %d, want 3", rec.Tick)
	}
}

// TestTraceAndFlightRecShareRecordSchema feeds one TickRecord stream to a
// Tracer and a FlightRecorder and checks that /debug/ticktrace?format=jsonl
// and /debug/flightrec print the same line for the same tick: both exports
// are views of the one per-tick record.
func TestTraceAndFlightRecShareRecordSchema(t *testing.T) {
	tr := NewTracer(8)
	fr := NewFlightRecorder(FlightRecConfig{Pre: 2, Post: -1})
	for i := uint64(1); i <= 3; i++ {
		rec := sampleTrace(i)
		rec.CPUMS, rec.QueueDepth, rec.BytesOut, rec.AllocObjects = 0.9, 4, 512, 7
		if i == 3 {
			rec.DeadlineMS, rec.SlackMS = 1, -0.2 // WallMS 1.2 misses it
		}
		tr.Record(rec)
		fr.Record(rec)
	}
	get := func(h http.Handler, query string) []string {
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := srv.Client().Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(string(body)), "\n")
	}
	trace := get(TraceHandler(tr), "?format=jsonl&n=0")
	flight := get(FlightRecHandler(fr), "")
	// The capture is one header line plus the pre window and the trigger.
	if len(trace) != 3 || len(flight) != 4 {
		t.Fatalf("got %d trace lines and %d flightrec lines, want 3 and 4", len(trace), len(flight))
	}
	for i, line := range trace {
		if line != flight[i+1] {
			t.Fatalf("tick %d differs between exports:\nticktrace %s\nflightrec %s", i+1, line, flight[i+1])
		}
	}
}

func TestTraceHandlerBadParams(t *testing.T) {
	srv := httptest.NewServer(TraceHandler(tracerWith(1)))
	defer srv.Close()
	for _, q := range []string{"?n=-1", "?n=abc", "?format=xml"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestFlightRecHandlerBadParams(t *testing.T) {
	srv := httptest.NewServer(FlightRecHandler(NewFlightRecorder(FlightRecConfig{})))
	defer srv.Close()
	for _, q := range []string{"?n=-1", "?n=abc", "?n=1.5"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
	// Absent and zero n still serve.
	for _, q := range []string{"", "?n=0", "?n=2"} {
		resp, err := srv.Client().Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d, want 200", q, resp.StatusCode)
		}
	}
}

func TestQueryIntParam(t *testing.T) {
	parse := func(raw string) url.Values {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if n, err := QueryIntParam(parse(""), "n", 7); err != nil || n != 7 {
		t.Errorf("absent = %d,%v, want default 7", n, err)
	}
	if n, err := QueryIntParam(parse("n=42"), "n", 7); err != nil || n != 42 {
		t.Errorf("present = %d,%v", n, err)
	}
	for _, raw := range []string{"n=-1", "n=abc", "n=1.5", "n="} {
		if _, err := QueryIntParam(parse(raw), "n", 0); err == nil {
			t.Errorf("%s: accepted, want error", raw)
		}
	}
}

func TestQueryFloatParam(t *testing.T) {
	parse := func(raw string) url.Values {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if f, err := QueryFloatParam(parse(""), "since", 300); err != nil || f != 300 {
		t.Errorf("absent = %g,%v, want default 300", f, err)
	}
	if f, err := QueryFloatParam(parse("since=0.5"), "since", 300); err != nil || f != 0.5 {
		t.Errorf("present = %g,%v", f, err)
	}
	for _, raw := range []string{"since=-1", "since=abc", "since=NaN", "since=Inf", "since="} {
		if _, err := QueryFloatParam(parse(raw), "since", 0); err == nil {
			t.Errorf("%s: accepted, want error", raw)
		}
	}
}

func TestReadyHandler(t *testing.T) {
	ready := false
	srv := httptest.NewServer(ReadyHandler(func() bool { return ready }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 || !strings.Contains(string(body), "not ready") {
		t.Fatalf("unready: status %d body %q, want 503 not ready", resp.StatusCode, body)
	}
	ready = true
	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("ready: status %d body %q, want 200 ok", resp.StatusCode, body)
	}
}

func TestMetricsHandlerComposes(t *testing.T) {
	var d Drift
	d.Observe(5, 4)
	srv := httptest.NewServer(MetricsHandler(`zone="1"`, d.WriteMetrics, WriteRuntimeMetrics))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		`roia_model_predicted_tick_ms{zone="1"} 5`,
		`roia_go_goroutines{zone="1"} `,
		"# TYPE roia_go_gc_runs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("composed metrics missing %q:\n%s", want, out)
		}
	}
}

func TestWriteRuntimeMetricsNoLabels(t *testing.T) {
	var sb strings.Builder
	if err := WriteRuntimeMetrics(&sb, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "roia_go_heap_alloc_bytes ") {
		t.Fatalf("unlabeled runtime metrics missing:\n%s", sb.String())
	}
}
