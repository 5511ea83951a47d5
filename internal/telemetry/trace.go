package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Span is one timed section of a tick (one of the paper's t_* tasks, or an
// application-defined section). StartMS is the offset from the start of the
// tick, so spans compose into a flame chart without absolute clocks.
type Span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	// Items is the task's per-tick item count (inputs deserialized, users
	// updated, ...), carried into the trace viewer's args pane.
	Items int `json:"items,omitempty"`
}

// DefaultTraceCapacity is the tracer ring size used when a non-positive
// capacity is requested: ~82 s of history at 25 Hz.
const DefaultTraceCapacity = 2048

// Tracer keeps the most recent tick records in a bounded ring buffer. It
// is safe for concurrent use: the real-time loop records while HTTP
// handlers read. Recording is cheap — one lock, one slice store — so it can
// stay enabled in production.
type Tracer struct {
	mu    sync.Mutex
	buf   []TickRecord
	next  int
	full  bool
	total uint64
}

// NewTracer returns a tracer keeping the last capacity ticks
// (DefaultTraceCapacity if capacity is not positive).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]TickRecord, 0, capacity)}
}

// Record stores one tick record, evicting the oldest when full. The tracer
// shares rec.Tasks and never writes through it, so the same record may be
// handed to a FlightRecorder too.
func (tr *Tracer) Record(t TickRecord) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.total++
	if len(tr.buf) < cap(tr.buf) {
		tr.buf = append(tr.buf, t)
		return
	}
	tr.full = true
	tr.buf[tr.next] = t
	tr.next = (tr.next + 1) % cap(tr.buf)
}

// Len reports the number of buffered records.
func (tr *Tracer) Len() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.buf)
}

// Total reports how many records were ever recorded (including evicted ones).
func (tr *Tracer) Total() uint64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// Last returns up to n of the most recent records in chronological order
// (all of them when n is not positive or exceeds the buffer).
func (tr *Tracer) Last(n int) []TickRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ordered := make([]TickRecord, 0, len(tr.buf))
	if tr.full {
		ordered = append(ordered, tr.buf[tr.next:]...)
		ordered = append(ordered, tr.buf[:tr.next]...)
	} else {
		ordered = append(ordered, tr.buf...)
	}
	if n > 0 && n < len(ordered) {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}

// traceEvent is one Chrome trace_event entry (the "X" complete-event form).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format of the trace_event specification,
// loadable in Perfetto and chrome://tracing.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders tick records as Chrome trace_event JSON. Each
// tick becomes one enclosing "tick" event on tid 0 (its args carry the sum
// of the task durations) plus one event per task on tid 1, positioned on
// the tick's wall-clock timebase so consecutive ticks lay out as a
// timeline.
func WriteChromeTrace(w io.Writer, recs []TickRecord) error {
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(recs)*4)}
	for _, t := range recs {
		base := float64(t.StartUnixMicro)
		tasksMS := 0.0
		for _, s := range t.Tasks {
			tasksMS += s.DurMS
		}
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name: "tick", Ph: "X", TS: base, Dur: t.WallMS * 1000, PID: 1, TID: 0,
			Args: map[string]any{"tick": t.Tick, "tasks_ms": tasksMS},
		})
		for _, s := range t.Tasks {
			ev := traceEvent{
				Name: s.Name, Ph: "X",
				TS: base + s.StartMS*1000, Dur: s.DurMS * 1000,
				PID: 1, TID: 1,
			}
			if s.Items > 0 {
				ev.Args = map[string]any{"items": s.Items}
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteTraceJSONL renders tick records as JSONL: one TickRecord object per
// line (the schema of WriteFlightJSONL's record lines), the grep/jq-friendly
// export.
func WriteTraceJSONL(w io.Writer, recs []TickRecord) error {
	enc := json.NewEncoder(w)
	for _, t := range recs {
		if err := enc.Encode(t); err != nil {
			return fmt.Errorf("telemetry: encode tick %d: %w", t.Tick, err)
		}
	}
	return nil
}
