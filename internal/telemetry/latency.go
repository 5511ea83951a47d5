package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Latency is a concurrent-safe latency recorder: a LogHistogram plus QoS
// deadline accounting. The deadline is the response-time contract of the
// scalability model — a tick (server side) or an input→update round trip
// (client side) must complete within 1/U — and every observation beyond it
// is counted exactly, not estimated from buckets.
type Latency struct {
	mu         sync.Mutex
	hist       *LogHistogram
	deadlineMS float64
	violations uint64
}

// NewLatency returns a recorder with the given QoS deadline in ms. A
// non-positive deadline disables violation accounting (observations are
// still recorded).
func NewLatency(deadlineMS float64) *Latency {
	return &Latency{hist: NewLogHistogram(), deadlineMS: deadlineMS}
}

// SetDeadline changes the QoS deadline (ms). Already-counted violations
// are kept: the counter is cumulative over the recorder's lifetime.
func (l *Latency) SetDeadline(ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deadlineMS = ms
}

// DeadlineMS reports the deadline in force.
func (l *Latency) DeadlineMS() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deadlineMS
}

// Observe records one latency in milliseconds.
func (l *Latency) Observe(ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hist.Observe(ms)
	if l.deadlineMS > 0 && ms > l.deadlineMS {
		l.violations++
	}
}

// LatencySnapshot is a point-in-time summary of a Latency recorder.
type LatencySnapshot struct {
	Count               uint64
	MeanMS              float64
	P50, P95, P99, P999 float64
	MaxMS               float64
	DeadlineMS          float64
	Violations          uint64
}

// ViolationRate reports the fraction of observations past the deadline.
func (s LatencySnapshot) ViolationRate() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Violations) / float64(s.Count)
}

// Snapshot returns the current summary.
func (l *Latency) Snapshot() LatencySnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LatencySnapshot{
		Count:      l.hist.Count(),
		MeanMS:     l.hist.Mean(),
		P50:        l.hist.Quantile(0.50),
		P95:        l.hist.Quantile(0.95),
		P99:        l.hist.Quantile(0.99),
		P999:       l.hist.Quantile(0.999),
		MaxMS:      l.hist.Max(),
		DeadlineMS: l.deadlineMS,
		Violations: l.violations,
	}
}

// Merge folds another recorder's observations (and violations) into l.
// The per-replica recorders of a fleet merge into one fleet-wide
// distribution this way; each side keeps its own deadline.
func (l *Latency) Merge(o *Latency) {
	if o == nil || o == l {
		return
	}
	o.mu.Lock()
	hist := o.hist.Clone()
	violations := o.violations
	o.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hist.Merge(hist)
	l.violations += violations
}

// WriteMetrics writes the recorder's state as one Prometheus family group
// under the given name:
//
//	<name>_ms{stat="p50"|"p95"|"p99"|"p999"|"max"|"mean"}  quantile gauges
//	<name>_count                                           observations
//	<name>_deadline_ms                                     QoS deadline
//	<name>_deadline_violations_total                       observations past it
func (l *Latency) WriteMetrics(w io.Writer, name, labels string) error {
	s := l.Snapshot()
	lbl := FormatLabels(labels, "")
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE %s_ms gauge\n", name)
	for _, st := range []struct {
		name string
		v    float64
	}{
		{"p50", s.P50}, {"p95", s.P95}, {"p99", s.P99}, {"p999", s.P999},
		{"max", s.MaxMS}, {"mean", s.MeanMS},
	} {
		fmt.Fprintf(&b, "%s_ms%s %g\n", name, FormatLabels(labels, fmt.Sprintf("stat=%q", st.name)), st.v)
	}
	fmt.Fprintf(&b, "# TYPE %s_count counter\n%s_count%s %d\n", name, name, lbl, s.Count)
	fmt.Fprintf(&b, "# TYPE %s_deadline_ms gauge\n%s_deadline_ms%s %g\n", name, name, lbl, s.DeadlineMS)
	fmt.Fprintf(&b, "# TYPE %s_deadline_violations_total counter\n%s_deadline_violations_total%s %d\n", name, name, lbl, s.Violations)
	_, err := io.WriteString(w, b.String())
	return err
}
