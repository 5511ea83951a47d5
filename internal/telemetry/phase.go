package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Phase identifies one of the four computational tasks of the real-time
// loop from the scalability model. Deserialization is folded into the task
// that consumes the payload (the paper's t_ua/t_fa terms include it), and
// state-update serialization into the AoI task, so the four phases
// partition the whole tick body.
type Phase int

const (
	// PhaseUserInput covers deserializing and applying the inputs of
	// locally-hosted users (t_ua_deser + t_ua).
	PhaseUserInput Phase = iota
	// PhaseForwardedInput covers deserializing and applying inputs
	// forwarded for shadow entities (t_fa_deser + t_fa).
	PhaseForwardedInput
	// PhaseNPCUpdate covers NPC behaviour updates (t_npc).
	PhaseNPCUpdate
	// PhaseAOISU covers area-of-interest resolution and state-update
	// serialization (t_aoi + t_su).
	PhaseAOISU

	// NumPhases is the number of phases; usable as an array length.
	NumPhases = int(PhaseAOISU) + 1
)

var phaseNames = [NumPhases]string{
	"user_input",
	"forwarded_input",
	"npc_update",
	"aoi_su",
}

// String returns the stable snake_case phase name used in metric labels.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// PhaseNames returns the phase names in phase order.
func PhaseNames() [NumPhases]string { return phaseNames }

// TaskProfiler aggregates per-tick phase timings into per-phase latency
// distributions, so the share and the tail of each of the four model tasks
// is visible separately. One RecordTick call per tick keeps the hot-path
// cost to a single mutex acquisition plus four histogram increments.
type TaskProfiler struct {
	mu    sync.Mutex
	hists [NumPhases]*LogHistogram
	items [NumPhases]uint64
	sumMS [NumPhases]float64
	ticks uint64
}

// NewTaskProfiler returns an empty profiler.
func NewTaskProfiler() *TaskProfiler {
	p := &TaskProfiler{}
	for i := range p.hists {
		p.hists[i] = NewLogHistogram()
	}
	return p
}

// RecordTick records one tick's per-phase durations (ms) and item counts
// (inputs applied, NPCs updated, updates serialized, ...).
func (p *TaskProfiler) RecordTick(durMS [NumPhases]float64, items [NumPhases]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < NumPhases; i++ {
		p.hists[i].Observe(durMS[i])
		p.sumMS[i] += durMS[i]
		if items[i] > 0 {
			p.items[i] += uint64(items[i])
		}
	}
	p.ticks++
}

// PhaseSnapshot summarizes one phase's distribution over the run.
type PhaseSnapshot struct {
	Phase  string
	MeanMS float64
	P50    float64
	P95    float64
	P99    float64
	MaxMS  float64
	Share  float64 // fraction of total profiled tick time spent in this phase
	Items  uint64
}

// Snapshot returns per-phase summaries in phase order plus the tick count.
func (p *TaskProfiler) Snapshot() ([NumPhases]PhaseSnapshot, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0.0
	for i := 0; i < NumPhases; i++ {
		total += p.sumMS[i]
	}
	var out [NumPhases]PhaseSnapshot
	for i := 0; i < NumPhases; i++ {
		h := p.hists[i]
		share := 0.0
		if total > 0 {
			share = p.sumMS[i] / total
		}
		out[i] = PhaseSnapshot{
			Phase:  phaseNames[i],
			MeanMS: h.Mean(),
			P50:    h.Quantile(0.50),
			P95:    h.Quantile(0.95),
			P99:    h.Quantile(0.99),
			MaxMS:  h.Max(),
			Share:  share,
			Items:  p.items[i],
		}
	}
	return out, p.ticks
}

// WriteMetrics writes the profiler state in the Prometheus text exposition
// format:
//
//	roia_phase_tick_ms{phase,stat="p50"|"p95"|"p99"|"max"|"mean"}  per-phase per-tick cost
//	roia_phase_share{phase}                                        fraction of tick time
//	roia_phase_items_total{phase}                                  items processed
//	roia_phase_ticks_total                                         ticks profiled
func (p *TaskProfiler) WriteMetrics(w io.Writer, labels string) error {
	snaps, ticks := p.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_phase_tick_ms gauge\n")
	for _, s := range snaps {
		for _, st := range []struct {
			name string
			v    float64
		}{
			{"p50", s.P50}, {"p95", s.P95}, {"p99", s.P99},
			{"max", s.MaxMS}, {"mean", s.MeanMS},
		} {
			fmt.Fprintf(&b, "roia_phase_tick_ms%s %g\n",
				FormatLabels(labels, fmt.Sprintf("phase=%q,stat=%q", s.Phase, st.name)), st.v)
		}
	}
	fmt.Fprintf(&b, "# TYPE roia_phase_share gauge\n")
	for _, s := range snaps {
		fmt.Fprintf(&b, "roia_phase_share%s %g\n",
			FormatLabels(labels, fmt.Sprintf("phase=%q", s.Phase)), s.Share)
	}
	fmt.Fprintf(&b, "# TYPE roia_phase_items_total counter\n")
	for _, s := range snaps {
		fmt.Fprintf(&b, "roia_phase_items_total%s %d\n",
			FormatLabels(labels, fmt.Sprintf("phase=%q", s.Phase)), s.Items)
	}
	fmt.Fprintf(&b, "# TYPE roia_phase_ticks_total counter\nroia_phase_ticks_total%s %d\n",
		FormatLabels(labels, ""), ticks)
	_, err := io.WriteString(w, b.String())
	return err
}
