// Package monitor implements RTF's monitoring and distribution-handling
// hooks: per-tick timing of the four computational tasks of the real-time
// loop, plus migration overheads. These are exactly the quantities the
// scalability model is parameterized with (t_ua_dser, t_ua, t_fa_dser,
// t_fa, t_npc, t_aoi, t_su, t_mig_ini, t_mig_rcv), measured inside the
// middleware regardless of the application logic (Section III-C).
//
// The calibration pipeline (internal/calibrate) consumes Samples recorded
// here and fits the model's approximation functions to them.
package monitor

import (
	"sync"

	"roia/internal/stats"
	"roia/internal/telemetry"
)

// Task identifies one timed portion of the real-time loop.
type Task int

// The timed tasks, in loop order.
const (
	// UADeser is reception + deserialization of connected users' inputs.
	UADeser Task = iota
	// UA is validation + application of user inputs.
	UA
	// FADeser is reception + deserialization of forwarded inputs.
	FADeser
	// FA is application of forwarded inputs.
	FA
	// NPC is the NPC update.
	NPC
	// AOI is area-of-interest computation.
	AOI
	// SU is state-update computation + serialization.
	SU
	// MigIni is initiation of user migrations.
	MigIni
	// MigRcv is reception of user migrations.
	MigRcv
	numTasks
)

// String implements fmt.Stringer with the paper's parameter names.
func (t Task) String() string {
	names := [...]string{"t_ua_dser", "t_ua", "t_fa_dser", "t_fa", "t_npc", "t_aoi", "t_su", "t_mig_ini", "t_mig_rcv"}
	if int(t) < len(names) {
		return names[t]
	}
	return "t_unknown"
}

// Tasks returns every task in loop order, for iteration.
func Tasks() []Task {
	out := make([]Task, numTasks)
	for i := range out {
		out[i] = Task(i)
	}
	return out
}

// Breakdown is the timing of one tick, in milliseconds per task, together
// with the per-task item counts needed to derive per-item costs.
//
// With the parallel tick pipeline the two time axes diverge: TimeMS sums
// CPU time across all workers (what the paper's per-item curves are fitted
// from — per-item cost does not shrink when work runs on more cores),
// while WallMS is the elapsed time of the whole tick (what the QoS
// deadline 1/U is compared against — wall time does shrink with workers).
// With one worker the axes coincide up to untimed loop overhead.
type Breakdown struct {
	// TimeMS[t] is the total CPU time spent in task t this tick, summed
	// over every worker that executed part of the task.
	TimeMS [numTasks]float64
	// WallMS is the tick's elapsed wall-clock duration. Zero means
	// "unmeasured" and wall-facing statistics fall back to Total(), the
	// CPU sum — the pre-pipeline behaviour, which simulations that
	// synthesize Breakdowns still rely on.
	WallMS float64
	// Items[t] is how many items task t processed (inputs deserialized,
	// users updated, NPCs stepped, migrations handled, ...).
	Items [numTasks]int
	// Users is the zone-wide user count n during the tick.
	Users int
	// ActiveUsers is the number of users active on this server (a).
	ActiveUsers int
	// NPCs is the zone-wide NPC count m.
	NPCs int
	// Replicas is the zone's replica count l.
	Replicas int
	// BytesIn / BytesOut count the wire payload bytes received and sent
	// this tick. The paper names bandwidth analysis as future work and
	// cites the in/out asymmetry of game traffic (Kim et al.); these
	// counters feed the traffic model in internal/traffic.
	BytesIn, BytesOut int
}

// Add accumulates time and item count for a task.
func (b *Breakdown) Add(t Task, ms float64, items int) {
	b.TimeMS[t] += ms
	b.Items[t] += items
}

// Total returns the tick's CPU time: the sum over all tasks (and, under
// the parallel executor, over all workers).
func (b *Breakdown) Total() float64 {
	sum := 0.0
	for _, v := range b.TimeMS {
		sum += v
	}
	return sum
}

// Wall returns the tick duration as the deadline sees it: the measured
// wall-clock duration when available, else the CPU sum.
func (b *Breakdown) Wall() float64 {
	if b.WallMS > 0 {
		return b.WallMS
	}
	return b.Total()
}

// Merge folds another breakdown's task accounting into b — the
// deterministic reduction the executor applies to per-worker breakdowns
// after a parallel stage. Wall time and workload gauges are not merged:
// they describe the whole tick, not one worker's share.
func (b *Breakdown) Merge(other *Breakdown) {
	for t := Task(0); t < numTasks; t++ {
		b.TimeMS[t] += other.TimeMS[t]
		b.Items[t] += other.Items[t]
	}
}

// PerItem returns the average per-item time of a task in this tick and
// whether any items were processed.
func (b *Breakdown) PerItem(t Task) (float64, bool) {
	if b.Items[t] == 0 {
		return 0, false
	}
	return b.TimeMS[t] / float64(b.Items[t]), true
}

// Sample is one calibration data point: the per-item cost of a task
// observed at a given workload.
type Sample struct {
	Task Task
	// X is the workload coordinate the model's curves are functions of
	// (the zone-wide user count n).
	X float64
	// Y is the measured per-item CPU time in ms.
	Y float64
}

// Monitor aggregates tick breakdowns for one server. It keeps a bounded
// recent history (for threshold decisions by the resource manager), a
// cumulative tick-duration histogram (for tail analysis via /metrics), and
// a calibration sample log (enabled on demand, capped at SampleLimit).
// Monitor is safe for concurrent use: the real-time loop records while the
// resource manager reads.
type Monitor struct {
	mu sync.Mutex

	// tickTotals tracks wall-facing tick durations (Breakdown.Wall);
	// tickCPU tracks the CPU sums (Breakdown.Total). They coincide for
	// sequential ticks and for synthesized breakdowns without WallMS.
	tickTotals *stats.Reservoir
	tickCPU    *stats.Reservoir
	perTask    [numTasks]*stats.Reservoir
	tickHist   *telemetry.Histogram
	// tail tracks windowed wall-duration quantiles (p50…p99.9) over the
	// recent past — the QoS deadline is a tail constraint, and a cumulative
	// histogram buries a ten-minute incident under hours of healthy ticks.
	tail *telemetry.TailTracker

	collect bool
	samples []Sample
	// traffic holds (users, bytesIn, bytesOut) per tick while collecting.
	traffic []TrafficSample
	// sampleLimit caps samples and traffic; excess observations are counted
	// in dropped instead of growing memory without bound.
	sampleLimit int
	dropped     uint64

	ticks     uint64
	lastUsers int
	lastBreak Breakdown

	// deadlineMS is the QoS contract 1/U in milliseconds; ticks whose
	// total exceeds it are counted in violations. Zero disables.
	deadlineMS float64
	violations uint64
}

// TrafficSample is one tick's bandwidth observation.
type TrafficSample struct {
	// Users is the zone-wide user count during the tick.
	Users int
	// BytesIn / BytesOut are the tick's wire payload bytes.
	BytesIn, BytesOut int
}

// HistorySize is the bounded per-server tick history.
const HistorySize = 512

// DefaultSampleLimit caps the calibration sample log (and, separately, the
// traffic log) while collection is on. Generous: at 25 Hz with all nine
// tasks active, ~75 minutes of collection — but a long-lived server with
// collection left on can no longer grow memory without bound.
const DefaultSampleLimit = 1 << 20

// New returns a Monitor with bounded history.
func New() *Monitor {
	m := &Monitor{
		tickTotals:  stats.NewReservoir(HistorySize),
		tickCPU:     stats.NewReservoir(HistorySize),
		tickHist:    telemetry.NewHistogram(telemetry.DefTickBuckets()...),
		tail:        telemetry.NewTailTracker(0),
		sampleLimit: DefaultSampleLimit,
	}
	for i := range m.perTask {
		m.perTask[i] = stats.NewReservoir(HistorySize)
	}
	return m
}

// SetCollecting toggles calibration sample collection (off by default: the
// sample log grows up to the configured SampleLimit while enabled).
func (m *Monitor) SetCollecting(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.collect = on
}

// SetSampleLimit caps the calibration sample and traffic logs at limit
// entries each; observations beyond the cap are counted by DroppedSamples
// instead of stored. A non-positive limit restores DefaultSampleLimit.
func (m *Monitor) SetSampleLimit(limit int) {
	if limit <= 0 {
		limit = DefaultSampleLimit
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampleLimit = limit
}

// DroppedSamples reports how many calibration observations were discarded
// because a sample log was at its limit.
func (m *Monitor) DroppedSamples() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// SetDeadline sets the tick QoS deadline in milliseconds — the model's
// 1/U, the response-time budget every tick must fit in. Ticks recorded
// with a larger total are counted by DeadlineViolations. A non-positive
// deadline disables the accounting.
func (m *Monitor) SetDeadline(ms float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deadlineMS = ms
}

// DeadlineMS reports the tick QoS deadline in force (0 when disabled).
func (m *Monitor) DeadlineMS() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.deadlineMS
}

// DeadlineViolations reports how many recorded ticks exceeded the
// deadline. The counter is cumulative until Reset.
func (m *Monitor) DeadlineViolations() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.violations
}

// RecordTick ingests one tick's breakdown.
func (m *Monitor) RecordTick(b Breakdown) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ticks++
	m.lastUsers = b.Users
	m.lastBreak = b
	// The deadline, histogram, and recent-tick stats are wall-facing:
	// they must reflect what a parallel tick actually took, not the CPU
	// it burned across workers. Per-item curves below stay CPU-facing.
	wall := b.Wall()
	m.tickTotals.Add(wall)
	m.tickCPU.Add(b.Total())
	m.tickHist.Observe(wall)
	m.tail.Observe(wall)
	if m.deadlineMS > 0 && wall > m.deadlineMS {
		m.violations++
	}
	for t := Task(0); t < numTasks; t++ {
		if per, ok := b.PerItem(t); ok {
			m.perTask[t].Add(per)
			if m.collect {
				if len(m.samples) < m.sampleLimit {
					m.samples = append(m.samples, Sample{Task: t, X: float64(b.Users), Y: per})
				} else {
					m.dropped++
				}
			}
		}
	}
	if m.collect && (b.BytesIn > 0 || b.BytesOut > 0) {
		if len(m.traffic) < m.sampleLimit {
			m.traffic = append(m.traffic, TrafficSample{Users: b.Users, BytesIn: b.BytesIn, BytesOut: b.BytesOut})
		} else {
			m.dropped++
		}
	}
}

// TrafficSamples returns a copy of the per-tick bandwidth log (collected
// while SetCollecting is on).
func (m *Monitor) TrafficSamples() []TrafficSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TrafficSample(nil), m.traffic...)
}

// Ticks reports how many ticks have been recorded.
func (m *Monitor) Ticks() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ticks
}

// LastBreakdown returns the most recent tick breakdown.
func (m *Monitor) LastBreakdown() Breakdown {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastBreak
}

// TickSummary summarizes recent tick durations (ms).
func (m *Monitor) TickSummary() stats.Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tickTotals.Summary()
}

// MeanTick returns the mean recent tick wall duration (ms), the runtime
// signal RTF-RMS compares against the provider's thresholds.
func (m *Monitor) MeanTick() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tickTotals.Mean()
}

// MeanTickCPU returns the mean recent tick CPU sum (ms). The ratio
// MeanTickCPU/MeanTick is the tick's effective speedup — the live
// counterpart of the model's USL term S(w).
func (m *Monitor) MeanTickCPU() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tickCPU.Mean()
}

// TaskSummary summarizes the recent per-item cost of one task.
func (m *Monitor) TaskSummary(t Task) stats.Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perTask[t].Summary()
}

// Samples returns a copy of the calibration sample log.
func (m *Monitor) Samples() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// SamplesFor returns a copy of the calibration samples of one task.
func (m *Monitor) SamplesFor(t Task) []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Sample
	for _, s := range m.samples {
		if s.Task == t {
			out = append(out, s)
		}
	}
	return out
}

// Reset clears all history and samples.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ticks = 0
	m.samples = nil
	m.traffic = nil
	m.dropped = 0
	m.violations = 0
	m.tickTotals = stats.NewReservoir(HistorySize)
	m.tickCPU = stats.NewReservoir(HistorySize)
	m.tickHist = telemetry.NewHistogram(telemetry.DefTickBuckets()...)
	m.tail = telemetry.NewTailTracker(0)
	for i := range m.perTask {
		m.perTask[i] = stats.NewReservoir(HistorySize)
	}
}

// TickHistogram returns a snapshot of the cumulative tick-duration
// histogram (ms).
func (m *Monitor) TickHistogram() *telemetry.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tickHist.Clone()
}

// TailQuantiles snapshots the windowed tick wall-duration quantiles
// (p50/p90/p99/p99.9 over the last ~1–2k ticks) — the tail the QoS
// deadline 1/U is actually governed by.
func (m *Monitor) TailQuantiles() telemetry.TailQuantiles {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tail.Quantiles()
}

// TailHistogram returns an independent log-bucketed histogram of the
// windowed tick wall durations. Histograms from different replicas share
// the same bucket layout, so the fleet collector merges them into
// zone-level tail quantiles.
func (m *Monitor) TailHistogram() *telemetry.LogHistogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tail.Histogram()
}
