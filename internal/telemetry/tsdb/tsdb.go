// Package tsdb is an embedded, bounded, in-memory time-series store for
// the fleet's observability surface. Every scrape the collector takes is a
// point-in-time snapshot; QoS — sustaining the update rate U — is a
// property over *time*, so judging it needs retained history: burn rates
// over minutes, tail quantiles over a session, capacity headroom trends.
// The store keeps that history without any external dependency: a
// fixed-capacity ring of samples per {family, label set}, drop-oldest with
// dropped counters, and an injected clock so simulations and tests stay
// deterministic (the repo-wide tickclock invariant).
package tsdb

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"roia/internal/telemetry"
)

// Kind is a sample family's semantic: gauges are instantaneous values,
// counters are cumulative monotone values whose information is in their
// deltas (queries report reset-aware rates and increases, never the raw
// running total).
type Kind uint8

// The sample kinds.
const (
	Gauge Kind = iota
	Counter
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Gauge:
		return "gauge"
	case Counter:
		return "counter"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Sample is one timestamped observation. T is in seconds on the store's
// clock (Unix seconds under the default clock, session seconds under an
// injected one).
type Sample struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Series is a fixed-capacity ring of samples for one {family, label set}.
// Appends past the capacity overwrite the oldest sample and count it as
// dropped — retention is bounded by design, the same discipline as every
// other long-lived telemetry buffer in the repo.
type Series struct {
	family  string
	labels  map[string]string
	kind    Kind
	buf     []Sample
	next    int
	cap     int
	dropped uint64
}

// append adds one sample, overwriting the oldest when the ring is full.
func (s *Series) append(smp Sample) {
	if len(s.buf) < s.cap {
		s.buf = append(s.buf, smp)
		return
	}
	s.buf[s.next] = smp
	s.next = (s.next + 1) % s.cap
	s.dropped++
}

// samples returns the retained samples in chronological order.
func (s *Series) samples() []Sample {
	out := make([]Sample, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// SeriesData is one series' query result: identity plus the retained
// samples in the requested range, chronological.
type SeriesData struct {
	Family  string            `json:"family"`
	Labels  map[string]string `json:"labels,omitempty"`
	Kind    Kind              `json:"-"`
	Samples []Sample          `json:"-"`
}

// Config parameterises a Store. The zero value selects every default.
type Config struct {
	// SeriesCapacity is the per-series ring size (default 720 samples: 12
	// minutes of 1 Hz scrapes, or 12 hours at one per minute).
	SeriesCapacity int
	// MaxSeries bounds the number of distinct {family, label set} series;
	// appends to new series beyond it are dropped and counted (default
	// 4096). Label cardinality explosions degrade to a counter, not OOM.
	MaxSeries int
	// Now is the store's clock, used to stamp Append samples and to resolve
	// relative query windows (default time.Now). Inject a fake clock for
	// deterministic fixtures.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.SeriesCapacity <= 0 {
		c.SeriesCapacity = 720
	}
	if c.MaxSeries <= 0 {
		c.MaxSeries = 4096
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Store holds bounded time series keyed by {family, label set}. It is safe
// for concurrent use: the collector appends while HTTP query handlers and
// the SLO engine read.
type Store struct {
	mu            sync.Mutex
	cfg           Config
	series        map[string]*Series
	droppedSeries uint64
	appends       uint64
}

// NewStore returns an empty store (zero cfg fields take the defaults).
func NewStore(cfg Config) *Store {
	cfg = cfg.withDefaults()
	return &Store{cfg: cfg, series: make(map[string]*Series)}
}

// NowSec reports the store clock's current time in seconds.
func (st *Store) NowSec() float64 {
	st.mu.Lock()
	now := st.cfg.Now
	st.mu.Unlock()
	t := now()
	return float64(t.UnixNano()) / 1e9
}

// seriesKey renders the canonical identity of a series: the family plus
// the label pairs sorted by key.
func seriesKey(family string, labels map[string]string) string {
	if len(labels) == 0 {
		return family
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(family)
	for _, k := range keys {
		b.WriteByte('\x00')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// Append records one sample stamped with the store clock.
func (st *Store) Append(family string, labels map[string]string, kind Kind, v float64) {
	st.AppendAt(st.NowSec(), family, labels, kind, v)
}

// AppendAt records one sample with an explicit timestamp (seconds on the
// store's time base) — the fixture and replay path.
func (st *Store) AppendAt(t float64, family string, labels map[string]string, kind Kind, v float64) {
	key := seriesKey(family, labels)
	st.mu.Lock()
	defer st.mu.Unlock()
	sr := st.series[key]
	if sr == nil {
		if len(st.series) >= st.cfg.MaxSeries {
			st.droppedSeries++
			return
		}
		lbl := make(map[string]string, len(labels))
		for k, v := range labels {
			lbl[k] = v
		}
		sr = &Series{family: family, labels: lbl, kind: kind, cap: st.cfg.SeriesCapacity}
		st.series[key] = sr
	}
	sr.append(Sample{T: t, V: v})
	st.appends++
}

// Query returns every series of the given family whose labels include all
// match pairs, with the samples falling in [since, until] (chronological).
// until <= 0 means "no upper bound". Series with no samples in range are
// omitted; results are ordered by canonical series key, so a query is
// deterministic for a given store state.
func (st *Store) Query(family string, match map[string]string, since, until float64) []SeriesData {
	st.mu.Lock()
	defer st.mu.Unlock()
	type keyed struct {
		key string
		sd  SeriesData
	}
	var out []keyed
	for key, sr := range st.series {
		if sr.family != family || !labelsMatch(sr.labels, match) {
			continue
		}
		all := sr.samples()
		lo := sort.Search(len(all), func(i int) bool { return all[i].T >= since })
		hi := len(all)
		if until > 0 {
			hi = sort.Search(len(all), func(i int) bool { return all[i].T > until })
		}
		if lo >= hi {
			continue
		}
		lbl := make(map[string]string, len(sr.labels))
		for k, v := range sr.labels {
			lbl[k] = v
		}
		out = append(out, keyed{key: key, sd: SeriesData{
			Family:  sr.family,
			Labels:  lbl,
			Kind:    sr.kind,
			Samples: append([]Sample(nil), all[lo:hi]...),
		}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	res := make([]SeriesData, len(out))
	for i, k := range out {
		res[i] = k.sd
	}
	return res
}

// SeriesCount reports the number of retained series.
func (st *Store) SeriesCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.series)
}

// DroppedSamples reports how many samples ring eviction discarded.
func (st *Store) DroppedSamples() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n uint64
	for _, sr := range st.series {
		n += sr.dropped
	}
	return n
}

// DroppedSeries reports how many appends were refused at the series cap.
func (st *Store) DroppedSeries() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.droppedSeries
}

// Appends reports how many samples were ever accepted.
func (st *Store) Appends() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.appends
}

// labelsMatch reports whether have includes every want pair.
func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// WriteMetrics exports the store's own health in the Prometheus text
// exposition format (observability of the observability substrate), so a
// cardinality explosion or eviction churn is itself visible on the scrape.
//
// Exported families:
//
//	roia_tsdb_series                  gauge, retained series
//	roia_tsdb_samples_total           counter, samples ever accepted
//	roia_tsdb_dropped_samples_total   counter, samples evicted by the rings
//	roia_tsdb_dropped_series_total    counter, appends refused at MaxSeries
func (st *Store) WriteMetrics(w io.Writer, labels string) error {
	st.mu.Lock()
	series := len(st.series)
	appends := st.appends
	droppedSeries := st.droppedSeries
	var droppedSamples uint64
	for _, sr := range st.series {
		droppedSamples += sr.dropped
	}
	st.mu.Unlock()
	lbl := telemetry.FormatLabels(labels, "")
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_tsdb_series gauge\nroia_tsdb_series%s %d\n", lbl, series)
	fmt.Fprintf(&b, "# TYPE roia_tsdb_samples_total counter\nroia_tsdb_samples_total%s %d\n", lbl, appends)
	fmt.Fprintf(&b, "# TYPE roia_tsdb_dropped_samples_total counter\nroia_tsdb_dropped_samples_total%s %d\n", lbl, droppedSamples)
	fmt.Fprintf(&b, "# TYPE roia_tsdb_dropped_series_total counter\nroia_tsdb_dropped_series_total%s %d\n", lbl, droppedSeries)
	_, err := io.WriteString(w, b.String())
	return err
}
