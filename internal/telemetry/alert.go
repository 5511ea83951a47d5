package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// AlertState is the lifecycle position of one alert instance. Conditions
// move inactive → pending on their first true evaluation, pending → firing
// after holding for the rule's PendingFor further evaluations, and firing →
// resolved (back to inactive) when the condition clears — the Prometheus
// alerting lifecycle, applied to the scalability model's thresholds.
type AlertState int

// The alert states.
const (
	AlertInactive AlertState = iota
	AlertPending
	AlertFiring
)

// String implements fmt.Stringer.
func (s AlertState) String() string {
	switch s {
	case AlertInactive:
		return "inactive"
	case AlertPending:
		return "pending"
	case AlertFiring:
		return "firing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// RuleResult is one active instance of a rule at evaluation time: the
// measured value, the threshold in force, and the instance key (e.g. the
// replica ID for per-replica rules; empty for fleet-wide rules). Rules
// return only active instances — an instance that stops appearing resolves.
type RuleResult struct {
	Key       string
	Value     float64
	Threshold float64
	Detail    string
}

// Rule is one threshold condition evaluated against live state.
type Rule struct {
	// Name identifies the rule in events and metrics.
	Name string
	// PendingFor is how many consecutive evaluations beyond the first the
	// condition must hold before the instance fires (default 1: first true
	// evaluation → pending, still true next evaluation → firing).
	PendingFor int
	// Eval returns the rule's currently active instances.
	Eval func(now float64) []RuleResult
}

// AlertEvent is one state transition of an alert instance, emitted as JSONL
// in the same style as the RMS decision audit. Value and Threshold record
// the measurement and the model threshold in force at the transition (for
// resolved events: at the last active evaluation).
type AlertEvent struct {
	// Time is the evaluation timestamp (session seconds, the control-loop
	// clock the RMS audit uses).
	Time float64 `json:"time"`
	// Rule and Key identify the alert instance.
	Rule string `json:"rule"`
	Key  string `json:"key,omitempty"`
	// State is the state entered: "pending", "firing" or "resolved".
	State     string  `json:"state"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Detail    string  `json:"detail,omitempty"`
}

// AlertSink consumes alert transitions. Implementations: AlertLog (JSONL)
// and MemoryAlerts (tests).
type AlertSink interface {
	Alert(AlertEvent)
}

// AlertLog streams alert transitions as JSONL to a writer. It is safe for
// concurrent use; encoding errors are sticky and reported by Err.
type AlertLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
	err error
}

// NewAlertLog returns an alert log writing one JSON event per line to w.
func NewAlertLog(w io.Writer) *AlertLog {
	return &AlertLog{enc: json.NewEncoder(w)}
}

// Alert implements AlertSink.
func (l *AlertLog) Alert(e AlertEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(e); err != nil {
		l.err = err
		return
	}
	l.n++
}

// Events reports how many events were written.
func (l *AlertLog) Events() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Err returns the first encoding error, if any.
func (l *AlertLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// memorySinkCap bounds every in-memory telemetry sink: a long-horizon run
// must not leak through its own observability buffers, so the sinks keep
// the newest entries and count what they evict.
const memorySinkCap = 4096

// MemoryAlerts collects alert transitions in memory, keeping the newest
// memorySinkCap events.
type MemoryAlerts struct {
	mu      sync.Mutex
	events  []AlertEvent
	dropped uint64
}

// Alert implements AlertSink.
func (s *MemoryAlerts) Alert(e AlertEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.events) >= memorySinkCap {
		copy(s.events, s.events[1:])
		s.events[len(s.events)-1] = e
		s.dropped++
		return
	}
	s.events = append(s.events, e)
}

// Snapshot returns a copy of the collected events.
func (s *MemoryAlerts) Snapshot() []AlertEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AlertEvent(nil), s.events...)
}

// Dropped reports how many old events the cap evicted.
func (s *MemoryAlerts) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// ActiveAlert is a point-in-time view of one pending or firing instance.
type ActiveAlert struct {
	Rule      string
	Key       string
	State     AlertState
	Value     float64
	Threshold float64
	Detail    string
	// Since is the evaluation time at which the instance became pending.
	Since float64
}

// alertInstance is the tracked state of one (rule, key) pair.
type alertInstance struct {
	state     AlertState
	trueEvals int
	since     float64
	last      RuleResult
}

// AlertEngine evaluates rules against live state and drives the alert state
// machine, emitting one AlertEvent per transition. It is safe for
// concurrent use: the control loop evaluates while HTTP handlers read.
type AlertEngine struct {
	mu          sync.Mutex
	rules       []Rule
	sink        AlertSink
	states      map[string]*alertInstance
	transitions uint64
}

// NewAlertEngine returns an engine over the given rules. sink may be nil
// (state machine and metrics only, no event log).
func NewAlertEngine(sink AlertSink, rules ...Rule) *AlertEngine {
	return &AlertEngine{rules: rules, sink: sink, states: make(map[string]*alertInstance)}
}

func instanceKey(rule, key string) string { return rule + "\x00" + key }

// Eval runs one evaluation pass at the given control-loop time. Call it
// once per control interval (the same cadence as rms.Manager.Step).
func (e *AlertEngine) Eval(now float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, rule := range e.rules {
		pendingFor := rule.PendingFor
		if pendingFor <= 0 {
			pendingFor = 1
		}
		results := rule.Eval(now)
		active := make(map[string]bool, len(results))
		for _, res := range results {
			active[res.Key] = true
			k := instanceKey(rule.Name, res.Key)
			inst := e.states[k]
			if inst == nil {
				inst = &alertInstance{}
				e.states[k] = inst
			}
			inst.last = res
			inst.trueEvals++
			switch inst.state {
			case AlertInactive:
				inst.state = AlertPending
				inst.trueEvals = 1
				inst.since = now
				e.emit(now, rule.Name, res, AlertPending)
			case AlertPending:
				if inst.trueEvals > pendingFor {
					inst.state = AlertFiring
					e.emit(now, rule.Name, res, AlertFiring)
				}
			case AlertFiring:
				// Still firing; transitions only are logged.
			}
		}
		// Instances that stopped appearing resolve (firing) or cancel
		// silently (pending that never fired — logging those would make
		// every threshold graze a spurious resolved line). Collected and
		// sorted before emitting: the JSONL event stream is diffed and
		// deduped downstream, so resolved lines must not come out in map
		// order when several instances resolve on the same evaluation.
		prefix := rule.Name + "\x00"
		var gone []string
		for k := range e.states {
			if strings.HasPrefix(k, prefix) && !active[strings.TrimPrefix(k, prefix)] {
				gone = append(gone, k)
			}
		}
		sort.Strings(gone)
		for _, k := range gone {
			inst := e.states[k]
			if inst.state == AlertFiring {
				e.emitEvent(AlertEvent{
					Time: now, Rule: rule.Name, Key: inst.last.Key, State: "resolved",
					Value: inst.last.Value, Threshold: inst.last.Threshold, Detail: inst.last.Detail,
				})
			}
			delete(e.states, k)
		}
	}
}

func (e *AlertEngine) emit(now float64, rule string, res RuleResult, st AlertState) {
	e.emitEvent(AlertEvent{
		Time: now, Rule: rule, Key: res.Key, State: st.String(),
		Value: res.Value, Threshold: res.Threshold, Detail: res.Detail,
	})
}

func (e *AlertEngine) emitEvent(ev AlertEvent) {
	e.transitions++
	if e.sink != nil {
		e.sink.Alert(ev)
	}
}

// Active returns the current pending and firing instances, ordered by rule
// then key.
func (e *AlertEngine) Active() []ActiveAlert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ActiveAlert, 0, len(e.states))
	for k, inst := range e.states {
		rule, key, _ := strings.Cut(k, "\x00")
		out = append(out, ActiveAlert{
			Rule: rule, Key: key, State: inst.state,
			Value: inst.last.Value, Threshold: inst.last.Threshold,
			Detail: inst.last.Detail, Since: inst.since,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// WriteMetrics writes the engine's state in the Prometheus text exposition
// format.
//
// Exported families:
//
//	roia_alert_state{rule=...,key=...}  1 = pending, 2 = firing
//	roia_alerts_pending                 count of pending instances
//	roia_alerts_firing                  count of firing instances
//	roia_alert_transitions_total        lifecycle transitions emitted
func (e *AlertEngine) WriteMetrics(w io.Writer, labels string) error {
	active := e.Active()
	e.mu.Lock()
	transitions := e.transitions
	e.mu.Unlock()
	pending, firing := 0, 0
	var b strings.Builder
	fmt.Fprintf(&b, "# TYPE roia_alert_state gauge\n")
	for _, a := range active {
		switch a.State {
		case AlertPending:
			pending++
		case AlertFiring:
			firing++
		}
		extra := fmt.Sprintf("rule=%q,key=%q", a.Rule, a.Key)
		fmt.Fprintf(&b, "roia_alert_state%s %d\n", FormatLabels(labels, extra), int(a.State))
	}
	lbl := FormatLabels(labels, "")
	fmt.Fprintf(&b, "# TYPE roia_alerts_pending gauge\nroia_alerts_pending%s %d\n", lbl, pending)
	fmt.Fprintf(&b, "# TYPE roia_alerts_firing gauge\nroia_alerts_firing%s %d\n", lbl, firing)
	fmt.Fprintf(&b, "# TYPE roia_alert_transitions_total counter\nroia_alert_transitions_total%s %d\n", lbl, transitions)
	_, err := io.WriteString(w, b.String())
	return err
}
