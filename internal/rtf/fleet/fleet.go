// Package fleet adapts a live RTF server group to the rms.Cluster
// interface, so the exact same RTF-RMS controller that drives the
// deterministic simulator also manages real application servers: real
// sockets (or in-process transport), real serialization, real measured
// tick durations from the monitoring hooks.
//
// A Fleet owns the replica group of one zone: it spawns servers on
// demand (replication enactment), drains and stops them (resource
// removal), and forwards migration orders. Resource substitution is not
// available on a homogeneous local fleet and reports
// cloud.ErrNoStrongerClass, the same signal a saturated cloud deployment
// produces.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"roia/internal/cloud"
	"roia/internal/model"
	"roia/internal/rms"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// Config assembles a Fleet.
type Config struct {
	// Network attaches server nodes.
	Network transport.Network
	// Zone is the managed zone.
	Zone zone.ID
	// Assignment is the shared replica map.
	Assignment *zone.Assignment
	// NewApp builds the application logic for each spawned server.
	NewApp func() server.Application
	// World optionally enables zone handoffs on spawned servers (see
	// server.Config.World).
	World *zone.World
	// InboxSize bounds each server node's receive queue (default 1<<16).
	InboxSize int
	// NamePrefix prefixes spawned server IDs (default "server"); give
	// each fleet on a shared network a distinct prefix.
	NamePrefix string
	// IDBase offsets the entity-ID prefixes of spawned servers; give each
	// fleet in a session a distinct base so entity IDs stay unique.
	IDBase uint16
	// Seed bases the per-server deterministic seeds.
	Seed int64
	// Events, when set, receives the fleet's lifecycle log: spawn, drain,
	// stop, and the zone handoffs its servers execute — the replica-group
	// counterpart of the RMS decision audit. Typically a
	// telemetry.FleetEventLog writing JSONL.
	Events telemetry.FleetEventSink
	// TraceMigrations gives every spawned server its own migration tracer,
	// so the wire-level migration IDs recorded on both endpoints can be
	// stitched into one cross-replica trace (MigEvents, Collector).
	TraceMigrations bool
	// MigTraceCapacity bounds each server's migration-event ring
	// (default telemetry.DefaultMigTraceCapacity).
	MigTraceCapacity int
	// FlightRecorders gives every spawned server a tick flight recorder
	// with default thresholds (see telemetry.FlightRecConfig): per-tick
	// records in a bounded ring, with deadline-violating or hiccup ticks
	// frozen into JSONL-exportable captures. The collector exports each
	// replica's hiccup and capture counters with the fleet metrics.
	FlightRecorders bool
	// ProfilePhases gives every spawned server a telemetry.TaskProfiler
	// attributing each tick to the model's four task phases (see
	// server.Config.Profiler and Fleet.Profiler).
	ProfilePhases bool
	// CostTrackers gives every spawned server a telemetry.CostTracker
	// attributing per-stage heap allocations, in-tick GC pauses, framed
	// egress bytes (per message type and per client), and AoI churn (see
	// server.Config.Cost and Fleet.CostTracker). The collector aggregates
	// the per-replica trackers into zone-level cost metrics.
	CostTrackers bool
	// TickInterval is passed to every spawned server (default 40 ms); it
	// also sets each server's tick QoS deadline 1/U.
	TickInterval time.Duration
	// Parallelism is passed to every spawned server (see
	// server.Config.Parallelism); wire output stays byte-identical for
	// any value.
	Parallelism int
	// DeltaUpdates switches every spawned server from a keyframe every
	// tick to the delta+keyframe stream (see server.Config.DeltaUpdates).
	DeltaUpdates bool
	// KeyframeTicks sets the keyframe cadence of spawned servers under
	// DeltaUpdates (see server.Config.KeyframeTicks; 0 means the server
	// default).
	KeyframeTicks int
	// NewAOI optionally builds the interest manager for each spawned
	// server (e.g. aoi.NewIncremental for the zero-rebuild index); nil
	// uses the server default.
	NewAOI func() aoi.Manager
	// Now stamps lifecycle events (default time.Now). Inject a fake
	// clock to make event logs deterministic in simulations and tests.
	Now func() time.Time
}

// Fleet is a live replica group implementing rms.Cluster.
type Fleet struct {
	cfg Config

	mu      sync.Mutex
	servers map[string]*server.Server
	order   []string
	nextIdx int
	// migs keeps every spawned server's migration tracer, including
	// stopped servers': a migration initiated by a since-removed replica
	// must still stitch (or be flagged incomplete), not vanish.
	migs map[string]*telemetry.MigTracer
}

// New returns an empty fleet. Call AddReplica (directly or through the
// RMS manager) to start the first server.
func New(cfg Config) (*Fleet, error) {
	if cfg.Network == nil || cfg.Assignment == nil || cfg.NewApp == nil {
		return nil, errors.New("fleet: Network, Assignment and NewApp are required")
	}
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 1 << 16
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "server"
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Fleet{
		cfg:     cfg,
		servers: make(map[string]*server.Server),
		migs:    make(map[string]*telemetry.MigTracer),
	}, nil
}

// Zone returns the zone this fleet replicates.
func (f *Fleet) Zone() zone.ID { return f.cfg.Zone }

// event emits one lifecycle event to the configured sink (no-op otherwise).
func (f *Fleet) event(kind, replica, detail string) {
	if f.cfg.Events == nil {
		return
	}
	f.cfg.Events.FleetEvent(telemetry.FleetEvent{
		UnixMicro: f.cfg.Now().UnixMicro(),
		Kind:      kind,
		Zone:      uint32(f.cfg.Zone),
		Replica:   replica,
		Detail:    detail,
	})
}

// MigEvents snapshots every spawned server's migration events, keyed by
// replica ID — the input to telemetry.StitchMigrations and
// telemetry.WriteMigrationChromeTrace.
func (f *Fleet) MigEvents() map[string][]telemetry.MigEvent {
	f.mu.Lock()
	tracers := make(map[string]*telemetry.MigTracer, len(f.migs))
	for id, tr := range f.migs {
		tracers[id] = tr
	}
	f.mu.Unlock()
	out := make(map[string][]telemetry.MigEvent, len(tracers))
	for id, tr := range tracers {
		out[id] = tr.Events()
	}
	return out
}

// Profiler returns a running server's phase profiler (nil unless
// ProfilePhases is on).
func (f *Fleet) Profiler(id string) (*telemetry.TaskProfiler, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.servers[id]
	if !ok {
		return nil, false
	}
	return s.Profiler(), true
}

// FlightRecorder returns a running server's tick flight recorder (nil
// unless FlightRecorders is on).
func (f *Fleet) FlightRecorder(id string) (*telemetry.FlightRecorder, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.servers[id]
	if !ok {
		return nil, false
	}
	return s.FlightRecorder(), true
}

// CostTracker returns a running server's resource cost tracker (nil unless
// CostTrackers is on).
func (f *Fleet) CostTracker(id string) (*telemetry.CostTracker, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.servers[id]
	if !ok {
		return nil, false
	}
	return s.CostTracker(), true
}

// ObserveTaskDrift feeds every running server's measured per-phase costs
// against the cost model's fitted curves into td (see
// monitor.ObserveTaskDrift). Call it periodically, then export td via the
// collector's AddMetrics.
func (f *Fleet) ObserveTaskDrift(cost model.CostModel, td *telemetry.TaskDrift) {
	f.mu.Lock()
	servers := make([]*server.Server, 0, len(f.order))
	for _, id := range f.order {
		servers = append(servers, f.servers[id])
	}
	f.mu.Unlock()
	for _, s := range servers {
		s.Monitor().ObserveTaskDrift(cost, td)
	}
}

// Server returns a running server by ID (for tests and tick driving).
func (f *Fleet) Server(id string) (*server.Server, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.servers[id]
	return s, ok
}

// IDs returns the running server IDs in spawn order.
func (f *Fleet) IDs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...)
}

// TickAll advances every server by one real-time-loop iteration, in spawn
// order. Use it to drive the fleet manually (tests, benches); production
// deployments run each server's Run loop instead.
func (f *Fleet) TickAll() {
	f.mu.Lock()
	servers := make([]*server.Server, 0, len(f.order))
	for _, id := range f.order {
		servers = append(servers, f.servers[id])
	}
	f.mu.Unlock()
	for _, s := range servers {
		s.Tick()
	}
}

// BalanceNPCs redistributes NPC ownership so every running server
// processes an equal share — the model's m/l assumption (Eq. 1). Call it
// after replica-set changes; the transfers propagate over the next tick's
// shadow updates. It reports the number of NPCs moved.
func (f *Fleet) BalanceNPCs() int {
	f.mu.Lock()
	ids := append([]string(nil), f.order...)
	servers := make([]*server.Server, len(ids))
	for i, id := range ids {
		servers[i] = f.servers[id]
	}
	f.mu.Unlock()
	if len(servers) < 2 {
		return 0
	}
	counts := make([]int, len(servers))
	total := 0
	for i, s := range servers {
		counts[i] = s.NPCCount()
		total += counts[i]
	}
	base, rem := total/len(servers), total%len(servers)
	target := func(i int) int {
		if i < rem {
			return base + 1
		}
		return base
	}
	moved := 0
	for i, s := range servers {
		surplus := counts[i] - target(i)
		for j := 0; surplus > 0 && j < len(servers); j++ {
			if i == j {
				continue
			}
			deficit := target(j) - counts[j]
			if deficit <= 0 {
				continue
			}
			k := surplus
			if k > deficit {
				k = deficit
			}
			got := s.TransferNPCs(ids[j], k)
			counts[i] -= got
			counts[j] += got
			surplus -= got
			moved += got
		}
	}
	return moved
}

// --- rms.Cluster implementation ---

// Servers implements rms.Cluster.
func (f *Fleet) Servers() []rms.ServerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]rms.ServerState, 0, len(f.order))
	for _, id := range f.order {
		s := f.servers[id]
		out = append(out, rms.ServerState{
			ID:       id,
			Users:    s.UserCount(),
			TickMS:   s.Monitor().MeanTick(),
			Power:    1,
			Class:    "local",
			Ready:    true,
			Draining: s.Draining(),
		})
	}
	return out
}

// ZoneUsers implements rms.Cluster: the zone-wide user count is the sum
// of users connected across the replica group.
func (f *Fleet) ZoneUsers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, s := range f.servers {
		n += s.UserCount()
	}
	return n
}

// NPCCount implements rms.Cluster.
func (f *Fleet) NPCCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := 0
	for _, s := range f.servers {
		b := s.Monitor().LastBreakdown()
		if b.NPCs > m {
			m = b.NPCs
		}
	}
	return m
}

// Migrate implements rms.Cluster.
func (f *Fleet) Migrate(src, dst string, count int) error {
	f.mu.Lock()
	s, ok := f.servers[src]
	_, okDst := f.servers[dst]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: migrate from unknown server %q", src)
	}
	if !okDst {
		return fmt.Errorf("fleet: migrate to unknown server %q", dst)
	}
	s.MigrateUsers(dst, count)
	return nil
}

// AddReplica implements rms.Cluster: spawn a new server for the zone.
func (f *Fleet) AddReplica() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextIdx++
	id := fmt.Sprintf("%s-%d", f.cfg.NamePrefix, f.nextIdx)
	node, err := f.cfg.Network.Attach(id, f.cfg.InboxSize)
	if err != nil {
		return "", fmt.Errorf("fleet: attach %s: %w", id, err)
	}
	var migTrace *telemetry.MigTracer
	if f.cfg.TraceMigrations {
		migTrace = telemetry.NewMigTracer(f.cfg.MigTraceCapacity)
	}
	var profiler *telemetry.TaskProfiler
	if f.cfg.ProfilePhases {
		profiler = telemetry.NewTaskProfiler()
	}
	var flightRec *telemetry.FlightRecorder
	if f.cfg.FlightRecorders {
		flightRec = telemetry.NewFlightRecorder(telemetry.FlightRecConfig{})
	}
	var cost *telemetry.CostTracker
	if f.cfg.CostTrackers {
		cost = telemetry.NewCostTracker()
	}
	var aoiMgr aoi.Manager
	if f.cfg.NewAOI != nil {
		aoiMgr = f.cfg.NewAOI()
	}
	srv, err := server.New(server.Config{
		Node:          node,
		Zone:          f.cfg.Zone,
		Assignment:    f.cfg.Assignment,
		App:           f.cfg.NewApp(),
		World:         f.cfg.World,
		AOI:           aoiMgr,
		IDPrefix:      f.cfg.IDBase + uint16(f.nextIdx),
		Seed:          f.cfg.Seed + int64(f.nextIdx),
		TickInterval:  f.cfg.TickInterval,
		Parallelism:   f.cfg.Parallelism,
		DeltaUpdates:  f.cfg.DeltaUpdates,
		KeyframeTicks: f.cfg.KeyframeTicks,
		MigTrace:      migTrace,
		Profiler:      profiler,
		FlightRec:     flightRec,
		Cost:          cost,
		Events:        f.cfg.Events,
	})
	if err != nil {
		_ = node.Close()
		return "", err
	}
	srv.Start()
	f.servers[id] = srv
	if migTrace != nil {
		f.migs[id] = migTrace
	}
	f.order = append(f.order, id)
	f.event(telemetry.FleetEventSpawn, id, "")
	return id, nil
}

// RemoveReplica implements rms.Cluster.
func (f *Fleet) RemoveReplica(id string) error {
	f.mu.Lock()
	s, ok := f.servers[id]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("fleet: remove of unknown server %q", id)
	}
	if s.UserCount() > 0 {
		f.mu.Unlock()
		return fmt.Errorf("fleet: remove of non-empty server %q", id)
	}
	if len(f.servers) <= 1 {
		f.mu.Unlock()
		return errors.New("fleet: refusing to remove the last replica")
	}
	delete(f.servers, id)
	for i, oid := range f.order {
		if oid == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	f.event(telemetry.FleetEventStop, id, "")
	return s.Stop()
}

// SetDraining implements rms.Cluster.
func (f *Fleet) SetDraining(id string, on bool) error {
	f.mu.Lock()
	s, ok := f.servers[id]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: drain of unknown server %q", id)
	}
	s.SetDraining(on)
	detail := "on"
	if !on {
		detail = "off"
	}
	f.event(telemetry.FleetEventDrain, id, detail)
	return nil
}

// Substitute implements rms.Cluster. A homogeneous local fleet has no
// stronger resource class to lease.
func (f *Fleet) Substitute(id string) (string, error) {
	return "", cloud.ErrNoStrongerClass
}
