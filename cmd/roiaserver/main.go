// Command roiaserver runs one RTF application server over TCP, processing
// the RTFDemo-analogue shooter for one zone. Multiple roiaserver processes
// replicating the same zone exchange shadow updates and forwarded inputs;
// cmd/roiabot generates load against them.
//
// Example — two replicas of zone 1 on one machine:
//
//	roiaserver -id s1 -listen 127.0.0.1:7001 -peers s2=127.0.0.1:7002
//	roiaserver -id s2 -listen 127.0.0.1:7002 -peers s1=127.0.0.1:7001
//	roiabot    -server s1=127.0.0.1:7001 -bots 50
//
// The server prints a monitoring line once per second: connected users,
// zone users, mean tick duration, and the per-task model parameters
// measured by the RTF hooks.
//
// With -metrics the server also exposes an observability endpoint:
// Prometheus metrics (tick histogram, QoS deadline violations, windowed
// tail quantiles, hiccup counters, per-phase task profile, model-drift
// gauges — aggregate and per-task — cost attribution when -cost is on
// (per-stage allocation counters, GC pause totals and quantiles,
// per-type egress bytes, payload-size and AoI-churn quantiles), and Go
// runtime stats) on /metrics,
// the tick trace ring on /debug/ticktrace, flight-recorder captures as
// JSONL on /debug/flightrec, and pprof on /debug/pprof/. With -trace-out
// the trace ring is written as Chrome trace-event JSON at shutdown,
// loadable in Perfetto; with -flightrec-out the flight-recorder captures
// (pre/post windows around deadline-violating or hiccup ticks) are
// written as JSONL at shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"roia/internal/game"
	"roia/internal/model"
	"roia/internal/params"
	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/server"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

var (
	idFlag      = flag.String("id", "s1", "server node ID (unique per session)")
	listenFlag  = flag.String("listen", "127.0.0.1:7001", "TCP listen address")
	zoneFlag    = flag.Uint("zone", 1, "zone ID this server processes")
	peersFlag   = flag.String("peers", "", "comma-separated peer replicas: id=host:port,...")
	tickFlag    = flag.Duration("tick", 40*time.Millisecond, "tick interval (40ms = 25Hz)")
	npcFlag     = flag.Int("npcs", 0, "NPCs to spawn on this server")
	prefixFlag  = flag.Uint("idprefix", 1, "entity-ID prefix (unique per server)")
	seedFlag    = flag.Int64("seed", 1, "random seed for the application logic")
	quietFlag   = flag.Bool("quiet", false, "suppress the per-second monitoring line")
	metricsFlag = flag.String("metrics", "", "serve metrics/pprof/ticktrace on this address (e.g. 127.0.0.1:9100)")
	traceFlag   = flag.String("trace-out", "", "write the tick trace as Chrome trace JSON to this file at shutdown")
	traceCap    = flag.Int("trace-cap", telemetry.DefaultTraceCapacity, "tick traces kept in the ring buffer")
	flightOut   = flag.String("flightrec-out", "", "write flight-recorder captures as JSONL to this file at shutdown")
	hiccupK     = flag.Float64("hiccup-k", telemetry.DefaultHiccupK, "flag a tick as a hiccup when its wall time exceeds k x the rolling median")
	costFlag    = flag.Bool("cost", true, "track per-stage allocation, GC attribution, per-client egress, and AoI churn")
	deadline    = flag.Duration("deadline", 0, "tick QoS deadline for violation accounting (default: the tick interval, 1/U)")
	parFlag     = flag.Int("parallelism", 1, "worker count for the tick pipeline's parallel stages (1 = sequential; wire output is identical either way)")
	deltaFlag   = flag.Bool("delta", false, "publish StateDelta streams with periodic StateKeyframes (incremental AoI index) instead of a StateKeyframe every tick")
	keyTicksF   = flag.Int("keyframe-ticks", 0, "with -delta: periodic keyframe cadence in ticks (0 = server default)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "roiaserver:", err)
		os.Exit(1)
	}
}

func run() error {
	net := transport.NewTCP()
	node, err := net.AttachListener(*idFlag, *listenFlag, 1<<16)
	if err != nil {
		return err
	}
	defer node.Close()

	assignment := zone.NewAssignment()
	assignment.AddReplica(zone.ID(*zoneFlag), *idFlag)
	if *peersFlag != "" {
		for _, spec := range strings.Split(*peersFlag, ",") {
			id, addr, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok {
				return fmt.Errorf("bad -peers entry %q (want id=host:port)", spec)
			}
			net.Register(id, addr)
			assignment.AddReplica(zone.ID(*zoneFlag), id)
		}
	}

	tracer := telemetry.NewTracer(*traceCap)
	profiler := telemetry.NewTaskProfiler()
	flightRec := telemetry.NewFlightRecorder(telemetry.FlightRecConfig{K: *hiccupK})
	var cost *telemetry.CostTracker
	if *costFlag {
		cost = telemetry.NewCostTracker()
	}
	var aoiMgr aoi.Manager
	if *deltaFlag {
		// The maintained index is what keeps the delta publish stage
		// allocation-free; keyframe-only mode keeps the default Euclid scan.
		aoiMgr = aoi.NewIncremental(server.DefaultAOIRadius)
	}
	srv, err := server.New(server.Config{
		AOI:           aoiMgr,
		Node:          node,
		Zone:          zone.ID(*zoneFlag),
		Assignment:    assignment,
		App:           game.New(game.DefaultConfig()),
		IDPrefix:      uint16(*prefixFlag),
		Seed:          *seedFlag,
		TickInterval:  *tickFlag,
		Tracer:        tracer,
		Profiler:      profiler,
		FlightRec:     flightRec,
		Cost:          cost,
		Parallelism:   *parFlag,
		DeltaUpdates:  *deltaFlag,
		KeyframeTicks: *keyTicksF,
	})
	if err != nil {
		return err
	}
	if *deadline > 0 {
		srv.Monitor().SetDeadline(float64(*deadline) / float64(time.Millisecond))
	}
	for i := 0; i < *npcFlag; i++ {
		srv.SpawnNPC(npcPos(i))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*quietFlag {
		go report(ctx, srv)
	}

	drift := &telemetry.Drift{}
	names := telemetry.PhaseNames()
	taskDrift := telemetry.NewTaskDrift(names[:]...)
	go trackDrift(ctx, srv.Monitor(), drift, taskDrift, *tickFlag)

	if *metricsFlag != "" {
		if err := serveMetrics(ctx, srv.Monitor(), drift, taskDrift, profiler, tracer, flightRec, cost); err != nil {
			return err
		}
	}
	fmt.Printf("roiaserver %s: zone %d on %s, tick %v, %d peers\n",
		*idFlag, *zoneFlag, *listenFlag, *tickFlag, assignment.ReplicaCount(zone.ID(*zoneFlag))-1)
	runErr := srv.Run(ctx)
	if runErr != nil && ctx.Err() == nil {
		return runErr
	}
	if err := srv.Stop(); err != nil {
		return err
	}
	if *traceFlag != "" {
		if err := dumpTrace(tracer, *traceFlag); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Printf("wrote %d tick traces to %s\n", tracer.Len(), *traceFlag)
	}
	if *flightOut != "" {
		if err := dumpFlightRec(flightRec, *flightOut); err != nil {
			return fmt.Errorf("flightrec-out: %w", err)
		}
		fmt.Printf("wrote %d flight-recorder captures to %s (%d hiccups observed)\n",
			len(flightRec.Captures()), *flightOut, flightRec.Hiccups())
	}
	return nil
}

// serveMetrics starts the observability HTTP server: Prometheus metrics,
// the tick trace ring, and pprof. It shuts down gracefully when ctx ends.
func serveMetrics(ctx context.Context, mon *monitor.Monitor, drift *telemetry.Drift, taskDrift *telemetry.TaskDrift, profiler *telemetry.TaskProfiler, tracer *telemetry.Tracer, flightRec *telemetry.FlightRecorder, cost *telemetry.CostTracker) error {
	labels := fmt.Sprintf("server=%q,zone=\"%d\"", *idFlag, *zoneFlag)
	writers := []telemetry.MetricsWriter{
		mon.WriteMetrics,
		drift.WriteMetrics,
		taskDrift.WriteMetrics,
		profiler.WriteMetrics,
		flightRec.WriteMetrics,
		telemetry.WriteRuntimeMetrics,
	}
	if cost != nil {
		writers = append(writers, cost.WriteMetrics)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(labels, writers...))
	mux.Handle("/healthz", telemetry.ReadyHandler(func() bool { return mon.Ticks() > 0 }))
	mux.Handle("/debug/ticktrace", telemetry.TraceHandler(tracer))
	mux.Handle("/debug/flightrec", telemetry.FlightRecHandler(flightRec))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	httpSrv := &http.Server{
		Addr:              *metricsFlag,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	// done joins the serve goroutine: shutdown waits for the listener to
	// actually stop before the shutdown path completes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "roiaserver: metrics:", err)
		}
	}()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			_ = httpSrv.Close()
		}
		<-done
	}()
	fmt.Printf("metrics on http://%s/metrics, traces on /debug/ticktrace, flight recorder on /debug/flightrec, pprof on /debug/pprof/\n", *metricsFlag)
	return nil
}

// trackDrift feeds the model-drift gauges once per second: the scalability
// model's predicted tick time for the current l/n/m/a against the measured
// mean tick (aggregate drift), plus the per-task comparison of each fitted
// parameter curve against the measured phase cost (task drift, attributing
// a diverging calibration to the specific term that is wrong). U is the
// tick interval — the budget the model is solved for.
func trackDrift(ctx context.Context, mon *monitor.Monitor, drift *telemetry.Drift, taskDrift *telemetry.TaskDrift, tick time.Duration) {
	set := params.RTFDemo()
	mdl, err := model.New(set, float64(tick.Microseconds())/1000, params.CDefault)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roiaserver: drift model:", err)
		return
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			b := mon.LastBreakdown()
			if b.Replicas == 0 || mon.Ticks() == 0 {
				continue
			}
			predicted := mdl.TickTimeUneven(b.Replicas, b.Users, b.NPCs, b.ActiveUsers)
			drift.Observe(predicted, mon.MeanTick())
			mon.ObserveTaskDrift(set, taskDrift)
		}
	}
}

// dumpFlightRec writes the frozen flight-recorder captures as JSONL.
func dumpFlightRec(rec *telemetry.FlightRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteFlightJSONL(f, rec.Captures()); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// dumpTrace writes the trace ring as Chrome trace-event JSON.
func dumpTrace(tracer *telemetry.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(io.Writer(f), tracer.Last(0)); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// npcPos spreads initial NPCs deterministically over the world.
func npcPos(i int) entity.Vec2 {
	return entity.Vec2{X: float64((i*137)%1000) + 0.5, Y: float64((i*251)%1000) + 0.5}
}

func report(ctx context.Context, srv *server.Server) {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			mon := srv.Monitor()
			fmt.Printf("[%s] users=%d/%d tick(mean)=%.3fms t_ua=%.4f t_aoi=%.4f t_su=%.4f ticks=%d\n",
				srv.ID(), srv.UserCount(), srv.ZoneUserCount(), mon.MeanTick(),
				mon.TaskSummary(monitor.UA).Mean,
				mon.TaskSummary(monitor.AOI).Mean,
				mon.TaskSummary(monitor.SU).Mean,
				mon.Ticks())
		}
	}
}
