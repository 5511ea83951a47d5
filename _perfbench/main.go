// Command perfbench is the closed-loop replica benchmark: it runs real
// server.Server replicas in lockstep with real client.Client users in one
// process and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run) for one workload. See README.md.
//
// Usage:
//
//	perfbench --workload dense-arena --seed 1 --seconds 20 --trace 0 [--state DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run whose output check, work
// digest or layer-sum check fails prints no metrics and exits with code 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// workload is one traffic mix. Every workload runs a closed loop with a
// fixed user count; why says which layers it loads.
type workload struct {
	name     string
	why      string
	replicas int
	users    int
	npcs     int
	world    float64 // edge length of the square world
}

var workloads = []workload{
	{
		name: "dense-arena", replicas: 1, users: 400, world: 300,
		why: "crowded zone: AoI queries, visible-set diffs, delta encoding, hit scans and client delta apply dominate; no NPCs",
	},
	{
		name: "npc-field", replicas: 1, users: 40, npcs: 3000, world: 1000,
		why: "NPC aggro scans dominate the tick and the AoI index re-buckets 3000 moving entities: AoI writes, not reads",
	},
	{
		name: "replicated-tcp", replicas: 2, users: 300, world: 500,
		why: "two replicas of one zone over one TCP connection: shadow updates, forwarded hits, large frames, writev and the read loop",
	},
}

// setupRepeats is how many times an untraced run builds the system: half
// before the measured window (the last of these is measured) and half
// after it, so that setup_s, the median on the loop clock, samples the
// machine at both ends of the run. Each build starts from a collected
// heap, so the garbage of the one before does not bill it.
const setupRepeats = 25

type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	name := flag.String("workload", "", "workload: dense-arena, npc-field or replicated-tcp")
	seed := flag.Int64("seed", 1, "workload seed: user and NPC placement, generated inputs, replica random sources")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	state := flag.String("state", "", "directory for the work-digest book and span traces (none if empty)")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if _, err := readThreadCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	var out *output
	var err error
	if *traced == 1 {
		out, err = runTraced(w, *seed, *seconds, *state)
	} else {
		out, err = runUntraced(w, *seed, *seconds, *state)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.print(w)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// output is what a successful run prints.
type output struct {
	mode      string
	notes     []string
	metrics   []metric
	attempted int64
	failed    int64
	digest    string
	tcpConns  int
}

func (o *output) print(w workload) {
	fmt.Printf("perfbench workload=%s mode=%s: %s\n", w.name, o.mode, w.why)
	fmt.Printf("load: closed loop in one process, GOMAXPROCS=%d (nproc %d), %d replica(s) with Parallelism 1, %d users over transport.Loopback, %d NPCs, world %gx%g, %s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), w.replicas, w.users, w.npcs, w.world, w.world, tcpNote(w, o.tcpConns))
	for _, n := range o.notes {
		fmt.Println(n)
	}
	fmt.Printf("work digest %s; %d operations failed of %d attempted\n", o.digest, o.failed, o.attempted)
	// failed_ratio is carried by attempted and failed, not by a metric of
	// its own: it is 0 on every workload.
	fmt.Printf("  %-28s %14.6g %s\n", "failed_ratio", ratio(o.failed, o.attempted), "ratio")
	ms := make(map[string]any, len(o.metrics))
	for _, m := range o.metrics {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": o.attempted, "failed": o.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func tcpNote(w workload, conns int) string {
	if w.replicas == 1 {
		return "no TCP connections"
	}
	if conns < 0 {
		return "replica link: TCP connection count unavailable (no /proc/net/tcp)"
	}
	return fmt.Sprintf("replica link: %d TCP connection(s) over the loopback interface", conns)
}

// runUntraced builds the system setupRepeats times, measures one build
// and checks its output.
func runUntraced(w workload, seed int64, seconds float64, state string) (*output, error) {
	var setups []float64
	digest := ""
	// build builds the system once, timing the build and checking that it
	// received the same bytes as every other build.
	build := func() (*rig, error) {
		runtime.GC()
		c0 := threadCPU()
		r, err := newRig(w, seed, nil, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(threadCPU()-c0+r.peerWaitNS)/1e9)
		d := r.digest()
		if digest != "" && d != digest {
			return nil, errors.Join(fmt.Errorf("work digest: set-up %d received %s, set-up 1 %s", len(setups), d, digest), r.close())
		}
		digest = d
		return r, nil
	}
	buildAndClose := func(n int) error {
		for i := 0; i < n; i++ {
			r, err := build()
			if err != nil {
				return err
			}
			if err := r.close(); err != nil {
				return err
			}
		}
		return nil
	}
	before := setupRepeats / 2
	if err := buildAndClose(before); err != nil {
		return nil, err
	}
	r, err := build()
	if err != nil {
		return nil, err
	}
	win, err := measureAndCheck(r, seconds)
	if err != nil {
		return nil, err
	}
	if err := buildAndClose(setupRepeats - before - 1); err != nil {
		return nil, err
	}
	if err := bookDigest(state, w, seed, win.digest); err != nil {
		return nil, err
	}
	return &output{
		mode:      "untraced",
		notes:     []string{windowNote(win, w.replicas), win.wallNote()},
		metrics:   win.endToEnd(w.users, median(setups)),
		attempted: win.attempted(),
		failed:    win.failed(),
		digest:    win.digest,
		tcpConns:  win.tcpConns,
	}, nil
}

// runTraced splits the time over three fresh builds of the system with the
// same seed: untraced with the observer set on, traced with it on, and
// traced with it off. The per-layer metrics come from the second; the
// other two price the trace and the observers.
func runTraced(w workload, seed int64, seconds float64, state string) (*output, error) {
	phase := seconds / 3
	untraced, err := runPhase(w, seed, phase, nil, true)
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.replicas)
	traced, err := runPhase(w, seed, phase, tr, true)
	if err != nil {
		return nil, err
	}
	trOff := newTracer(w.replicas)
	off, err := runPhase(w, seed, phase, trOff, false)
	if err != nil {
		return nil, err
	}
	for _, p := range []*window{traced, off} {
		if p.digest != untraced.digest {
			return nil, fmt.Errorf("work digest: phases of one run received %s and %s", untraced.digest, p.digest)
		}
	}
	if err := bookDigest(state, w, seed, traced.digest); err != nil {
		return nil, err
	}
	ms, sum := layerMetrics(tr, traced, w.replicas)
	if err := sum.check(); err != nil {
		return nil, err
	}
	dec, enc, err := traced.sample.protoCost(5)
	if err != nil {
		return nil, err
	}
	p50 := traced.tickPercentile(50)
	ms = append(ms,
		metric{"proto.decode_ns_per_byte", dec, "ns/B"},
		metric{"proto.encode_ns_per_byte", enc, "ns/B"},
		metric{"telemetry.observer_ms", p50 - off.tickPercentile(50), "ms"},
		metric{"trace.overhead_ms", p50 - untraced.tickPercentile(50), "ms"},
	)
	notes := []string{
		"traced phase " + windowNote(traced, w.replicas),
		fmt.Sprintf("tick_ms_p50: untraced %.4f, traced %.4f, traced without observers %.4f ms",
			untraced.tickPercentile(50), p50, off.tickPercentile(50)),
		"layer sum: " + sum.String(),
		fmt.Sprintf("proto replay: %d frames, %d bytes", len(traced.sample.frames), traced.sample.bytes),
	}
	if state != "" {
		path := filepath.Join(state, fmt.Sprintf("trace-%s-%d.jsonl", w.name, seed))
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		if err := tr.write(path, "traced"); err != nil {
			return nil, err
		}
		if err := trOff.write(path, "traced-no-observers"); err != nil {
			return nil, err
		}
		notes = append(notes, "spans written to "+path)
	}
	return &output{
		mode:      "traced",
		notes:     notes,
		metrics:   ms,
		attempted: traced.attempted(),
		failed:    traced.failed(),
		digest:    traced.digest,
		tcpConns:  traced.tcpConns,
	}, nil
}

// runPhase builds the system once and measures it; a traced phase also
// samples frames for the protocol replay.
func runPhase(w workload, seed int64, seconds float64, tr *tracer, observers bool) (*window, error) {
	r, err := newRig(w, seed, tr, observers)
	if err != nil {
		return nil, err
	}
	if tr != nil && observers {
		r.sample = &frameSample{limit: sampleLimit}
	}
	return measureAndCheck(r, seconds)
}

// measureAndCheck counts the system's TCP connections, measures it, runs
// the output check and tears the system down.
func measureAndCheck(r *rig, seconds float64) (*window, error) {
	conns := tcpConnections(r)
	if conns > runtime.NumCPU() {
		return nil, errors.Join(fmt.Errorf("%d TCP connections, more than the %d CPUs", conns, runtime.NumCPU()), r.close())
	}
	win, err := r.measure(seconds)
	if err == nil {
		win.tcpConns = conns
		err = r.checkWorlds()
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return win, nil
}

func windowNote(w *window, replicas int) string {
	return fmt.Sprintf("window: %d iterations (ticks %d..%d), %d replica ticks, %.2f s wall; digest covers set-up and the first %d iterations",
		w.iters, w.first, w.last, w.iters*replicas, float64(w.wallNS)/1e9, digestIters)
}

func bookDigest(state string, w workload, seed int64, digest string) error {
	if state == "" {
		return nil
	}
	book, err := newDigestBook(state, w.name, seed)
	if err != nil {
		return err
	}
	return book.check(digest)
}
