package main

import (
	"fmt"
	"runtime"
	"sort"

	"roia/internal/stats"
)

const (
	// warmupIters run before the window opens, so caches, buffers and the
	// delta chains reach steady state.
	warmupIters = 50
	// digestIters is the number of window iterations the work digest
	// covers (after set-up and warm-up). Every window runs at least this
	// many, so the digest covers the same work whatever the run length,
	// and the tick percentiles pool at least 1000 ticks: the 99th has ten
	// samples beyond it.
	digestIters = 1000
	// chunks is the number of equal-time parts of a window. The update
	// rate and the tick median are reported as the median over the parts,
	// so a disturbance confined to one or two parts (another process
	// taking the CPU) does not move them.
	chunks = 5
)

// chunk is one equal-time part of a window.
type chunk struct {
	loopNS  int64 // loop time: loop-thread CPU time plus peer waits
	applied int64
	tickMS  []float64 // sorted, thread CPU clock
}

// window is what one measured stretch of the closed loop did. Tick times
// are kept on two clocks: the loop thread's CPU clock, which the reported
// metrics use, and the wall clock, printed alongside.
type window struct {
	first, last uint64 // loop iterations (tick numbers) in the window
	iters       int
	wallNS      int64
	loopNS      int64
	tickMS      []float64 // sorted, thread CPU clock
	tickWallMS  []float64 // sorted, wall clock
	chunks      []chunk

	applied, due       int64 // updates applied by users; one due per user per tick
	inputs, inputErrs  int64
	lost, resyncs      int64
	keyframes, updates int64
	clientBytes        int64
	allocs             int64
	liveHeapBytes      int64 // largest live heap a full collection found at a chunk's end
	tcpConns           int
	digest             string
	sample             *frameSample
}

// measure warms the loop up, then runs it for at least seconds and at
// least digestIters iterations, and reports the window.
func (r *rig) measure(seconds float64) (*window, error) {
	yes := func() bool { return true }
	for i := 0; i < warmupIters; i++ {
		if _, _, err := r.iterate(yes); err != nil {
			return nil, err
		}
	}
	w := &window{first: r.iter + 1}
	var lost0, resync0, key0, upd0 int64
	for _, c := range r.clients {
		lost0 += int64(c.c.LostInputs())
		resync0 += int64(c.c.Resyncs())
		key0 += int64(c.c.Keyframes())
		upd0 += int64(c.c.Updates())
	}
	var cb0 int64
	for _, rep := range r.reps {
		cb0 += rep.node.clientBytes
	}
	r.window = true
	r.tickMS = make([]float64, 0, 2*digestIters)
	r.tickWallMS = make([]float64, 0, 2*digestIters)
	r.applied = 0
	alloc0 := r.allocs.read()
	start := mono()
	deadline := start + int64(seconds*1e9)
	cur := chunk{}
	cCPU, cWait, cTick, cApplied := threadCPU(), r.peerWaitNS, 0, int64(0)
	// closeChunk ends the current chunk, then measures the live heap with
	// a full collection, which neither the window's wall time nor the next
	// chunk's loop time counts.
	var gcNS int64
	closeChunk := func() {
		cur.loopNS = threadCPU() - cCPU + r.peerWaitNS - cWait
		cur.applied = r.applied - cApplied
		cur.tickMS = append([]float64(nil), r.tickMS[cTick:]...)
		sort.Float64s(cur.tickMS)
		w.chunks = append(w.chunks, cur)
		g0 := mono()
		runtime.GC()
		w.liveHeapBytes = max(w.liveHeapBytes, r.heap.read())
		gcNS += mono() - g0
		cur = chunk{}
		cCPU, cWait, cTick, cApplied = threadCPU(), r.peerWaitNS, len(r.tickMS), r.applied
	}
	for more := true; more; {
		w.iters++
		sent, failed, err := r.iterate(func() bool {
			more = w.iters < digestIters || mono() < deadline
			return more
		})
		if err != nil {
			return nil, err
		}
		w.inputs += sent
		w.inputErrs += failed
		if w.iters == digestIters {
			for _, c := range r.clients {
				c.node.hashing = false
			}
		}
		if !more || (len(w.chunks) < chunks-1 && mono() >= start+int64(len(w.chunks)+1)*(deadline-start)/chunks) {
			closeChunk()
		}
	}
	w.wallNS = mono() - start - gcNS
	for _, c := range w.chunks {
		w.loopNS += c.loopNS
	}
	w.allocs = r.allocs.read() - alloc0
	r.window = false
	w.last = r.iter
	w.tickMS, w.tickWallMS = r.tickMS, r.tickWallMS
	sort.Float64s(w.tickMS)
	sort.Float64s(w.tickWallMS)
	w.applied = r.applied
	w.due = int64(w.iters) * int64(len(r.clients))
	for _, c := range r.clients {
		w.lost += int64(c.c.LostInputs())
		w.resyncs += int64(c.c.Resyncs())
		w.keyframes += int64(c.c.Keyframes())
		w.updates += int64(c.c.Updates())
	}
	w.lost -= lost0
	w.resyncs -= resync0
	w.keyframes -= key0
	w.updates -= upd0
	for _, rep := range r.reps {
		w.clientBytes += rep.node.clientBytes
	}
	w.clientBytes -= cb0
	w.digest = r.digest()
	w.sample = r.sample
	return w, nil
}

// attempted counts the window's operations: inputs sent plus updates due.
func (w *window) attempted() int64 { return w.inputs + w.due }

// failed counts the window's failed operations: inputs that failed to
// send or were never acknowledged, updates due but not applied, and
// delta-stream resyncs.
func (w *window) failed() int64 {
	return w.inputErrs + w.lost + max(0, w.due-w.applied) + w.resyncs
}

func (w *window) tickPercentile(p float64) float64 { return stats.Percentile(w.tickMS, p) }

// endToEnd returns the end-to-end metrics of an untraced window.
func (w *window) endToEnd(users int, setupS float64) []metric {
	return []metric{
		{"tick_ms_p50", w.chunkMedian(func(c *chunk) float64 { return stats.Percentile(c.tickMS, 50) }), "ms"},
		{"tick_ms_p99", w.tickPercentile(99), "ms"},
		{"updates_per_s", w.chunkMedian(func(c *chunk) float64 { return float64(c.applied) / (float64(c.loopNS) / 1e9) }), "1/s"},
		{"wire_bytes_per_user_tick", float64(w.clientBytes) / float64(int64(users)*int64(w.iters)), "B"},
		{"allocs_per_tick", float64(w.allocs) / float64(w.iters), "objects"},
		{"heap_mb", float64(w.liveHeapBytes) / (1 << 20), "MiB"},
		{"setup_s", setupS, "s"},
	}
}

// wallNote gives the window's tick percentiles and update rate on the
// wall clock, next to the loop clock the metrics use.
func (w *window) wallNote() string {
	return fmt.Sprintf("wall clock: tick p50 %.4f ms, p90 %.4f ms, p99 %.4f ms (n=%d), %.1f updates/s over %.2f s; loop clock: tick p90 %.4f ms, %.2f s of loop time",
		stats.Percentile(w.tickWallMS, 50), stats.Percentile(w.tickWallMS, 90), stats.Percentile(w.tickWallMS, 99), len(w.tickWallMS),
		float64(w.applied)/(float64(w.wallNS)/1e9), float64(w.wallNS)/1e9, w.tickPercentile(90), float64(w.loopNS)/1e9)
}

// chunkMedian is the median over the window's chunks of f.
func (w *window) chunkMedian(f func(*chunk) float64) float64 {
	vals := make([]float64, len(w.chunks))
	for i := range w.chunks {
		vals[i] = f(&w.chunks[i])
	}
	return median(vals)
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// layerSum is the traced window's accounting identity: replica ticks,
// user polls, peer waits and generator steps should add up to the loop's
// wall time. What they leave is the harness's own share: moving frames
// between inboxes and digesting them (timed as harness.feed spans), and
// reading clocks and heap counters between the spans (untimed).
type layerSum struct {
	wallMS, ticksMS, pollsMS, peerWaitMS, loadgenMS, feedMS float64
}

// Tolerances of the layer-sum check, as shares of the window's wall time:
// the residual the four layers leave, and the part of it that not even the
// harness.feed spans account for.
const (
	residualTolerance    = 0.10
	unaccountedTolerance = 0.03
)

func (s layerSum) residualMS() float64 {
	return s.wallMS - (s.ticksMS + s.pollsMS + s.peerWaitMS + s.loadgenMS)
}

func (s layerSum) unaccountedMS() float64 { return s.residualMS() - s.feedMS }

func (s layerSum) check() error {
	res, un := s.residualMS(), s.unaccountedMS()
	if res < 0 || res > residualTolerance*s.wallMS || un < 0 || un > unaccountedTolerance*s.wallMS {
		return fmt.Errorf("layer sum: %s", s)
	}
	return nil
}

func (s layerSum) String() string {
	return fmt.Sprintf("wall %.1f ms = ticks %.1f + polls %.1f + peer wait %.1f + loadgen %.1f + residual %.1f ms (%.2f%%, tolerance %.0f%%), of which harness feed %.1f ms and unaccounted %.1f ms (%.2f%%, tolerance %.0f%%)",
		s.wallMS, s.ticksMS, s.pollsMS, s.peerWaitMS, s.loadgenMS, s.residualMS(), 100*s.residualMS()/s.wallMS, 100*residualTolerance,
		s.feedMS, s.unaccountedMS(), 100*s.unaccountedMS()/s.wallMS, 100*unaccountedTolerance)
}

// layerMetrics derives the per-layer metrics from the spans a traced
// window recorded. Times are per replica tick unless the name says
// otherwise.
func layerMetrics(tr *tracer, w *window, replicas int) ([]metric, layerSum) {
	var busy, calls, items, bytes, errs, allocs [nLayers]int64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Iter < w.first || s.Iter > w.last {
			continue
		}
		busy[s.layer] += s.Busy
		calls[s.layer] += s.Calls
		items[s.layer] += s.Items
		bytes[s.layer] += s.Bytes
		errs[s.layer] += s.Errs
		allocs[s.layer] += s.Allocs
	}
	repTicks := float64(w.iters * replicas)
	perTickMS := func(ns int64) float64 { return float64(ns) / 1e6 / repTicks }
	perTick := func(n int64) float64 { return float64(n) / repTicks }
	children := int64(0)
	for l := lTick + 1; l < nReplicaLayers; l++ {
		children += busy[l]
	}
	m := []metric{
		{"server.self_ms", perTickMS(busy[lTick] - children), "ms"},
		{"server.frames_in", perTick(items[lTick]), "frames"},
		{"server.allocs", perTick(allocs[lTick]), "objects"},
		{"aoi.visible_ms", perTickMS(busy[lAOIVisible]), "ms"},
		{"aoi.build_ms", perTickMS(busy[lAOIBuild]), "ms"},
		{"aoi.ids_per_query", ratio(items[lAOIVisible], calls[lAOIVisible]), "ids"},
		{"game.input_ms", perTickMS(busy[lGameInput]), "ms"},
		{"game.forwarded_ms", perTickMS(busy[lGameFwd]), "ms"},
		{"game.events_ms", perTickMS(busy[lGameEvents]), "ms"},
		{"game.npc_ms", perTickMS(busy[lGameNPC]), "ms"},
		{"game.rejected_ratio", ratio(errs[lGameInput]+errs[lGameFwd], calls[lGameInput]+calls[lGameFwd]), "ratio"},
		{"transport.flush_ms", perTickMS(busy[lFlush]), "ms"},
		{"transport.frames_out", perTick(items[lFlush]), "frames"},
		{"transport.bytes_out", perTick(bytes[lFlush]), "B"},
		{"transport.send_errors", float64(errs[lFlush]), "count"},
		{"transport.peer_wait_ms", perTickMS(busy[lPeerWait]), "ms"},
		{"client.poll_us_per_update", ratio(busy[lPoll], items[lPoll]) / 1e3, "us"},
		{"client.send_us_per_input", ratio(busy[lSend], calls[lSend]) / 1e3, "us"},
		{"client.allocs_per_update", ratio(allocs[lPoll], items[lPoll]), "objects"},
		{"client.resyncs", float64(w.resyncs), "count"},
		{"client.keyframe_ratio", ratio(w.keyframes, w.updates), "ratio"},
		{"loadgen.step_ms", float64(busy[lLoadgen]) / 1e6 / float64(w.iters), "ms"},
		{"loadgen.self_ms", float64(busy[lLoadgen]-busy[lSend]) / 1e6 / float64(w.iters), "ms"},
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	sum := layerSum{
		wallMS: ms(w.wallNS), ticksMS: ms(busy[lTick]), pollsMS: ms(busy[lPoll]),
		peerWaitMS: ms(busy[lPeerWait]), loadgenMS: ms(busy[lLoadgen]), feedMS: ms(busy[lFeed]),
	}
	return m, sum
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
