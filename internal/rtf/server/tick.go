package server

import (
	"encoding/binary"
	"slices"
	"strconv"
	"time"

	"roia/internal/rtf/aoi"
	"roia/internal/rtf/entity"
	"roia/internal/rtf/monitor"
	"roia/internal/rtf/proto"
	"roia/internal/rtf/transport"
	"roia/internal/rtf/wire"
	"roia/internal/rtf/zone"
	"roia/internal/telemetry"
)

// decodedInput is a deserialized user input awaiting application.
type decodedInput struct {
	from string
	msg  *proto.Input
}

// decodedFrame is one slot of the decode stage: the frame's message
// decoded into a reused shell of its kind (ok is false on a decode error
// and for kinds decoded inline by the apply stage) plus its
// deserialization accounting, merged into the Breakdown in frame order by
// the apply stage. Slots live in the server's decBuf and keep their shells
// across ticks, so steady-state decoding allocates nothing; a decoded
// message is valid until the tick ends (its byte fields alias the frame
// payload, its entity slices the shell).
type decodedFrame struct {
	ok    bool
	ms    float64
	items int

	in  proto.Input
	fwd proto.Forwarded
	// su is the shell for a shadow update frame, assigned before the
	// fan-out from the server's suIn by arrival rank, not owned per slot:
	// a shadow update carries every entity a peer owns, and per-slot
	// shells would each grow to that size wherever one ever landed.
	su *proto.ShadowUpdate
}

// npcResult is one slot of the NPC compute phase under the
// ConcurrentSimulator capability: the forwards returned by UpdateNPC and
// the compute time, applied sequentially in slice order.
type npcResult struct {
	fwds []Forward
	ms   float64
}

// pubItem is one slot of the publish stage: everything worker i needs to
// build user i's state update, and everything the sequential merge needs to
// send it and account for it. Slots live in the server's reusable pubItems
// buffer; payload keeps its capacity across ticks.
type pubItem struct {
	uid    string
	u      *user
	av     *entity.Entity
	avMask entity.FieldMask
	events []byte

	payload     []byte
	aoiMS, suMS float64
	ok          bool

	// entered/left count AoI churn for this user's tick: entities that
	// appeared in / dropped out of its visible set (fed to the CostTracker
	// by the sequential merge; left zero when churn is not tracked).
	entered, left int
}

// Tick executes one iteration of the real-time loop:
//
//  1. receive and deserialize inputs from connected users, forwarded
//     inputs and shadow updates from peer replicas, and migration traffic;
//  2. compute the new application state (apply user inputs, apply
//     forwarded inputs, update NPCs);
//  3. send the newly computed state to connected users (area-of-interest
//     filtered) and to the other replicas of the zone.
//
// Every task is timed into the paper's model parameters via the Monitor:
// t_ua_dser/t_ua for user inputs, t_fa_dser/t_fa for forwarded inputs and
// per-shadow-entity replication traffic, t_npc for NPC updates, t_aoi/t_su
// for interest management and state updates, and t_mig_ini/t_mig_rcv for
// the migration handshake.
func (s *Server) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	// All tick timing goes through the executor's injected clock (not
	// time.Now directly), so tests can drive a synthetic slow tick and the
	// flight recorder's triggers stay deterministic under a fake clock.
	tickStart := s.exec.now()
	s.tick++
	s.env.Tick = s.tick
	s.tickBytesOut = 0
	var br monitor.Breakdown
	cost := s.cfg.Cost
	if cost != nil {
		cost.BeginTick()
	}

	// --- Step 1: receive + decode stage ---
	//
	// Deserialization of input, forwarded-input and shadow-update frames is
	// side-effect-free, so it fans out over the executor: worker k decodes a
	// contiguous chunk of frames into indexed slots, timing each item with
	// the executor's injected clock. The apply stage below then walks the
	// frames in their original order, merging the slot accounting into the
	// Breakdown and performing every state mutation sequentially — so the
	// observable effects are identical to the seed's single loop.
	// The frame buffer is owned by the server and reused across ticks:
	// frames are dead once the apply stage below finishes, so last tick's
	// capacity serves this tick without reallocating.
	frames := transport.DrainInto(s.cfg.Node, s.frameBuf[:0], 0)
	s.frameBuf = frames
	if cap(s.decBuf) < len(frames) {
		grown := make([]decodedFrame, len(frames))
		copy(grown, s.decBuf[:cap(s.decBuf)]) // keep the slots' shells
		s.decBuf = grown
	}
	dec := s.decBuf[:len(frames)]
	shadows := 0
	for i, f := range frames {
		// Framed wire bytes (header + payload): what the transport's peer
		// actually wrote, matching the BytesOut convention in sendRaw.
		br.BytesIn += transport.FrameWireBytes(f.From, s.ID(), len(f.Payload))
		d := &dec[i]
		d.ok, d.ms, d.items, d.su = false, 0, 0, nil
		if len(f.Payload) >= 2 && wire.Kind(binary.BigEndian.Uint16(f.Payload)) == proto.KindShadowUpdate {
			if shadows == len(s.suIn) {
				s.suIn = append(s.suIn, new(proto.ShadowUpdate))
			}
			d.su = s.suIn[shadows]
			shadows++
		}
	}
	//roialint:ignore lockhold the pool's wake channels are buffered and drained by the previous run's wg.Wait, so the send never blocks; workers never take s.mu
	s.exec.run(len(frames), s.decodeFn)
	if cost != nil {
		cost.EndStage(telemetry.CostStageDecode)
	}

	// --- Apply stage: frames in arrival order, all mutations sequential ---
	inputs := s.inputsBuf[:0]
	forwards := s.fwdBuf[:0]
	removed := s.removedBuf[:0]
	for i, f := range frames {
		if len(f.Payload) < 2 {
			continue
		}
		switch wire.Kind(binary.BigEndian.Uint16(f.Payload)) {
		case proto.KindInput:
			d := &dec[i]
			br.Add(monitor.UADeser, d.ms, d.items)
			if d.ok {
				inputs = append(inputs, decodedInput{from: f.From, msg: &d.in})
			}
		case proto.KindForwarded:
			d := &dec[i]
			br.Add(monitor.FADeser, d.ms, d.items)
			if d.ok {
				forwards = append(forwards, &d.fwd)
			}
		case proto.KindShadowUpdate:
			// Per-shadow-entity replication traffic: the model charges
			// each of the zone's (n − n/l) shadow entities a per-tick
			// deserialization + application cost, which is exactly this
			// message's per-entity work.
			d := &dec[i]
			br.Add(monitor.FADeser, d.ms, d.items)
			if !d.ok {
				continue
			}
			su := d.su
			t1 := s.exec.now()
			for i := range su.Entities {
				s.store.ApplyShadowUpdate(s.ID(), &su.Entities[i])
			}
			for _, id := range su.Removed {
				if e, ok := s.store.Get(id); ok && e.Owner != s.ID() {
					s.store.Remove(id)
				}
			}
			br.Add(monitor.FA, s.exec.since(t1), len(su.Entities))
		case proto.KindMigrateInit:
			t0 := s.exec.now()
			msg, err := proto.Registry.Decode(f.Payload)
			if err != nil {
				continue
			}
			mi := msg.(*proto.MigrateInit)
			s.receiveMigration(mi)
			dur := s.exec.since(t0)
			br.Add(monitor.MigRcv, dur, 1)
			s.recordMigEvent(telemetry.MigEvent{
				ID: mi.MigID, Phase: telemetry.MigPhaseRecv,
				User: mi.User, From: mi.Avatar.Owner, To: s.ID(),
			}, dur)
		case proto.KindMigrateAck:
			// Ownership already handed off optimistically at initiation;
			// the ack closes the migration span in the trace.
			if s.cfg.MigTrace != nil {
				if msg, err := proto.Registry.Decode(f.Payload); err == nil {
					ack := msg.(*proto.MigrateAck)
					s.recordMigEvent(telemetry.MigEvent{
						ID: ack.MigID, Phase: telemetry.MigPhaseAck,
						User: ack.User, From: s.ID(), To: f.From,
					}, 0)
				}
			}
		case proto.KindJoin:
			if msg, err := proto.Registry.Decode(f.Payload); err == nil {
				s.handleJoin(f.From, msg.(*proto.Join))
			}
		case proto.KindLeave:
			if id, ok := s.removeUser(f.From); ok {
				removed = append(removed, id)
			}
		}
	}

	// --- Step 2a: apply user inputs ---
	for _, in := range inputs {
		u, ok := s.users[in.from]
		if !ok {
			continue // disconnected or migrated away
		}
		if in.msg.Seq <= u.seq && in.msg.Seq != 0 {
			continue // duplicate
		}
		u.seq = in.msg.Seq
		u.lastInput = s.tick
		actor, ok := s.store.Get(u.avatar)
		if !ok {
			continue
		}
		t0 := s.exec.now()
		fwds, err := s.cfg.App.ApplyInput(s.env, actor, in.msg.Payload)
		br.Add(monitor.UA, s.exec.since(t0), 1)
		if err != nil {
			continue
		}
		actor.Seq++
		for _, fw := range fwds {
			target, ok := s.store.Get(fw.Target)
			if !ok {
				continue
			}
			if target.Owner == s.ID() {
				// Local interaction: apply directly. The time still
				// belongs to input application (t_ua), not to forwarded
				// inputs — no items are added so the per-item cost of
				// t_ua absorbs it.
				t1 := s.exec.now()
				if s.cfg.App.ApplyForwarded(s.env, actor.ID, target, fw.Payload) == nil {
					target.Seq++
				}
				br.Add(monitor.UA, s.exec.since(t1), 0)
			} else {
				s.forward(target.Owner, actor.ID, fw)
			}
		}
	}

	// --- Step 2b: apply forwarded inputs ---
	for _, fw := range forwards {
		target, ok := s.store.Get(fw.Target)
		if !ok {
			continue
		}
		if target.Owner != s.ID() {
			// The target migrated since the sender forwarded: re-forward
			// to the current owner.
			s.send(target.Owner, fw)
			continue
		}
		t0 := s.exec.now()
		if s.cfg.App.ApplyForwarded(s.env, fw.Actor, target, fw.Payload) == nil {
			target.Seq++
		}
		br.Add(monitor.FA, s.exec.since(t0), 1)
	}
	s.inputsBuf, s.fwdBuf = inputs[:0], forwards[:0]
	if cost != nil {
		cost.EndStage(telemetry.CostStageApply)
	}

	// --- Step 2c: update NPCs (simulate stage) ---
	npcs := s.store.ActiveInto(s.npcActive[:0], s.ID(), int(entity.NPC))
	s.npcActive = npcs
	if cs, ok := s.cfg.App.(ConcurrentSimulator); ok && cs.ConcurrentNPCUpdates() {
		// Capability-declared applications run two-phase on every worker
		// count: compute all updates into indexed slots (parallel), then
		// apply the returned forwards sequentially in slice order — so the
		// sequential and parallel executions are identical by construction.
		if cap(s.npcBuf) < len(npcs) {
			s.npcBuf = make([]npcResult, len(npcs))
		}
		results := s.npcBuf[:len(npcs)]
		clear(results)
		//roialint:ignore lockhold the pool's wake channels are buffered and drained by the previous run's wg.Wait, so the send never blocks; workers never take s.mu
		s.exec.run(len(npcs), s.npcFn)
		for i, npc := range npcs {
			t0 := s.exec.now()
			s.applyNPCForwards(npc, results[i].fwds)
			br.Add(monitor.NPC, results[i].ms+s.exec.since(t0), 1)
			npc.Seq++
		}
	} else {
		// Default path, bit-identical to the seed loop: applications whose
		// UpdateNPC draws from the shared env.Rand (internal/game does, for
		// movement) depend on NPCs updating in order, so they stay inline on
		// the tick goroutine regardless of Parallelism.
		for _, npc := range npcs {
			t0 := s.exec.now()
			fwds := s.cfg.App.UpdateNPC(s.env, npc)
			s.applyNPCForwards(npc, fwds)
			br.Add(monitor.NPC, s.exec.since(t0), 1)
			npc.Seq++
		}
	}
	if cost != nil {
		cost.EndStage(telemetry.CostStageSimulate)
	}

	// --- Idle eviction: drop users whose clients went silent ---
	if s.cfg.IdleTimeoutTicks > 0 {
		for _, uid := range s.sortedUserIDs() {
			u := s.users[uid]
			if s.tick-u.lastInput > s.cfg.IdleTimeoutTicks {
				if id, ok := s.removeUser(uid); ok {
					removed = append(removed, id)
				}
			}
		}
	}

	// --- Zone handoffs (zoning distribution) ---
	if s.cfg.World != nil {
		s.processZoneTransfers(&br, &removed)
	}

	// --- Migrations ordered by the resource manager ---
	s.processMigrationOrders(&br)

	// --- Step 3a: state updates to connected users (publish stage) ---
	//
	// Publishing fans out per user: AoI query, visible-set diffing and wire
	// serialization are independent across users once the world state is
	// frozen. The stage runs against an immutable store snapshot so workers
	// never touch live entities; each worker encodes into its own writer and
	// copies the payload into the user's slot. Application callbacks
	// (DrainEvents) stay on the tick goroutine per the Application contract,
	// and the actual sends happen in the sequential merge in sorted-user
	// order — so the wire output is byte-identical to the sequential loop.
	// Every buffer in the stage (snapshot arenas, AoI index, per-user
	// visible sets, delta scratch, payload slots, the outbox) is reused
	// across ticks: the steady-state publish path allocates nothing.
	snap := s.store.Snapshot()
	s.pubSnap = snap
	world := snap.All()
	s.pubWorld = world
	s.cfg.AOI.Build(world)
	uids := s.sortedUserIDs()
	if cap(s.pubItems) < len(uids) {
		grown := make([]pubItem, len(uids))
		copy(grown, s.pubItems[:cap(s.pubItems)])
		s.pubItems = grown
	}
	items := s.pubItems[:len(uids)]
	s.pubItems = items
	for i, uid := range uids {
		it := &items[i]
		u := s.users[uid]
		av, mask, ok := snap.Lookup(u.avatar)
		if !ok {
			it.ok = false
			continue
		}
		it.uid, it.u, it.av, it.avMask, it.ok = uid, u, av, mask, true
		it.events = s.cfg.App.DrainEvents(s.env, av.ID)
		it.payload = it.payload[:0]
		it.entered, it.left = 0, 0
	}
	//roialint:ignore lockhold the pool's wake channels are buffered and drained by the previous run's wg.Wait, so the send never blocks; workers never take s.mu
	s.exec.run(len(items), s.publishFn)
	for i := range items {
		it := &items[i]
		if !it.ok {
			continue
		}
		br.Add(monitor.AOI, it.aoiMS, 1)
		// Staging copies the payload into the outbox arena — per-byte work
		// that is part of serializing the user's state update, so it counts
		// toward t_su alongside the encoding measured in publishItem.
		t0 := s.exec.now()
		s.sendRaw(it.uid, it.payload)
		br.Add(monitor.SU, it.suMS+s.exec.since(t0), 1)
		if cost != nil {
			cost.ObserveChurn(it.entered, it.left)
		}
	}

	// --- Step 3b: shadow updates to peer replicas ---
	peers := s.cfg.Assignment.PeersInto(s.peersBuf[:0], s.cfg.Zone, s.ID())
	s.peersBuf = peers
	if len(peers) > 0 {
		actives := s.store.ActiveInto(s.npcActive[:0], s.ID(), -1)
		s.npcActive = actives[:0]
		su := &s.suOut
		su.Tick, su.Removed, su.Entities = s.tick, removed, su.Entities[:0]
		for _, e := range actives {
			su.Entities = append(su.Entities, *e)
		}
		// Entities handed off this tick ride along once more so the new
		// owner learns of the transfer.
		for _, id := range s.handoffs {
			if e, ok := s.store.Get(id); ok {
				su.Entities = append(su.Entities, *e)
			}
		}
		for _, p := range peers {
			s.send(p, su)
		}
	}
	s.handoffs = s.handoffs[:0]
	s.removedBuf = removed[:0]
	// Flush the tick's staged frames — one batched (vectored, on capable
	// transports) write per destination — inside the publish stage window
	// so its resource cost stays attributed to publishing. The wall time is
	// egress work proportional to the staged bytes; it folds into the t_su
	// bucket (time only — the per-user items were counted above), keeping
	// the fitted per-user t_su sensitive to how much each update weighs.
	tFlush := s.exec.now()
	s.ob.flush(s.cfg.Node)
	br.Add(monitor.SU, s.exec.since(tFlush), 0)
	if cost != nil {
		cost.EndStage(telemetry.CostStagePublish)
	}

	// --- Bookkeeping ---
	br.Users = s.zoneUsersLocked()
	br.ActiveUsers = len(s.users)
	for _, e := range s.store.All() {
		if e.Kind == entity.NPC {
			br.NPCs++
		}
	}
	br.Replicas = s.cfg.Assignment.ReplicaCount(s.cfg.Zone)
	br.BytesOut = s.tickBytesOut
	// TimeMS sums CPU time across workers; WallMS is the elapsed tick time.
	// With Parallelism > 1 the two diverge, and their ratio is the live
	// speedup reported by Monitor.MeanTickCPU / mean wall.
	br.WallMS = s.exec.since(tickStart)
	s.mon.RecordTick(br)
	var tickCost telemetry.TickCost
	if cost != nil {
		tickCost = cost.EndTick()
	}
	if s.cfg.Profiler != nil {
		dur, items := br.PhaseBreakdown()
		s.cfg.Profiler.RecordTick(dur, items)
	}
	if s.cfg.Tracer != nil || s.cfg.FlightRec != nil {
		rec := s.tickRecord(tickStart, &br, len(frames), tickCost)
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Record(rec)
		}
		if s.cfg.FlightRec != nil {
			s.cfg.FlightRec.Record(rec)
		}
	}
}

// tickRecord converts the tick's Breakdown into the one telemetry.TickRecord
// every per-tick observer (Tracer, FlightRecorder) reads. It reuses the
// Breakdown already timed for the Monitor, so recording adds no clock reads
// to the hot loop. Tasks holds one span per task that did work, laid out
// sequentially in loop order so the spans sum exactly to the breakdown
// total; the slice is sized to exactly those tasks, because the Tracer ring
// retains it for thousands of ticks. The tick's resource cost rides along
// (zero without a CostTracker), so a capture can classify GC-caused spikes.
func (s *Server) tickRecord(start time.Time, br *monitor.Breakdown, queueDepth int, tc telemetry.TickCost) telemetry.TickRecord {
	worked := 0
	for t := range br.TimeMS {
		if br.TimeMS[t] != 0 || br.Items[t] != 0 {
			worked++
		}
	}
	tasks := make([]telemetry.Span, 0, worked)
	offset := 0.0
	for _, t := range monitor.Tasks() {
		dur := br.TimeMS[t]
		items := br.Items[t]
		if dur == 0 && items == 0 {
			continue
		}
		tasks = append(tasks, telemetry.Span{Name: t.String(), StartMS: offset, DurMS: dur, Items: items})
		offset += dur
	}
	deadline := s.mon.DeadlineMS()
	rec := telemetry.TickRecord{
		Tick:           s.tick,
		StartUnixMicro: start.UnixMicro(),
		WallMS:         br.WallMS,
		CPUMS:          br.Total(),
		DeadlineMS:     deadline,
		Users:          br.Users,
		ActiveUsers:    br.ActiveUsers,
		NPCs:           br.NPCs,
		Replicas:       br.Replicas,
		Workers:        s.exec.workers,
		QueueDepth:     queueDepth,
		BytesIn:        br.BytesIn,
		BytesOut:       br.BytesOut,
		GCPauseMS:      tc.GCPauseMS,
		GCCycles:       tc.GCCycles,
		AllocBytes:     tc.AllocBytes,
		AllocObjects:   tc.AllocObjects,
		Tasks:          tasks,
	}
	if deadline > 0 {
		rec.SlackMS = deadline - br.WallMS
	}
	return rec
}

// decodeItem is the decode-stage body (executor slot discipline: frame i
// in, decBuf slot i out). Deserialization is side-effect-free, so it runs
// on any worker, through the worker's own reader into the slot's own
// shells; the apply stage merges the slot accounting in frame order.
func (s *Server) decodeItem(i int, ctx *workerCtx) {
	f := s.frameBuf[i]
	if len(f.Payload) < 2 {
		return
	}
	d := &s.decBuf[i]
	var shell wire.Message
	kind := wire.Kind(binary.BigEndian.Uint16(f.Payload))
	switch kind {
	case proto.KindInput:
		shell = &d.in
	case proto.KindForwarded:
		shell = &d.fwd
	case proto.KindShadowUpdate:
		shell = d.su
	default:
		return
	}
	t0 := s.exec.now()
	d.ok = proto.Registry.DecodeInto(&ctx.r, f.Payload, shell) == nil
	d.ms = s.exec.since(t0)
	switch {
	case kind != proto.KindShadowUpdate:
		d.items = 1
	case d.ok:
		d.items = len(d.su.Entities)
	}
}

// npcItem is the two-phase NPC compute body under the ConcurrentSimulator
// capability: UpdateNPC for active NPC i into result slot i; the forwards
// are applied sequentially afterwards.
func (s *Server) npcItem(i int, _ *workerCtx) {
	t0 := s.exec.now()
	s.npcBuf[i].fwds = s.cfg.App.UpdateNPC(s.env, s.npcActive[i])
	s.npcBuf[i].ms = s.exec.since(t0)
}

// publishItem is the publish-stage body for user slot i: AoI query, diff
// against the user's previously published visible set, and wire encoding
// into the slot's payload buffer. It reads the tick's immutable snapshot
// (never the live store) and writes only slot i, the passed workerCtx and
// the one user's publish bookkeeping (prevVis/lastPub/nextKey), so the
// stage may fan out across workers.
//
// The user gets a StateDelta when its delta chain is intact (published
// last tick, no keyframe due) and a StateKeyframe otherwise; without
// DeltaUpdates a keyframe is due every tick. Both encodings consume only
// reused scratch.
func (s *Server) publishItem(i int, ctx *workerCtx) {
	it := &s.pubItems[i]
	if !it.ok {
		return
	}
	snap := s.pubSnap
	t0 := s.exec.now()
	ctx.vis = s.cfg.AOI.Visible(ctx.vis[:0], it.av.ID, it.av.Pos, s.pubWorld)
	// The visible-set diff below merge-walks sorted sets. Euclid emits in
	// ID order already; grid managers emit in cell order, so sort. (For
	// keyframes this also fixes the wire order, keeping output
	// byte-identical across AoI managers' bucketing choices.)
	slices.Sort(ctx.vis)
	it.aoiMS = s.exec.since(t0)

	t1 := s.exec.now()
	u := it.u
	deltaOK := u.lastPub == s.tick-1 && u.lastPub != 0 && s.tick < u.nextKey
	wantDiff := s.cfg.DeltaUpdates || s.cfg.Cost != nil
	if wantDiff {
		ctx.enters, ctx.gone = ctx.enters[:0], ctx.gone[:0]
		ctx.enters, ctx.gone = aoi.Diff(u.prevVis, ctx.vis, ctx.enters, ctx.gone)
		it.entered, it.left = len(ctx.enters), len(ctx.gone)
	}
	if deltaOK {
		// StateDelta: masked field changes for entities that stayed
		// visible, full records for entrants, IDs for leavers. The
		// entity-level change masks come from the snapshot diff; an
		// unchanged entity costs nothing on the wire.
		upd := &ctx.delta
		upd.Tick, upd.BaseTick, upd.AckSeq = s.tick, u.lastPub, u.seq
		upd.SelfMask, upd.Self = it.avMask, *it.av
		upd.Gone, upd.Events = ctx.gone, it.events
		ctx.updates = ctx.updates[:0]
		ctx.ents = ctx.ents[:0]
		e := 0 // walks ctx.enters (ascending, a subset of ctx.vis)
		for _, id := range ctx.vis {
			if e < len(ctx.enters) && ctx.enters[e] == id {
				e++
				if ent, ok := snap.Get(id); ok {
					ctx.ents = append(ctx.ents, *ent)
				}
				continue
			}
			ent, mask, ok := snap.Lookup(id)
			if !ok || mask == 0 {
				continue
			}
			ctx.updates = append(ctx.updates, proto.EntityDelta{ID: id, Mask: mask, State: *ent})
		}
		upd.Updates = ctx.updates
		upd.Enters = ctx.ents
		it.payload = append(it.payload, proto.Registry.Encode(ctx.w, upd)...)
	} else {
		// StateKeyframe: full refresh; the client replaces its world
		// wholesale, re-anchoring the delta chain. u.seq is the last input
		// sequence applied for this user; echoing it lets the client close
		// the input→update response-time loop.
		upd := &ctx.keyframe
		upd.Tick, upd.AckSeq, upd.Self, upd.Events = s.tick, u.seq, *it.av, it.events
		ctx.ents = ctx.ents[:0]
		for _, id := range ctx.vis {
			if ent, ok := snap.Get(id); ok {
				ctx.ents = append(ctx.ents, *ent)
			}
		}
		upd.Visible = ctx.ents
		it.payload = append(it.payload, proto.Registry.Encode(ctx.w, upd)...)
		u.nextKey = s.tick + s.keyframeTicks
	}
	u.prevVis = append(u.prevVis[:0], ctx.vis...)
	u.lastPub = s.tick
	it.suMS = s.exec.since(t1)
}

// sortedUserIDs returns connected user IDs in deterministic order. The
// backing buffer is reused across calls (tick goroutine only); callers
// must finish iterating before the next call.
func (s *Server) sortedUserIDs() []string {
	ids := s.uidBuf[:0]
	for id := range s.users {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s.uidBuf = ids
	return ids
}

// applyNPCForwards routes the forwards produced by one NPC update: local
// targets are applied directly (their cost stays inside the NPC's t_npc
// window), remote targets are forwarded to their owning replica.
func (s *Server) applyNPCForwards(npc *entity.Entity, fwds []Forward) {
	for _, fw := range fwds {
		target, ok := s.store.Get(fw.Target)
		if !ok {
			continue
		}
		if target.Owner == s.ID() {
			if s.cfg.App.ApplyForwarded(s.env, npc.ID, target, fw.Payload) == nil {
				target.Seq++
			}
		} else {
			s.forward(target.Owner, npc.ID, fw)
		}
	}
}

// handleJoin admits a new user: spawn an avatar, register the connection,
// acknowledge. A draining server no longer admits anyone, but it must not
// drop the join on the floor either — the client is waiting on a reply. If
// the zone has peer replicas the join is answered with a MigrateNotice
// redirecting the client to one of them (lowest ID, for determinism);
// otherwise with an explicit JoinNack so the client can surface the
// rejection instead of hanging.
func (s *Server) handleJoin(from string, j *proto.Join) {
	if s.draining {
		peers := s.cfg.Assignment.Peers(s.cfg.Zone, s.ID())
		if len(peers) > 0 {
			slices.Sort(peers)
			s.send(from, &proto.MigrateNotice{NewServer: peers[0]})
		} else {
			s.send(from, &proto.JoinNack{Reason: "draining"})
		}
		return
	}
	if _, dup := s.users[from]; dup {
		return
	}
	id := s.allocIDLocked()
	av := s.cfg.App.SpawnAvatar(s.env, id, j.Pos, uint32(s.cfg.Zone))
	av.ID = id
	av.Kind = entity.Avatar
	av.Zone = uint32(s.cfg.Zone)
	av.Owner = s.ID()
	if av.Seq == 0 {
		av.Seq = 1
	}
	s.store.Put(av)
	s.users[from] = &user{id: from, avatar: id, lastInput: s.tick}
	s.send(from, &proto.JoinAck{Entity: id, Tick: s.tick})
}

// removeUser disconnects a user and deletes its avatar, returning the
// avatar ID for removal propagation.
func (s *Server) removeUser(uid string) (entity.ID, bool) {
	u, ok := s.users[uid]
	if !ok {
		return 0, false
	}
	s.forgetUser(uid)
	s.store.Remove(u.avatar)
	return u.avatar, true
}

// forgetUser drops a user's connection-scoped state: the users-map entry
// and, when cost tracking is on, its per-client egress counter. Every path
// that disconnects a user (leave, idle eviction, zone handoff, migration)
// must go through here so the CostTracker's per-client map stays bounded by
// the live connection count.
func (s *Server) forgetUser(uid string) {
	delete(s.users, uid)
	if s.cfg.Cost != nil {
		s.cfg.Cost.EvictClient(uid)
	}
}

// receiveMigration installs a user handed off by a peer replica.
func (s *Server) receiveMigration(mi *proto.MigrateInit) {
	av := mi.Avatar
	av.Owner = s.ID()
	av.Seq++
	if cur, ok := s.store.Get(av.ID); ok {
		*cur = av
	} else {
		s.store.Put(av.Clone())
	}
	s.users[mi.User] = &user{id: mi.User, avatar: av.ID, lastInput: s.tick}
	s.cfg.App.ApplyUserState(s.env, av.ID, mi.AppState)
	s.send(mi.Avatar.Owner, &proto.MigrateAck{MigID: mi.MigID, User: mi.User, Avatar: av.ID})
}

// recordMigEvent stamps and stores one migration-phase observation in the
// server's migration tracer (no-op when tracing is off).
func (s *Server) recordMigEvent(e telemetry.MigEvent, durMS float64) {
	if s.cfg.MigTrace == nil {
		return
	}
	e.Tick = s.tick
	e.UnixMicro = s.exec.now().UnixMicro()
	e.DurMS = durMS
	s.cfg.MigTrace.Record(e)
}

// processZoneTransfers hands off users whose avatars moved into another
// zone of the world: the avatar state migrates to a replica of the
// destination zone (removal propagates to this zone's peers), and the
// client is re-pointed at its new server. Zone transfers reuse the
// user-migration machinery, so their overhead lands in t_mig_ini like any
// other migration.
func (s *Server) processZoneTransfers(br *monitor.Breakdown, removed *[]entity.ID) {
	for _, uid := range s.sortedUserIDs() {
		u := s.users[uid]
		av, ok := s.store.Get(u.avatar)
		if !ok {
			continue
		}
		dest, ok := s.cfg.World.Locate(av.Pos)
		if !ok || dest.ID == s.cfg.Zone {
			continue
		}
		targets := s.cfg.Assignment.Replicas(dest.ID)
		if len(targets) == 0 {
			// The destination zone is unstaffed; keep serving the user
			// here rather than dropping the session.
			continue
		}
		target := targets[0]
		t0 := s.exec.now()
		handoff := *av
		handoff.Zone = uint32(dest.ID)
		mi := &proto.MigrateInit{
			MigID:    s.allocMigIDLocked(),
			User:     uid,
			Avatar:   handoff,
			AppState: s.cfg.App.EncodeUserState(s.env, av.ID),
		}
		s.send(target, mi)
		dur := s.exec.since(t0)
		br.Add(monitor.MigIni, dur, 1)
		s.recordMigEvent(telemetry.MigEvent{
			ID: mi.MigID, Phase: telemetry.MigPhaseInit,
			User: uid, From: s.ID(), To: target,
		}, dur)
		if s.cfg.Events != nil {
			s.cfg.Events.FleetEvent(telemetry.FleetEvent{
				UnixMicro: s.exec.now().UnixMicro(),
				Kind:      telemetry.FleetEventZoneHandoff,
				Zone:      uint32(s.cfg.Zone),
				Replica:   s.ID(),
				Detail:    s.handoffDetail(uid, dest.ID, target),
			})
		}

		s.send(uid, &proto.MigrateNotice{NewServer: target})
		s.forgetUser(uid)
		s.store.Remove(av.ID)
		*removed = append(*removed, av.ID)
	}
}

// handoffDetail renders "user <uid> → zone <id> (<target>)" into the
// server's reused scratch buffer: it runs once per zone handoff on the
// tick path, where fmt's formatting machinery (boxing plus verb parsing)
// is avoidable cost. Only the final string conversion allocates.
func (s *Server) handoffDetail(uid string, dest zone.ID, target string) string {
	b := s.detailBuf[:0]
	b = append(b, "user "...)
	b = append(b, uid...)
	b = append(b, " → zone "...)
	b = strconv.AppendUint(b, uint64(dest), 10)
	b = append(b, " ("...)
	b = append(b, target...)
	b = append(b, ')')
	s.detailBuf = b
	return string(b)
}

// processMigrationOrders executes the pending migration orders, handing
// off users to target replicas. Each handoff serializes the user's avatar
// and application state (t_mig_ini), transfers responsibility, and points
// the client at its new server.
func (s *Server) processMigrationOrders(br *monitor.Breakdown) {
	if len(s.orders) == 0 {
		return
	}
	orders := s.orders
	s.orders = nil
	uids := s.sortedUserIDs()
	next := 0
	for _, ord := range orders {
		if !s.cfg.Assignment.IsReplica(s.cfg.Zone, ord.target) {
			continue // target disappeared (e.g. removed by the RMS)
		}
		for moved := 0; moved < ord.count && next < len(uids); next++ {
			uid := uids[next]
			u, ok := s.users[uid]
			if !ok {
				continue
			}
			av, ok := s.store.Get(u.avatar)
			if !ok {
				s.forgetUser(uid)
				continue
			}
			t0 := s.exec.now()
			appState := s.cfg.App.EncodeUserState(s.env, av.ID)
			mi := &proto.MigrateInit{MigID: s.allocMigIDLocked(), User: uid, Avatar: *av, AppState: appState}
			s.send(ord.target, mi)
			dur := s.exec.since(t0)
			br.Add(monitor.MigIni, dur, 1)
			s.recordMigEvent(telemetry.MigEvent{
				ID: mi.MigID, Phase: telemetry.MigPhaseInit,
				User: uid, From: s.ID(), To: ord.target,
			}, dur)

			// Optimistic ownership handoff: the target assumes control on
			// receipt; locally the entity becomes a shadow.
			av.Owner = ord.target
			s.forgetUser(uid)
			s.send(uid, &proto.MigrateNotice{NewServer: ord.target})
			moved++
		}
	}
}
