package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A traced repetition times the calls into each module from here, outside the
// program. What the program does inside core.Monitor.Update cannot be seen
// from outside, so its parts are measured by making the same calls again on
// stand-alone mirrors (a gridindex.Grid holding the same queries, an
// rtree.Tree holding the same rectangles) right after the window closes. A
// replayed call runs on warmer caches than the original and pays a clock read
// of its own, so self times are approximate; the span file marks replayed
// spans as such.

// layer names one timed call site. Metric names derive from these.
type layer int

const (
	lUpdate layer = iota
	lAffected
	lRangeBatch
	lTreeUpdate
	lTreeSearch
	lTreeInsert
	lGridInsertRemove
	lAddObject
	lRegisterRange
	lRegisterKNN
	lDeregister
	lPlan
	lApplyPlanned
	lPipeApply
	lManualBatch
	lSendUpdate
	lRecvUpdate
	lSendRegion
	lRecvRegion
	lJournalAppend
	lRemoteAck
	lRegisterRTT
	numLayers
)

var layerNames = [numLayers]string{
	"core.update", "gridindex.affected", "saferegion.range_batch", "rtree.update", "rtree.search",
	"rtree.insert", "gridindex.insert_remove", "core.add_object", "core.register_range",
	"core.register_knn", "core.deregister", "core.plan", "core.apply_planned", "parallel.apply",
	"batch.manual", "wire.send_update", "wire.recv_update", "wire.send_region", "wire.recv_region",
	"core.journal_append", "remote.ack", "remote.register_rtt",
}

// span is one recorded call. Replayed spans are laid out inside their parent
// from its start, in call order.
type span struct {
	id, parent int32
	op         uint64
	layer      layer
	start, end int64 // ns since the tracer was made
	replayed   bool
}

// maxSpans bounds the span file; aggregates always cover every call.
const maxSpans = 200_000

// spanStride records the spans of every so-many-th operation.
const spanStride = 16

// opRecord is one update of the window being traced, kept for the replay.
type opRecord struct {
	id       uint64
	from, to Point
	start    int64 // ns since base
	dur      int64
	treeNs   int64 // replayed index writes caused by this update
	parent   int32 // span of an enclosing batch, 0 for none
}

type pendingGrant struct {
	g  Grant
	p  Point
	op int32 // index into recs, -1 outside an update
}

type tracer struct {
	p       params
	reps    []*repResult
	mirrors *Mirrors
	base    time.Time

	ns, calls [numLayers]int64

	affectedEmpty, obstacles int64
	treeFast0, treeSlow0     int // the tree mirror's counters when the window opened
	treeFast, treeSlow       int64
	updates                  int64 // replayed over traced timed windows

	frameBytes           [2]int64 // update, region
	frameAllocs          uint64
	mirrorAllocs         uint64
	journalBytes         int64
	recoverSec           float64
	recoverEntries       int64
	snapshotMs           float64
	snapshotBytes        int64
	serverProbes         int64
	stackOverheadNs      int64
	wireGrants           int64
	mirrorStats0         MonitorStats
	serverStats0         MonitorStats
	wireStarts, wireDurs []int64
	codec                *CodecLoop
	jw                   *JournalWriter
	jfile                *os.File

	clamped, spansDropped int64
	ops                   uint64
	spans                 []span
	recs                  []opRecord
	pending               []pendingGrant
	curOp                 int32
	dirty                 []uint64
	byHand                bool // the batch just applied went through applyByHand
}

func newTracer(p params) *tracer {
	return &tracer{p: p, base: now(), spans: make([]span, 0, maxSpans), curOp: -1}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

func (t *tracer) add(l layer, ns int64) {
	t.ns[l] += ns
	t.calls[l]++
}

// sampled reports whether the current operation's spans go to the file.
func (t *tracer) sampled() bool { return t.ops%spanStride == 0 }

func (t *tracer) emit(l layer, parent int32, start, end int64, replayed bool) int32 {
	if len(t.spans) >= maxSpans {
		t.spansDropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, op: t.ops, layer: l, start: start, end: end, replayed: replayed})
	return id
}

// kid is one replayed child call of a span.
type kid struct {
	l  layer
	ns int64
}

// children lays replayed child spans out inside [start, end] in order,
// clamping what would stick out.
func (t *tracer) children(parent int32, start, end int64, kids ...kid) {
	at := start
	for _, k := range kids {
		if k.ns <= 0 {
			continue
		}
		stop := at + k.ns
		if stop > end {
			stop = end
			t.clamped++
		}
		t.emit(k.l, parent, at, stop, true)
		at = stop
	}
}

// attach binds the tracer to a repetition's fresh monitor.
func (t *tracer) attach(mon *Monitor) {
	t.mirrors = newMirrors(mon)
	t.treeFast0, t.treeSlow0 = 0, 0
	t.recs, t.pending, t.dirty = t.recs[:0], t.pending[:0], t.dirty[:0]
}

func (t *tracer) noteDirty(qid uint64) { t.dirty = append(t.dirty, qid) }

func (t *tracer) noteGrant(g *Grant, p Point) {
	t.pending = append(t.pending, pendingGrant{g: *g, p: p, op: t.curOp})
}

// settle applies, untimed, the index writes of grants handed out outside a
// traced window (registrations, sweeps), so the tree mirror stays in step.
func (t *tracer) settle() {
	for _, pg := range t.pending {
		t.mirrors.TreeUpdate(pg.g.Object, pg.p, pg.g.Region)
	}
	t.pending = t.pending[:0]
	for _, qid := range t.dirty {
		t.mirrors.SyncQuery(qid)
	}
	t.dirty = t.dirty[:0]
}

// addObjects is the traced set-up loop: every AddObject is timed, and so is
// the insert it causes in the tree mirror.
func (t *tracer) addObjects(w *world) {
	for i, p := range w.pos {
		id := uint64(i)
		t0 := now()
		grants := w.mon.AddObject(id, p)
		t.add(lAddObject, now().Sub(t0).Nanoseconds())
		t1 := now()
		t.mirrors.TreeInsert(id, p)
		t.add(lTreeInsert, now().Sub(t1).Nanoseconds())
		w.deliver(grants)
		t.settle()
	}
}

// registered times what a registration does to the two indexes: the search
// that finds candidates and the insert into the grid.
func (t *tracer) registered(q QuerySpec, ns int64) {
	l := lRegisterRange
	if q.Kind == KindKNN {
		l = lRegisterKNN
	}
	t.add(l, ns)
	t0 := now()
	switch q.Kind {
	case KindRange, KindCount:
		t.mirrors.TreeSearch(q.Rect)
	case KindCircle:
		t.mirrors.TreeSearch(Rect{MinX: q.Center.X - q.Radius, MinY: q.Center.Y - q.Radius, MaxX: q.Center.X + q.Radius, MaxY: q.Center.Y + q.Radius})
	case KindKNN:
		t.mirrors.TreeNearest(q.Center, q.K)
	}
	search := now().Sub(t0).Nanoseconds()
	t.add(lTreeSearch, search)
	t1 := now()
	t.mirrors.InsertQuery(q.ID)
	t.add(lGridInsertRemove, now().Sub(t1).Nanoseconds())
	t.settle()
}

func (t *tracer) deregistering(id uint64) {
	t0 := now()
	t.mirrors.RemoveQuery(id)
	t.add(lGridInsertRemove, now().Sub(t0).Nanoseconds())
}

func (t *tracer) deregistered(ns int64) { t.add(lDeregister, ns) }

// update is the traced Monitor.Update: the call is timed and remembered for
// the replay.
func (t *tracer) update(mon *Monitor, id uint64, p Point) []Grant {
	from, _ := mon.LastReported(id)
	t0 := now()
	grants := mon.Update(id, p)
	d := now().Sub(t0).Nanoseconds()
	t.add(lUpdate, d)
	t.curOp = int32(len(t.recs))
	t.recs = append(t.recs, opRecord{id: id, from: from, to: p, start: t.since(t0), dur: d})
	return grants
}

// applyBatch is the traced batch path. Batches alternate between the real
// Pipeline.Apply, timed as one call, and the same plan/apply sequence made by
// hand so that PlanUpdate and ApplyPlanned can be timed on their own; by the
// pipeline's determinism contract the two leave the monitor in the same state.
// Either way the batch's grants are charged to its first update in the replay.
func (t *tracer) applyBatch(mon *Monitor, pipe *Pipeline, batch []BatchUpdate) []Grant {
	t.ops++
	t.curOp = int32(len(t.recs))
	t.byHand = !t.byHand
	if t.byHand {
		return t.applyByHand(mon, batch)
	}
	for _, u := range batch {
		from, _ := mon.LastReported(u.ID)
		t.recs = append(t.recs, opRecord{id: u.ID, from: from, to: u.Loc})
	}
	t0 := now()
	grants := pipe.Apply(batch)
	d := now().Sub(t0).Nanoseconds()
	t.ns[lPipeApply] += d
	t.calls[lPipeApply] += int64(len(batch)) // per update, not per batch
	if t.sampled() {
		t.emit(lPipeApply, 0, t.since(t0), t.since(t0)+d, false)
	}
	return grants
}

// applyByHand does what Pipeline.Apply does with one worker: plan every entry,
// then, in ascending ID order (the order fillBatch gathers in), apply the plan
// if it still holds and fall back to Update if not.
func (t *tracer) applyByHand(mon *Monitor, batch []BatchUpdate) []Grant {
	type slot struct {
		from    Point
		plan    Planned
		planned bool
	}
	slots := make([]slot, len(batch))
	var parent int32
	if t.sampled() {
		parent = t.emit(lManualBatch, 0, t.since(now()), 0, false)
	}
	for i, u := range batch {
		sl := &slots[i]
		sl.from, _ = mon.LastReported(u.ID)
		t0 := now()
		sl.plan, sl.planned = mon.Plan(u.ID, u.Loc)
		t.timed(lPlan, parent, t0)
	}
	var out []Grant
	for i, u := range batch {
		sl := &slots[i]
		t0 := now()
		if sl.planned {
			if grants, ok := mon.ApplyPlanned(&sl.plan); ok {
				t.timed(lApplyPlanned, parent, t0)
				t.recs = append(t.recs, opRecord{id: u.ID, from: sl.from, to: u.Loc})
				out = append(out, grants...)
				continue
			}
		}
		grants := mon.Update(u.ID, u.Loc)
		d := now().Sub(t0).Nanoseconds()
		t.add(lUpdate, d)
		t.recs = append(t.recs, opRecord{id: u.ID, from: sl.from, to: u.Loc, start: t.since(t0), dur: d, parent: parent})
		out = append(out, grants...)
	}
	if parent != 0 {
		t.spans[parent-1].end = t.since(now())
	}
	return out
}

// timed closes a call that began at t0: its time goes to the layer and, under
// a sampled parent, to the span file.
func (t *tracer) timed(l layer, parent int32, t0 time.Time) {
	d := now().Sub(t0).Nanoseconds()
	t.add(l, d)
	if parent != 0 {
		t.emit(l, parent, t.since(t0), t.since(t0)+d, false)
	}
}

// replay makes the window's calls again on the mirrors, layer by layer.
func (t *tracer) replay(timed bool) {
	for _, qid := range t.dirty {
		t.mirrors.SyncQuery(qid)
	}
	t.dirty = t.dirty[:0]
	for i := range t.pending {
		pg := &t.pending[i]
		t0 := now()
		t.mirrors.TreeUpdate(pg.g.Object, pg.p, pg.g.Region)
		d := now().Sub(t0).Nanoseconds()
		if timed {
			t.add(lTreeUpdate, d)
		}
		if pg.op >= 0 && int(pg.op) < len(t.recs) {
			t.recs[pg.op].treeNs += d
		}
	}
	t.pending = t.pending[:0]
	for i := range t.recs {
		r := &t.recs[i]
		t0 := now()
		n := t.mirrors.Affected(r.from, r.to)
		affected := now().Sub(t0).Nanoseconds()
		t.mirrors.SyncAffected()
		var batch int64
		if k := t.mirrors.Obstacles(r.to); k > 0 {
			t1 := now()
			t.mirrors.RangeBatch(r.to)
			batch = now().Sub(t1).Nanoseconds()
			if timed {
				t.add(lRangeBatch, batch)
				t.obstacles += int64(k)
			}
		}
		if timed {
			t.add(lAffected, affected)
			if n == 0 {
				t.affectedEmpty++
			}
		}
		if r.dur > 0 {
			t.ops++
			if t.sampled() {
				id := t.emit(lUpdate, r.parent, r.start, r.start+r.dur, false)
				if id != 0 {
					t.children(id, r.start, r.start+r.dur,
						kid{lAffected, affected}, kid{lRangeBatch, batch}, kid{lTreeUpdate, r.treeNs})
				}
			}
		}
	}
	if timed {
		t.updates += int64(len(t.recs))
	}
	t.recs = t.recs[:0]
	t.curOp = -1
	fast, slow := t.mirrors.TreeFastUpdates()
	if timed {
		t.treeFast += int64(fast - t.treeFast0)
		t.treeSlow += int64(slow - t.treeSlow0)
	}
	t.treeFast0, t.treeSlow0 = fast, slow
}

// --- wire-ack -------------------------------------------------------------------

// wireSetup prepares a traced wire-ack repetition: the mirrors are filled
// from the monitor the journal was written from, and a second journal, on
// disk beside the server's, takes the replayed appends.
func (t *tracer) wireSetup(w *wireWorld) error {
	t.mirrors.LoadObjects()
	t.codec = newCodecLoop()
	f, err := os.Create(w.journalPath())
	if err != nil {
		return err
	}
	t.jfile = f
	t.jw = newJournalWriter(f)
	w.journal = t.jw
	t.recoverSec += w.recoverS
	t.recoverEntries += int64(w.srv.Entries)
	t.wireGrants = 0
	t.mirrorStats0 = w.mirror.Stats()
	t.serverStats0, err = w.srv.Stats()
	return err
}

// noteAck remembers one live ack for the block's replay.
func (t *tracer) noteAck(start time.Time, dur int64) {
	t.wireStarts = append(t.wireStarts, t.since(start))
	t.wireDurs = append(t.wireDurs, dur)
}

// wireBlock replays one block of acks on this side of the wire: the update on
// the mirror monitor, the two frames through a codec, the journal append.
func (t *tracer) wireBlock(w *wireWorld, pts []Point) {
	if len(t.wireStarts) != len(pts) {
		// An ack of this block failed, and the run with it; the mirror has
		// nothing sound to replay.
		t.wireStarts, t.wireDurs = t.wireStarts[:0], t.wireDurs[:0]
		return
	}
	id := w.clientID
	// timeCall makes one replayed call, charges its time to the layer and
	// counts an error as a failed operation.
	timeCall := func(l layer, call func() error) int64 {
		t0 := now()
		err := call()
		d := now().Sub(t0).Nanoseconds()
		if err != nil {
			w.res.failed++
		}
		t.add(l, d)
		return d
	}
	type replayed struct {
		region                                      Rect
		update, journal, sendU, recvU, sendR, recvR int64
	}
	acks := make([]replayed, len(pts))
	m0 := mallocs()
	for i, p := range pts {
		a := &acks[i]
		w.clientPos = p
		from, _ := w.mirror.LastReported(id)
		t.jw.BeginUpdate(id, p) // the server brackets the update the same way, so probe answers land in the entry
		var grants []Grant
		a.update = timeCall(lUpdate, func() error { grants = w.mirror.Update(id, p); return nil })
		a.journal = timeCall(lJournalAppend, t.jw.Commit)
		t.recs = append(t.recs, opRecord{id: id, from: from, to: p}) // no span of its own: it goes under the ack below
		for j := range grants {
			g := &grants[j]
			t.noteGrant(g, w.truePos(g.Object))
			if g.Object == id {
				a.region = g.Region
			}
		}
		t.wireGrants += int64(len(grants))
	}
	t.mirrorAllocs += mallocs() - m0
	f0 := mallocs()
	for i, p := range pts {
		a := &acks[i]
		t.codec.Load(id, p, a.region, uint64(i)+1)
		a.sendU = timeCall(lSendUpdate, t.codec.SendUpdate)
		t.frameBytes[0] += int64(t.codec.Pending())
		a.recvU = timeCall(lRecvUpdate, t.codec.Recv)
		a.sendR = timeCall(lSendRegion, t.codec.SendRegion)
		t.frameBytes[1] += int64(t.codec.Pending())
		a.recvR = timeCall(lRecvRegion, t.codec.Recv)
	}
	t.frameAllocs += mallocs() - f0
	for i, a := range acks {
		ack := t.wireDurs[i]
		t.add(lRemoteAck, ack)
		t.stackOverheadNs += ack - (a.update + a.journal + a.sendU + a.recvU + a.sendR + a.recvR)
		t.ops++
		if t.sampled() {
			start := t.wireStarts[i]
			if span := t.emit(lRemoteAck, 0, start, start+ack, false); span != 0 {
				t.children(span, start, start+ack,
					kid{lSendUpdate, a.sendU}, kid{lRecvUpdate, a.recvU}, kid{lUpdate, a.update},
					kid{lJournalAppend, a.journal}, kid{lSendRegion, a.sendR}, kid{lRecvRegion, a.recvR})
			}
		}
	}
	t.wireStarts, t.wireDurs = t.wireStarts[:0], t.wireDurs[:0]
	t.replay(true)
}

// wireRoundTrip keeps the mirror monitor in step with the server: the same
// query is registered and removed, and both calls are timed.
func (t *tracer) wireRoundTrip(w *wireWorld, q QuerySpec, rttNs int64) {
	t.add(lRegisterRTT, rttNs)
	w.journal = nil // registrations are not replayed into the second journal
	t0 := now()
	_, _, grants, err := w.mirror.Register(q)
	d := now().Sub(t0).Nanoseconds()
	if err != nil {
		w.res.failed++
		return
	}
	for i := range grants {
		t.noteGrant(&grants[i], w.truePos(grants[i].Object))
	}
	t.registered(q, d)
	t.deregistering(q.ID)
	t1 := now()
	w.mirror.Deregister(q.ID)
	t.deregistered(now().Sub(t1).Nanoseconds())
	w.journal = t.jw
}

// wireFinish closes the repetition's replay: journal size, snapshot cost and
// the server's probe count.
func (t *tracer) wireFinish(w *wireWorld) error {
	if err := t.jfile.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(w.journalPath())
	if err != nil {
		return err
	}
	t.journalBytes += fi.Size()
	t0 := now()
	size, err := w.mirror.SnapshotSize()
	if err != nil {
		return err
	}
	t.snapshotMs += float64(now().Sub(t0).Nanoseconds()) / 1e6
	t.snapshotBytes += size
	st, err := w.srv.Stats()
	if err != nil {
		return err
	}
	t.serverProbes += st.Probes - t.serverStats0.Probes
	w.res.statsDelta = subStats(w.mirror.Stats(), t.mirrorStats0)
	w.res.grants = t.wireGrants
	return nil
}

// --- results --------------------------------------------------------------------

func per(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// finish turns the traced repetitions into the per-layer metrics and writes
// the span file.
func (t *tracer) finish(s *runSummary) (map[string]metric, error) {
	e2e := s.e2e
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	mean := func(l layer) float64 { return per(t.ns[l], t.calls[l]) }

	var stats MonitorStats
	var pipe PipelineStats
	var grants, updates, stepNs, stepObjects, oracleNs, oracleRuns int64
	for _, r := range t.reps {
		stats = addStats(stats, r.statsDelta)
		pipe = addPipeStats(pipe, r.pipeDelta)
		grants += r.grants
		updates += r.updates
	}
	for _, r := range append(append([]*repResult(nil), t.reps...), s.reps...) {
		stepNs += r.stepNs
		stepObjects += r.stepObjects
		oracleNs += r.oracleNs
		oracleRuns += r.oracleRuns
	}

	// Time per update in each child layer, so that the self time is what is
	// left of an update.
	affected := per(t.ns[lAffected], t.updates)
	rangeBatch := per(t.ns[lRangeBatch], t.updates)
	treeUpdate := per(t.ns[lTreeUpdate], t.updates)
	update := mean(lUpdate)
	self := update - affected - rangeBatch - treeUpdate
	if self < 0 {
		self = 0
	}
	put("core.update_ns", update, "ns")
	put("core.update_self_ns", self, "ns")
	if t.p.wire {
		// What the server's monitor does cannot be told apart from the rest of
		// the process; the mirror monitor's allocations (with the journal
		// entry's marshalling) and counters stand in for it.
		put("core.update_allocs", per(int64(t.mirrorAllocs), t.calls[lUpdate]), "count")
		updates = t.calls[lRemoteAck]
	} else {
		put("core.update_allocs", e2e["allocs_per_update"], "count")
	}
	put("core.reevals_per_update", per(stats.Reevaluations, updates), "count")
	put("core.probes_per_update", per(stats.Probes, updates), "count")
	put("core.probes_avoided_share", per(stats.ProbesAvoided, stats.ProbesAvoided+stats.Probes), "fraction")
	put("core.safe_regions_per_update", per(stats.SafeRegionsBuilt, updates), "count")
	put("core.grants_per_update", per(grants, updates), "count")

	put("gridindex.affected_ns", mean(lAffected), "ns")
	put("gridindex.affected_empty_share", per(t.affectedEmpty, t.calls[lAffected]), "fraction")
	put("gridindex.insert_remove_ns", mean(lGridInsertRemove), "ns")
	put("saferegion.range_batch_ns", mean(lRangeBatch), "ns")
	put("saferegion.obstacles_per_call", per(t.obstacles, t.calls[lRangeBatch]), "count")
	put("rtree.update_ns", treeUpdate, "ns")
	put("rtree.fast_update_share", per(t.treeFast, t.treeFast+t.treeSlow), "fraction")
	put("rtree.search_ns", mean(lTreeSearch), "ns")
	put("rtree.insert_ns", mean(lTreeInsert), "ns")
	put("core.add_object_ns", mean(lAddObject), "ns")
	put("core.register_range_ns", mean(lRegisterRange), "ns")
	put("core.register_knn_ns", mean(lRegisterKNN), "ns")
	put("core.deregister_ns", mean(lDeregister), "ns")

	put("core.plan_ns", mean(lPlan), "ns")
	put("core.apply_planned_ns", mean(lApplyPlanned), "ns")
	put("parallel.apply_ns_per_update", mean(lPipeApply), "ns")
	put("parallel.fastpath_share", per(pipe.Fast, pipe.Updates), "fraction")
	put("parallel.fallback_share", per(pipe.Fallback, pipe.Updates), "fraction")
	put("parallel.batch_size_mean", per(pipe.Updates, pipe.Batches), "count")

	put("wire.send_update_ns", mean(lSendUpdate), "ns")
	put("wire.send_region_ns", mean(lSendRegion), "ns")
	put("wire.recv_update_ns", mean(lRecvUpdate), "ns")
	put("wire.recv_region_ns", mean(lRecvRegion), "ns")
	put("wire.update_frame_bytes", per(t.frameBytes[0], t.calls[lSendUpdate]), "bytes")
	put("wire.region_frame_bytes", per(t.frameBytes[1], t.calls[lSendRegion]), "bytes")
	put("wire.allocs_per_frame", per(int64(t.frameAllocs), t.calls[lSendUpdate]+t.calls[lSendRegion]), "count")

	put("core.journal_append_ns", mean(lJournalAppend), "ns")
	put("core.journal_bytes_per_update", per(t.journalBytes, t.calls[lJournalAppend]), "bytes")
	put("core.replay_ns_per_entry", t.recoverSec*1e9/float64(max(t.recoverEntries, 1)), "ns")
	wireReps := float64(max(int64(len(t.reps)), 1))
	put("core.snapshot_save_ms", t.snapshotMs/wireReps, "ms")
	put("core.snapshot_bytes", float64(t.snapshotBytes)/wireReps, "bytes")

	put("remote.ack_ns", mean(lRemoteAck), "ns")
	put("remote.stack_overhead_ns", per(t.stackOverheadNs, t.calls[lRemoteAck]), "ns")
	put("remote.register_rtt_ns", mean(lRegisterRTT), "ns")
	put("remote.recover_s", t.recoverSec/wireReps, "s")
	put("remote.probes_per_ack", per(t.serverProbes, t.calls[lRemoteAck]), "count")

	put("harness.step_ns_per_object", per(stepNs, stepObjects), "ns")
	put("harness.oracle_ms_per_sample", per(oracleNs, oracleRuns)/1e6, "ms")
	tracedRate := 1e9 / quiet(windowValues(t.reps, wallPerUpdate))
	put("harness.trace_overhead_share", 1-tracedRate/e2e["updates_per_s"], "fraction")
	put("harness.rep_spread", spread(repRates(s.reps)), "fraction")
	put("harness.calib_ns", s.calib, "ns")

	return m, t.writeSpans()
}

// spanFile is the Chrome trace-event layout, which chrome://tracing and
// ui.perfetto.dev open as they are.
type spanFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) writeSpans() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+t.p.name+".json"))
	if err != nil {
		return err
	}
	out := spanFile{
		TraceEvents: make([]traceEvent, len(t.spans)),
		Metadata: map[string]any{
			"workload":       t.p.name,
			"span_stride":    spanStride,
			"spans_dropped":  t.spansDropped,
			"clamped":        t.clamped,
			"replayed_spans": "args.replayed marks a call made again on a stand-alone mirror after the window; it is laid out inside its parent from the parent's start",
		},
	}
	for i, sp := range t.spans {
		out.TraceEvents[i] = traceEvent{
			Name: layerNames[sp.layer], Ph: "X",
			Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": sp.id, "parent": sp.parent, "op": sp.op, "start_ns": sp.start, "end_ns": sp.end, "replayed": sp.replayed},
		}
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(out)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}
