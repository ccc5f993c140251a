package main

// sut.go is the benchmark's only door into the system under test: every
// import of a non-benchmark package and every call into one lives in this
// file, so an API change in the repo is a change to this file alone. The other
// files of the benchmark see the aliases and thin wrappers declared here.
//
// Nothing here reaches internal/shard, the ConcurrentMonitor / ParallelMonitor
// / ShardedMonitor facades or Server.SetShards: the ROADMAP may delete them.
// The batch path is reached through parallel.Pipeline.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"srb/internal/core"
	"srb/internal/exact"
	"srb/internal/geom"
	"srb/internal/gridindex"
	"srb/internal/parallel"
	"srb/internal/query"
	"srb/internal/remote"
	"srb/internal/rtree"
	"srb/internal/saferegion"
	"srb/internal/wire"
)

// Point, Rect and Grant are the program's own value types; the benchmark
// generates the first two and checks the third.
type (
	Point = geom.Point
	Rect  = geom.Rect
	// Grant is one refreshed safe region handed back by the monitor.
	Grant = core.SafeRegionUpdate
	// BatchUpdate is one entry of a Pipeline.Apply batch.
	BatchUpdate = parallel.Update
	// MonitorStats are the monitor's exact work counters.
	MonitorStats = core.Stats
	// PipelineStats are the batch pipeline's partition counters.
	PipelineStats = parallel.Stats
	// Planned is a precomputed update, the hand-over between the two halves of
	// the batch path.
	Planned = core.PlannedUpdate
)

// gridM is the query-index resolution every workload uses (Table 7.1).
const gridM = 50

// journalFileName is the file remote.Server.Recover reads in its persistence
// directory (an unexported constant of internal/remote).
const journalFileName = "journal.ndjson"

// unitSquare is the monitored space of every workload.
func unitSquare() Rect { return Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1} }

func monitorOptions() core.Options {
	return core.Options{Space: unitSquare(), GridM: gridM}
}

// QueryKind enumerates the four registrations the program supports.
type QueryKind int

// The query kinds, in the rotation order the churn workload uses.
const (
	KindRange QueryKind = iota
	KindCircle
	KindCount
	KindKNN
)

// QuerySpec is a generated continuous query: plain data, no program types.
type QuerySpec struct {
	ID      uint64
	Kind    QueryKind
	Rect    Rect    // range, count
	Center  Point   // circle, kNN
	Radius  float64 // circle
	K       int     // kNN
	Ordered bool    // kNN
}

// --- core.Monitor -------------------------------------------------------------

// Monitor wraps the program's sequential monitor.
type Monitor struct {
	m *core.Monitor
}

// newMonitor builds an empty monitor over the unit square. probe answers
// server-initiated probes; onResult (may be nil) hears every published result
// change.
func newMonitor(probe func(id uint64) Point, onResult func(qid uint64)) *Monitor {
	var cb func(core.ResultUpdate)
	if onResult != nil {
		cb = func(u core.ResultUpdate) { onResult(uint64(u.Query)) }
	}
	return &Monitor{m: core.New(monitorOptions(), core.ProberFunc(probe), cb)}
}

// AddObject registers an object.
func (s *Monitor) AddObject(id uint64, p Point) []Grant { return s.m.AddObject(id, p) }

// Update applies one source-initiated location update.
func (s *Monitor) Update(id uint64, p Point) []Grant { return s.m.Update(id, p) }

// SetTime advances the monitor clock.
func (s *Monitor) SetTime(t float64) { s.m.SetTime(t) }

// Register registers q and returns its initial result (the IDs, or only the
// count for a COUNT query) and the safe regions refreshed on the way.
func (s *Monitor) Register(q QuerySpec) (ids []uint64, count int, grants []Grant, err error) {
	id := query.ID(q.ID)
	switch q.Kind {
	case KindRange:
		ids, grants, err = s.m.RegisterRange(id, q.Rect)
		count = len(ids)
	case KindCircle:
		ids, grants, err = s.m.RegisterWithinDistance(id, q.Center, q.Radius)
		count = len(ids)
	case KindCount:
		count, grants, err = s.m.RegisterCount(id, q.Rect)
	case KindKNN:
		ids, grants, err = s.m.RegisterKNN(id, q.Center, q.K, q.Ordered)
		count = len(ids)
	default:
		err = fmt.Errorf("bench: unknown query kind %d", q.Kind)
	}
	return ids, count, grants, err
}

// Deregister removes a query.
func (s *Monitor) Deregister(id uint64) bool { return s.m.Deregister(query.ID(id)) }

// Results returns the monitored result of a query.
func (s *Monitor) Results(id uint64) ([]uint64, bool) { return s.m.Results(query.ID(id)) }

// Stats returns the monitor's work counters.
func (s *Monitor) Stats() MonitorStats { return s.m.Stats() }

// LastReported returns the location the monitor has on file for an object.
func (s *Monitor) LastReported(id uint64) (Point, bool) { return s.m.LastReported(id) }

// Plan runs the read-only half of the batch path for one update.
func (s *Monitor) Plan(id uint64, p Point) (Planned, bool) { return s.m.PlanUpdate(id, p) }

// ApplyPlanned runs the serial half of the batch path for one planned update.
func (s *Monitor) ApplyPlanned(pl *Planned) ([]Grant, bool) { return s.m.ApplyPlanned(pl) }

// SnapshotSize serializes the monitor and returns the snapshot's size.
func (s *Monitor) SnapshotSize() (int64, error) {
	var cw countingWriter
	err := s.m.SaveSnapshot(&cw)
	return cw.n, err
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

// subStats returns a - b, counter by counter.
func subStats(a, b MonitorStats) MonitorStats {
	return MonitorStats{
		SourceUpdates:    a.SourceUpdates - b.SourceUpdates,
		Probes:           a.Probes - b.Probes,
		Reevaluations:    a.Reevaluations - b.Reevaluations,
		FullReevals:      a.FullReevals - b.FullReevals,
		NewQueryEvals:    a.NewQueryEvals - b.NewQueryEvals,
		SafeRegionsBuilt: a.SafeRegionsBuilt - b.SafeRegionsBuilt,
		ResultChanges:    a.ResultChanges - b.ResultChanges,
		ProbesAvoided:    a.ProbesAvoided - b.ProbesAvoided,
		VirtualProbes:    a.VirtualProbes - b.VirtualProbes,
	}
}

// addStats returns a + b, counter by counter.
func addStats(a, b MonitorStats) MonitorStats {
	return subStats(a, subStats(MonitorStats{}, b))
}

// addPipeStats returns a + b, counter by counter.
func addPipeStats(a, b PipelineStats) PipelineStats {
	return subPipeStats(a, subPipeStats(PipelineStats{}, b))
}

// subPipeStats returns a - b, counter by counter.
func subPipeStats(a, b PipelineStats) PipelineStats {
	return PipelineStats{
		Batches:  a.Batches - b.Batches,
		Updates:  a.Updates - b.Updates,
		Planned:  a.Planned - b.Planned,
		Fast:     a.Fast - b.Fast,
		Fallback: a.Fallback - b.Fallback,
	}
}

// --- parallel.Pipeline ----------------------------------------------------------

// Pipeline wraps the program's batch update path.
type Pipeline struct{ p *parallel.Pipeline }

func newPipeline(mon *Monitor, workers int) *Pipeline {
	return &Pipeline{p: parallel.New(mon.m, workers)}
}

// Apply applies one batch; the outcome equals sequential updates in ID order.
func (p *Pipeline) Apply(batch []BatchUpdate) []Grant { return p.p.Apply(batch) }

// Stats returns the pipeline's partition counters.
func (p *Pipeline) Stats() PipelineStats { return p.p.Stats() }

// --- internal/exact oracle ----------------------------------------------------

// Oracle evaluates queries over true positions.
type Oracle struct{ ix *exact.Index }

func newOracle(n int) *Oracle {
	m := 1
	for m*m < n/4 {
		m++
	}
	return &Oracle{ix: exact.New(m, unitSquare())}
}

// Set moves an object to its true position.
func (o *Oracle) Set(id uint64, p Point) { o.ix.Set(id, p) }

// Answer returns the true result of q: sorted IDs for range, circle and
// count, distance order for kNN.
func (o *Oracle) Answer(q QuerySpec) []uint64 {
	switch q.Kind {
	case KindRange, KindCount:
		return o.ix.Range(q.Rect)
	case KindCircle:
		c := geom.Circle{Center: q.Center, R: q.Radius}
		in := o.ix.Range(c.BBox())
		out := in[:0]
		for _, id := range in {
			if p, ok := o.ix.Pos(id); ok && c.Contains(p) {
				out = append(out, id)
			}
		}
		return out
	default:
		nbs := o.ix.KNN(q.Center, q.K, nil)
		out := make([]uint64, len(nbs))
		for i, nb := range nbs {
			out[i] = nb.ID
		}
		return out
	}
}

// --- stand-alone layer mirrors (traced runs) ----------------------------------

// Mirrors are stand-alone copies of the two indexes inside core.Monitor, fed
// the same queries and rectangles from outside, so the traced run can time
// gridindex, saferegion and rtree calls without instrumenting the program.
// The grid holds the monitor's live *query.Query values (it only reads them),
// so kNN quarantine radii are always current; bucket placement is refreshed by
// SyncQuery.
type Mirrors struct {
	mon       *core.Monitor
	grid      *gridindex.Grid
	tree      *rtree.Tree
	obstacles []Rect
	affected  []*query.Query
}

func newMirrors(mon *Monitor) *Mirrors {
	opt := monitorOptions().WithDefaults()
	return &Mirrors{
		mon:  mon.m,
		grid: gridindex.New(opt.GridM, opt.Space),
		tree: rtree.NewWithCapacity(opt.TreeCapacity),
	}
}

// Affected replays the grid lookup of one update and returns how many queries
// it found.
func (mr *Mirrors) Affected(from, to Point) int {
	mr.affected = mr.grid.Affected(from, to)
	return len(mr.affected)
}

// SyncAffected re-buckets, untimed, the queries the last Affected call found:
// they are the ones the update reevaluated, so the ones whose quarantine area
// may have moved.
func (mr *Mirrors) SyncAffected() {
	for _, q := range mr.affected {
		mr.grid.Update(q)
	}
}

// LoadObjects fills the tree mirror from a monitor that was populated without
// tracing.
func (mr *Mirrors) LoadObjects() {
	for _, id := range mr.mon.ObjectIDs() {
		if r, ok := mr.mon.SafeRegion(id); ok {
			mr.tree.Insert(id, r)
		}
	}
}

// Obstacles gathers, untimed, the range rectangles the batch safe-region pass
// would see for an object at p.
func (mr *Mirrors) Obstacles(p Point) int {
	mr.obstacles = mr.obstacles[:0]
	for _, q := range mr.grid.At(p) {
		if q.Kind == query.KindRange && !q.Rect.Contains(p) {
			mr.obstacles = append(mr.obstacles, q.Rect)
		}
	}
	return len(mr.obstacles)
}

// RangeBatch replays the Section 5.3 batch safe-region pass over the
// rectangles gathered by the last Obstacles call.
func (mr *Mirrors) RangeBatch(p Point) Rect {
	return saferegion.ForRangeBatch(mr.obstacles, p, mr.grid.CellRectOf(p), geom.ExitObjective(p))
}

// TreeInsert replays the index write of AddObject: the object's point.
func (mr *Mirrors) TreeInsert(id uint64, p Point) { mr.tree.Insert(id, geom.RectAround(p)) }

// TreeUpdate replays the two index writes of one safe-region refresh: the
// point rectangle, then the granted region.
func (mr *Mirrors) TreeUpdate(id uint64, p Point, r Rect) {
	mr.tree.Update(id, geom.RectAround(p))
	mr.tree.Update(id, r)
}

// TreeSearch replays a range search and returns the candidate count.
func (mr *Mirrors) TreeSearch(r Rect) int {
	n := 0
	mr.tree.Search(r, func(rtree.Item) bool { n++; return true })
	return n
}

// TreeNearest replays a best-first k-nearest search.
func (mr *Mirrors) TreeNearest(p Point, k int) int { return len(mr.tree.KNearest(p, k)) }

// TreeFastUpdates returns the tree's fast and slow update counters.
func (mr *Mirrors) TreeFastUpdates() (fast, slow int) {
	_, _, fast, slow = mr.tree.Stats()
	return fast, slow
}

// InsertQuery indexes a registered query in the mirror grid.
func (mr *Mirrors) InsertQuery(id uint64) {
	if q, ok := mr.mon.Query(query.ID(id)); ok {
		mr.grid.Insert(q)
	}
}

// RemoveQuery drops a query from the mirror grid; call before Deregister.
func (mr *Mirrors) RemoveQuery(id uint64) {
	if q, ok := mr.mon.Query(query.ID(id)); ok {
		mr.grid.Remove(q)
	}
}

// SyncQuery re-buckets a query whose quarantine area moved.
func (mr *Mirrors) SyncQuery(id uint64) {
	if q, ok := mr.mon.Query(query.ID(id)); ok {
		mr.grid.Update(q)
	}
}

// --- wire codec over an in-memory pipe -------------------------------------------

// CodecLoop is a wire.Codec whose writes land in a buffer its reads drain.
type CodecLoop struct {
	buf    bytes.Buffer
	codec  *wire.Codec
	update wire.Message
	region wire.Message
}

func newCodecLoop() *CodecLoop {
	c := &CodecLoop{}
	c.codec = wire.NewCodec(&c.buf)
	return c
}

// Load sets the frames the loop sends: an update of obj at p carrying trace,
// and the grant r that answers it.
func (c *CodecLoop) Load(obj uint64, p Point, r Rect, trace uint64) {
	c.update = wire.Message{Type: wire.TUpdate, Obj: obj, Trace: trace}
	c.update.SetPoint(p)
	c.region = wire.Message{Type: wire.TRegion, Obj: obj, Trace: trace}
	c.region.SetRect(r)
}

// SendUpdate and SendRegion encode one frame; Recv decodes the frame sent
// last. Pending returns the encoded size waiting to be read.
func (c *CodecLoop) SendUpdate() error { return c.codec.Send(c.update) }

// SendRegion encodes the loaded grant frame.
func (c *CodecLoop) SendRegion() error { return c.codec.Send(c.region) }

// Recv decodes the pending frame.
func (c *CodecLoop) Recv() error {
	_, err := c.codec.Recv()
	return err
}

// Pending returns the number of encoded bytes not yet decoded.
func (c *CodecLoop) Pending() int { return c.buf.Len() }

// --- journal ------------------------------------------------------------------

// JournalWriter brackets monitor operations into a core.Journal the way the
// server's event loop does.
type JournalWriter struct {
	j *core.Journal
}

func newJournalWriter(w io.Writer) *JournalWriter {
	return &JournalWriter{j: core.NewJournal(w, 0)}
}

// NoteProbe records a probe answer into the open entry.
func (jw *JournalWriter) NoteProbe(id uint64, p Point) { jw.j.NoteProbe(id, p) }

// BeginAdd, BeginUpdate and BeginRegister open an entry; Commit seals it.
func (jw *JournalWriter) BeginAdd(id uint64, p Point) {
	jw.j.Begin(core.JournalEntry{Op: core.JournalAdd, Obj: id, X: p.X, Y: p.Y})
}

// BeginUpdate opens a location-update entry.
func (jw *JournalWriter) BeginUpdate(id uint64, p Point) {
	jw.j.Begin(core.JournalEntry{Op: core.JournalUpdate, Obj: id, X: p.X, Y: p.Y})
}

// BeginRegister opens a query-registration entry.
func (jw *JournalWriter) BeginRegister(q QuerySpec) {
	e := core.JournalEntry{Op: core.JournalRegister, QID: q.ID}
	switch q.Kind {
	case KindRange, KindCount:
		e.Kind = core.KindRange
		if q.Kind == KindCount {
			e.Kind = core.KindCount
		}
		e.MinX, e.MinY, e.MaxX, e.MaxY = q.Rect.MinX, q.Rect.MinY, q.Rect.MaxX, q.Rect.MaxY
	case KindCircle:
		e.Kind = core.KindCircle
		e.X, e.Y, e.Radius = q.Center.X, q.Center.Y, q.Radius
	case KindKNN:
		e.Kind = core.KindKNN
		e.X, e.Y, e.K, e.Ordered = q.Center.X, q.Center.Y, q.K, q.Ordered
	}
	jw.j.Begin(e)
}

// Commit seals and writes the open entry.
func (jw *JournalWriter) Commit() error { return jw.j.Commit() }

// --- remote server and clients ----------------------------------------------------

// ackTimeout bounds one ack or registration round trip; longer is a failed
// operation.
const ackTimeout = 5 * time.Second

// Server is a remote.Server recovered from a journal and serving on loopback.
type Server struct {
	s       *remote.Server
	served  chan struct{}
	Entries int // journal entries Recover replayed
}

// startServer recovers dir's journal into a fresh server, turns journaling
// back on over the same directory and starts serving on a loopback port.
// recoverSeconds is the wall time of Recover alone.
func startServer(dir string) (srv *Server, recoverSeconds float64, err error) {
	s, err := remote.NewServer("127.0.0.1:0", monitorOptions())
	if err != nil {
		return nil, 0, err
	}
	s.SetLogf(nil)
	t0 := now()
	rs, err := s.Recover(dir)
	recoverSeconds = now().Sub(t0).Seconds()
	if err == nil {
		err = s.SetPersist(dir, 0)
	}
	if err != nil {
		_ = s.Close()
		return nil, 0, err
	}
	srv = &Server{s: s, served: make(chan struct{}), Entries: rs.Entries}
	go func() {
		defer close(srv.served)
		_ = s.Serve() // always net.ErrClosed after Close
	}()
	return srv, recoverSeconds, nil
}

// Addr is the server's loopback address.
func (s *Server) Addr() string { return s.s.Addr() }

// Stats reads the hosted monitor's counters through the admin surface, which
// serializes the read on the server's event loop.
func (s *Server) Stats() (MonitorStats, error) {
	rec := httptest.NewRecorder()
	s.s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var payload struct {
		Stats MonitorStats `json:"stats"`
	}
	if rec.Code != 200 {
		return MonitorStats{}, fmt.Errorf("bench: /stats answered %d", rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &payload)
	return payload.Stats, err
}

// Close stops the server and waits for its goroutines.
func (s *Server) Close() {
	_ = s.s.Close()
	<-s.served
}

// writeJournalFile stores a journal where Recover looks for it.
func writeJournalFile(dir string, journal []byte) error {
	return os.WriteFile(filepath.Join(dir, journalFileName), journal, 0o644)
}

// grantEvent is one safe-region grant seen by the mobile client's reader.
type grantEvent struct {
	trace uint64
	at    time.Time
}

// MobileSession is one remote.MobileClient whose acks the benchmark times:
// Report stamps the send, the RegionGranted hook stamps the matching grant.
type MobileSession struct {
	c         *remote.MobileClient
	grants    chan grantEvent
	sentTrace uint64
	sendErr   error
	timer     *time.Timer
	overflow  atomic.Int64 // grants dropped because the driver fell behind (never, in a closed loop)
}

// stopTimer stops t and drains a tick that already fired, so a later Reset
// starts clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// dialMobile connects a mobile client and waits for its first safe region.
func dialMobile(addr string, id uint64, start Point) (*MobileSession, error) {
	// The buffer only has to hold the grants one closed-loop step can cause:
	// the ack itself plus a refresh from the interleaved registration.
	ms := &MobileSession{grants: make(chan grantEvent, 64), timer: time.NewTimer(time.Hour)}
	stopTimer(ms.timer)
	hooks := remote.ClientHooks{
		UpdateSent: func(trace uint64, err error) { ms.sentTrace, ms.sendErr = trace, err },
		RegionGranted: func(trace uint64) {
			select {
			case ms.grants <- grantEvent{trace: trace, at: now()}:
			default:
				ms.overflow.Add(1)
			}
		},
	}
	c, err := remote.DialClientOpts(addr, id, start, remote.ClientOptions{Hooks: hooks})
	if err != nil {
		return nil, err
	}
	ms.c = c
	ms.timer.Reset(ackTimeout)
	select {
	case <-ms.grants:
		stopTimer(ms.timer)
	case <-ms.timer.C:
		_ = c.Close()
		return nil, errors.New("bench: no initial safe region within the ack timeout")
	}
	return ms, nil
}

// Ack moves the client to p, which must lie outside its safe region, and
// waits for the grant that answers the report. It returns the time from the
// call to the grant's arrival at the client.
func (ms *MobileSession) Ack(p Point) (time.Duration, error) {
	ms.sentTrace = 0
	t0 := now()
	ms.c.Tick(p)
	if ms.sendErr != nil {
		return 0, ms.sendErr
	}
	if ms.sentTrace == 0 {
		return 0, errors.New("bench: position inside the safe region, nothing was reported")
	}
	ms.timer.Reset(ackTimeout)
	for {
		select {
		case g := <-ms.grants:
			if g.trace != ms.sentTrace {
				continue // a refresh caused by a registration or a probe
			}
			stopTimer(ms.timer)
			return g.at.Sub(t0), nil
		case <-ms.timer.C:
			return 0, errors.New("bench: ack timed out")
		}
	}
}

// Overflow returns how many grants the hook had to drop.
func (ms *MobileSession) Overflow() int64 { return ms.overflow.Load() }

// Region returns the client's current safe region.
func (ms *MobileSession) Region() (Rect, bool) { return ms.c.Region() }

// Counts returns updates sent and probes answered by the client.
func (ms *MobileSession) Counts() (updates, probes int64) { return ms.c.Stats() }

// Close ends the session.
func (ms *MobileSession) Close() { _ = ms.c.Close() }

// AppSession is one remote.AppClient used for registration round trips.
type AppSession struct{ a *remote.AppClient }

func dialApp(addr string) (*AppSession, error) {
	a, err := remote.DialAppOpts(addr, remote.AppOptions{RPCTimeout: ackTimeout, RPCAttempts: 1})
	if err != nil {
		return nil, err
	}
	a.SetLogf(nil)
	return &AppSession{a: a}, nil
}

// Register performs one registration round trip and returns the reply.
func (as *AppSession) Register(q QuerySpec) (ids []uint64, count int, err error) {
	id := query.ID(q.ID)
	switch q.Kind {
	case KindRange:
		ids, err = as.a.RegisterRange(id, q.Rect)
		count = len(ids)
	case KindCircle:
		ids, err = as.a.RegisterWithinDistance(id, q.Center, q.Radius)
		count = len(ids)
	case KindCount:
		count, err = as.a.RegisterCount(id, q.Rect)
	case KindKNN:
		ids, err = as.a.RegisterKNN(id, q.Center, q.K, q.Ordered)
		count = len(ids)
	default:
		err = fmt.Errorf("bench: unknown query kind %d", q.Kind)
	}
	return ids, count, err
}

// Deregister sends the removal; the next Register on the same connection is
// ordered behind it.
func (as *AppSession) Deregister(id uint64) error { return as.a.Deregister(query.ID(id)) }

// Close ends the session.
func (as *AppSession) Close() { _ = as.a.Close() }
