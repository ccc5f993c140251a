package core

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"srb/internal/geom"
	"srb/internal/query"
)

// The update journal is the second half of crash recovery (snapshot.go holds
// the first): every mutating monitor operation is appended as one JSON line,
// including the answers of every probe the operation issued, so replaying the
// journal over the last snapshot reconstructs the monitor bit-identically —
// same safe regions, same results, same Stats. Probe answers must ride in the
// journal because a restarted server cannot re-ask a client where it was.
//
// Format: newline-delimited JSON, one JournalEntry per line as encoding/json
// would marshal it, sequence numbers strictly increasing. A torn final line
// (crash mid-append) is detected and ignored by Replay. The codec
// (journal_codec.go) is hand-written: byte-identical to encoding/json on
// encode, and falling back to it for any line not in that canonical form.
// See DESIGN.md §11 for the recovery contract.

// Journal operation kinds.
const (
	JournalUpdate     = "update" // single location update
	JournalBatch      = "batch"  // coalesced update batch (pipeline tick)
	JournalAdd        = "add"    // object registration
	JournalRemove     = "remove" // object removal
	JournalRegister   = "reg"    // query registration
	JournalDeregister = "dereg"  // query removal
)

// Journal query kinds: the Kind field of a JournalRegister entry. The wire
// registration types map onto these in internal/remote's registrationEntry,
// and applyEntry's replay switch must handle every one — protodrift checks
// both sides, so a kind added to the writer without a replay case fails lint.
const (
	KindRange  = "range"  // axis-aligned range query
	KindCount  = "count"  // count-only range query
	KindCircle = "circle" // within-distance (circle) query
	KindKNN    = "knn"    // k-nearest-neighbor query
)

// ProbeAnswer is one recorded server-initiated probe reply.
type ProbeAnswer struct {
	ID uint64  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// BatchedUpdate is one update of a journaled batch entry, in arrival order.
type BatchedUpdate struct {
	Obj uint64  `json:"obj"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
}

// JournalEntry is one journaled monitor operation.
type JournalEntry struct {
	Seq uint64  `json:"seq"`
	T   float64 `json:"t"` // monitor clock when the op ran
	Op  string  `json:"op"`

	// Object ops (update/add/remove).
	Obj uint64  `json:"obj,omitempty"`
	X   float64 `json:"x,omitempty"`
	Y   float64 `json:"y,omitempty"`

	// Batch ops.
	Batch []BatchedUpdate `json:"batch,omitempty"`

	// Query ops.
	QID       uint64        `json:"qid,omitempty"`
	Kind      string        `json:"kind,omitempty"` // range|count|circle|knn
	MinX      float64       `json:"minx,omitempty"`
	MinY      float64       `json:"miny,omitempty"`
	MaxX      float64       `json:"maxx,omitempty"`
	MaxY      float64       `json:"maxy,omitempty"`
	K         int           `json:"k,omitempty"`
	Ordered   bool          `json:"ord,omitempty"`
	Radius    float64       `json:"radius,omitempty"`
	ProbesAns []ProbeAnswer `json:"probes,omitempty"`
}

// Journal appends monitor operations to an io.Writer as NDJSON, one Write
// per entry. It is not safe for concurrent use; the caller serializes
// Begin/NoteProbe/Commit with the monitor operation they bracket
// (internal/remote does so on its event loop). A write error poisons the
// journal: every later Commit fails fast, so a caller cannot silently
// continue with a hole in the log.
type Journal struct {
	w    io.Writer
	buf  []byte // encoded entry, reused entry to entry
	seq  uint64
	cur  JournalEntry // the open entry, valid while open
	open bool
	err  error
}

// NewJournal creates a journal writer continuing after lastSeq (0 starts
// fresh).
func NewJournal(w io.Writer, lastSeq uint64) *Journal {
	return &Journal{w: w, seq: lastSeq}
}

// LastSeq returns the sequence number of the last committed entry.
func (j *Journal) LastSeq() uint64 { return j.seq }

// Err returns the sticky write error, if any.
func (j *Journal) Err() error { return j.err }

// Begin opens an entry for the operation about to run. Probe answers
// observed while the operation executes are attached via NoteProbe; Commit
// seals and writes the entry. An entry given without probe answers collects
// them in an array the journal reuses from entry to entry.
func (j *Journal) Begin(e JournalEntry) {
	if e.ProbesAns == nil {
		e.ProbesAns = j.cur.ProbesAns[:0]
	}
	j.cur, j.open = e, true
}

// NoteProbe records one probe answer into the open entry. A probe outside
// any open entry is a bug in the caller's bracketing and is ignored.
func (j *Journal) NoteProbe(id uint64, p geom.Point) {
	if !j.open {
		return
	}
	j.cur.ProbesAns = append(j.cur.ProbesAns, ProbeAnswer{ID: id, X: p.X, Y: p.Y})
}

// Abort discards the open entry, recording nothing — for operations that
// fail validation and leave the monitor untouched (e.g. a rejected query
// registration).
func (j *Journal) Abort() { j.open = false }

// Commit seals the open entry, assigns its sequence number, and writes it.
// An entry that cannot be encoded (a NaN or infinite value) poisons the
// journal like a write error, and writes nothing.
func (j *Journal) Commit() error {
	if !j.open {
		return j.err
	}
	j.open = false
	if j.err != nil {
		return j.err
	}
	j.seq++
	j.cur.Seq = j.seq
	b, err := appendJournalEntry(j.buf[:0], &j.cur)
	if err == nil {
		j.buf = append(b, '\n')
		_, err = j.w.Write(j.buf)
	}
	if err != nil {
		j.err = fmt.Errorf("core: journal append (seq %d): %w", j.seq, err)
		return j.err
	}
	return nil
}

// ReplayStats summarizes one journal replay.
type ReplayStats struct {
	Entries int    // entries applied
	Skipped int    // entries at or below the snapshot's sequence number
	LastSeq uint64 // sequence number of the last entry seen
	Torn    bool   // a torn (unparseable) final line was discarded
}

// journalProber answers replayed probes from the recorded answers, a FIFO
// queue per object ID. The GLOBAL probe order may legitimately differ between
// the original run and the replay (the restored index tree has a different
// shape, so candidates enumerate differently), but the per-object order is
// invariant: each sub-operation probes an object at most once, sub-operations
// replay in the original order, and whether a given sub-operation probes a
// given object is a deterministic function of monitor state. Any probe
// without a recorded answer, or recorded answer left unused, fails the
// replay loudly.
type journalProber struct {
	answers map[uint64][]geom.Point
	left    int
	err     error
}

func newJournalProber(ans []ProbeAnswer) *journalProber {
	q := &journalProber{answers: make(map[uint64][]geom.Point, len(ans)), left: len(ans)}
	for _, a := range ans {
		q.answers[a.ID] = append(q.answers[a.ID], geom.Pt(a.X, a.Y))
	}
	return q
}

func (q *journalProber) Probe(id uint64) geom.Point {
	queue := q.answers[id]
	if len(queue) == 0 {
		if q.err == nil {
			q.err = fmt.Errorf("core: replay probed object %d with no recorded answer", id)
		}
		return geom.Point{}
	}
	p := queue[0]
	q.answers[id] = queue[1:]
	q.left--
	return p
}

// ReplayJournal applies the journal entries with Seq > fromSeq to m,
// answering probes from the recorded answers. The monitor's prober is
// swapped for the duration and restored afterwards. Replay is strictly
// sequential, so by the pipeline determinism contract a journaled batch is
// applied as its equivalent ascending-object-ID update sequence. A torn
// final line (crash mid-append) is discarded; a torn or out-of-order line
// anywhere else is an error.
func ReplayJournal(r io.Reader, m *Monitor, fromSeq uint64) (ReplayStats, error) {
	var rs ReplayStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 16<<20)
	prevSeq := uint64(0)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := decodeJournalEntry(line)
		if err != nil {
			// Only the final line may be torn; peek for more content.
			if sc.Scan() {
				return rs, fmt.Errorf("core: journal line after seq %d unparseable: %v", prevSeq, err)
			}
			rs.Torn = true
			break
		}
		if e.Seq <= prevSeq {
			return rs, fmt.Errorf("core: journal seq %d after %d: not strictly increasing", e.Seq, prevSeq)
		}
		prevSeq = e.Seq
		rs.LastSeq = e.Seq
		if e.Seq <= fromSeq {
			rs.Skipped++
			continue
		}
		if err := applyEntry(m, &e); err != nil {
			return rs, fmt.Errorf("core: replay seq %d (%s): %w", e.Seq, e.Op, err)
		}
		rs.Entries++
	}
	if err := sc.Err(); err != nil {
		return rs, fmt.Errorf("core: read journal: %w", err)
	}
	return rs, nil
}

func applyEntry(m *Monitor, e *JournalEntry) error {
	qp := newJournalProber(e.ProbesAns)
	orig := m.prober
	m.prober = qp
	defer func() { m.prober = orig }()
	m.SetTime(e.T)
	switch e.Op {
	case JournalUpdate:
		m.Update(e.Obj, geom.Pt(e.X, e.Y))
	case JournalBatch:
		// Ascending object ID, stable among duplicates: the exact application
		// order of internal/parallel.Pipeline.
		ups := append([]BatchedUpdate(nil), e.Batch...)
		sort.SliceStable(ups, func(a, b int) bool { return ups[a].Obj < ups[b].Obj })
		for i := range ups {
			m.Update(ups[i].Obj, geom.Pt(ups[i].X, ups[i].Y))
		}
	case JournalAdd:
		m.AddObject(e.Obj, geom.Pt(e.X, e.Y))
	case JournalRemove:
		m.RemoveObject(e.Obj)
	case JournalRegister:
		var err error
		qid := query.ID(e.QID)
		rect := geom.Rect{MinX: e.MinX, MinY: e.MinY, MaxX: e.MaxX, MaxY: e.MaxY}
		switch e.Kind {
		case KindRange:
			_, _, err = m.RegisterRange(qid, rect)
		case KindCount:
			_, _, err = m.RegisterCount(qid, rect)
		case KindCircle:
			_, _, err = m.RegisterWithinDistance(qid, geom.Pt(e.X, e.Y), e.Radius)
		case KindKNN:
			_, _, err = m.RegisterKNN(qid, geom.Pt(e.X, e.Y), e.K, e.Ordered)
		default:
			err = fmt.Errorf("unknown query kind %q", e.Kind)
		}
		if err != nil {
			return err
		}
	case JournalDeregister:
		m.Deregister(query.ID(e.QID))
	default:
		return fmt.Errorf("unknown op %q", e.Op)
	}
	if qp.err != nil {
		return qp.err
	}
	if qp.left != 0 {
		return fmt.Errorf("%d recorded probe answers unused: replay diverged", qp.left)
	}
	return nil
}
