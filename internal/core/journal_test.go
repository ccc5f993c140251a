package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"srb/internal/geom"
)

// journaledRun drives a monitor through a randomized workload while
// journaling every op the way internal/remote does: Begin, execute (probes
// recorded by the prober hook), Commit. It snapshots mid-run and returns
// everything a recovery needs.
type journaledRun struct {
	mon     *Monitor
	journal *Journal
	logBuf  *bytes.Buffer
	pos     map[uint64]geom.Point
	now     float64

	midSnap bytes.Buffer
	midSeq  uint64
}

func newJournaledRun(t *testing.T, seed int64) *journaledRun {
	t.Helper()
	r := &journaledRun{logBuf: &bytes.Buffer{}, pos: map[uint64]geom.Point{}}
	r.journal = NewJournal(r.logBuf, 0)
	prober := ProberFunc(func(id uint64) geom.Point {
		p := r.pos[id]
		r.journal.NoteProbe(id, p)
		return p
	})
	r.mon = New(Options{GridM: 8}, prober, nil)
	return r
}

func (r *journaledRun) do(t *testing.T, e JournalEntry, op func()) {
	t.Helper()
	r.now += 0.01
	e.T = r.now
	r.mon.SetTime(r.now)
	r.journal.Begin(e)
	op()
	if err := r.journal.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (r *journaledRun) add(t *testing.T, id uint64, p geom.Point) {
	r.pos[id] = p
	r.do(t, JournalEntry{Op: JournalAdd, Obj: id, X: p.X, Y: p.Y}, func() { r.mon.AddObject(id, p) })
}

func (r *journaledRun) update(t *testing.T, id uint64, p geom.Point) {
	r.pos[id] = p
	r.do(t, JournalEntry{Op: JournalUpdate, Obj: id, X: p.X, Y: p.Y}, func() { r.mon.Update(id, p) })
}

// batch applies a coalesced update batch the way the server pipeline does:
// journaled in arrival order, applied in ascending-object-ID stable order
// (the pipeline determinism contract).
func (r *journaledRun) batch(t *testing.T, ups []BatchedUpdate) {
	ordered := append([]BatchedUpdate(nil), ups...)
	sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Obj < ordered[b].Obj })
	r.do(t, JournalEntry{Op: JournalBatch, Batch: ups}, func() {
		for _, u := range ordered {
			r.pos[u.Obj] = geom.Pt(u.X, u.Y)
			r.mon.Update(u.Obj, geom.Pt(u.X, u.Y))
		}
	})
}

func TestJournalReplayBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1905))
	r := newJournaledRun(t, 1905)

	for i := 0; i < 80; i++ {
		r.add(t, uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	r.do(t, JournalEntry{Op: JournalRegister, QID: 1, Kind: "range", MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}, func() {
		if _, _, err := r.mon.RegisterRange(1, geom.R(0.2, 0.2, 0.6, 0.6)); err != nil {
			t.Fatal(err)
		}
	})
	r.do(t, JournalEntry{Op: JournalRegister, QID: 2, Kind: "knn", X: 0.7, Y: 0.7, K: 5, Ordered: true}, func() {
		if _, _, err := r.mon.RegisterKNN(2, geom.Pt(0.7, 0.7), 5, true); err != nil {
			t.Fatal(err)
		}
	})
	r.do(t, JournalEntry{Op: JournalRegister, QID: 3, Kind: "circle", X: 0.4, Y: 0.8, Radius: 0.2}, func() {
		if _, _, err := r.mon.RegisterWithinDistance(3, geom.Pt(0.4, 0.8), 0.2); err != nil {
			t.Fatal(err)
		}
	})
	r.do(t, JournalEntry{Op: JournalRegister, QID: 4, Kind: "count", MinX: 0.5, MinY: 0.1, MaxX: 0.9, MaxY: 0.5}, func() {
		if _, _, err := r.mon.RegisterCount(4, geom.R(0.5, 0.1, 0.9, 0.5)); err != nil {
			t.Fatal(err)
		}
	})

	nextID := uint64(80)
	for step := 0; step < 400; step++ {
		switch k := rng.Intn(20); {
		case k == 0: // object churn: add
			id := nextID
			nextID++
			r.add(t, id, geom.Pt(rng.Float64(), rng.Float64()))
		case k == 1: // object churn: remove a random live object
			ids := make([]uint64, 0, len(r.pos))
			for id := range r.pos {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			id := ids[rng.Intn(len(ids))]
			delete(r.pos, id)
			r.do(t, JournalEntry{Op: JournalRemove, Obj: id}, func() { r.mon.RemoveObject(id) })
		case k == 2: // query churn: deregister and re-register the range query
			r.do(t, JournalEntry{Op: JournalDeregister, QID: 1}, func() { r.mon.Deregister(1) })
			r.do(t, JournalEntry{Op: JournalRegister, QID: 1, Kind: "range", MinX: 0.2, MinY: 0.2, MaxX: 0.6, MaxY: 0.6}, func() {
				if _, _, err := r.mon.RegisterRange(1, geom.R(0.2, 0.2, 0.6, 0.6)); err != nil {
					t.Fatal(err)
				}
			})
		case k < 7: // coalesced batch of 2..6 updates, duplicates allowed
			n := 2 + rng.Intn(5)
			ups := make([]BatchedUpdate, 0, n)
			for i := 0; i < n; i++ {
				ids := make([]uint64, 0, len(r.pos))
				for id := range r.pos {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
				id := ids[rng.Intn(len(ids))]
				ups = append(ups, BatchedUpdate{Obj: id, X: rng.Float64(), Y: rng.Float64()})
			}
			r.batch(t, ups)
		default: // single update, random walk
			ids := make([]uint64, 0, len(r.pos))
			for id := range r.pos {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			id := ids[rng.Intn(len(ids))]
			p := r.pos[id]
			r.update(t, id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.15), clamp01(p.Y+(rng.Float64()-0.5)*0.15)))
		}
		if step == 200 { // mid-run snapshot, as the periodic snapshotter would
			if err := r.mon.SaveSnapshot(&r.midSnap); err != nil {
				t.Fatal(err)
			}
			r.midSeq = r.journal.LastSeq()
		}
	}

	var want bytes.Buffer
	if err := r.mon.SaveSnapshot(&want); err != nil {
		t.Fatal(err)
	}

	// Recover: last snapshot + journal suffix, once with the live monitor's
	// options and once into a differently shaped tree (node capacity 4, not
	// the default 16), since results must not depend on tree shape. The
	// prober must never be consulted — every probe answer is in the journal.
	for _, opt := range []Options{{GridM: 8}, {GridM: 8, TreeCapacity: 4}} {
		recovered := New(opt, ProberFunc(func(id uint64) geom.Point {
			t.Fatalf("recovery probed object %d live", id)
			return geom.Point{}
		}), nil)
		if err := recovered.LoadSnapshot(bytes.NewReader(r.midSnap.Bytes())); err != nil {
			t.Fatal(err)
		}
		rs, err := ReplayJournal(bytes.NewReader(r.logBuf.Bytes()), recovered, r.midSeq)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Skipped == 0 || rs.Entries == 0 || rs.Torn {
			t.Fatalf("%+v: replay stats %+v: want skipped prefix and applied suffix", opt, rs)
		}
		if err := recovered.CheckInvariants(); err != nil {
			t.Fatalf("%+v: recovered invariants: %v", opt, err)
		}
		if recovered.Stats() != r.mon.Stats() {
			t.Fatalf("%+v: Stats diverged:\nrecovered %+v\noriginal  %+v", opt, recovered.Stats(), r.mon.Stats())
		}
		var got bytes.Buffer
		if err := recovered.SaveSnapshot(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%+v: recovered monitor state is not bit-identical to the uninterrupted run", opt)
		}
		// Semantic spot check: the recovered range result matches brute force.
		gotRes, _ := recovered.Results(1)
		var truth []uint64
		for id, p := range r.pos {
			if geom.R(0.2, 0.2, 0.6, 0.6).Contains(p) {
				truth = append(truth, id)
			}
		}
		sort.Slice(truth, func(i, j int) bool { return truth[i] < truth[j] })
		if !equalSeq(sortedCopy(gotRes), truth) {
			t.Fatalf("%+v: recovered range result %v, brute force %v", opt, sortedCopy(gotRes), truth)
		}
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	r := newJournaledRun(t, 7)
	for i := 0; i < 10; i++ {
		r.add(t, uint64(i), geom.Pt(0.1*float64(i), 0.5))
	}
	var want bytes.Buffer
	if err := r.mon.SaveSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	log := append([]byte(nil), r.logBuf.Bytes()...)
	log = append(log, []byte(`{"seq":11,"t":0.2,"op":"upd`)...) // crash mid-append

	m := New(Options{GridM: 8}, ProberFunc(func(uint64) geom.Point { return geom.Point{} }), nil)
	rs, err := ReplayJournal(bytes.NewReader(log), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Torn || rs.Entries != 10 {
		t.Fatalf("replay stats %+v: want 10 entries and a torn tail", rs)
	}
	var got bytes.Buffer
	if err := m.SaveSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("torn-tail replay diverged")
	}
}

func TestJournalRejectsCorruptionMidStream(t *testing.T) {
	r := newJournaledRun(t, 8)
	for i := 0; i < 5; i++ {
		r.add(t, uint64(i), geom.Pt(0.2, 0.2))
	}
	lines := bytes.Split(bytes.TrimSuffix(r.logBuf.Bytes(), []byte("\n")), []byte("\n"))
	lines[2] = []byte(`{"seq":3,"op"`) // torn line that is NOT the tail
	log := append(bytes.Join(lines, []byte("\n")), '\n')
	m := New(Options{GridM: 8}, ProberFunc(func(uint64) geom.Point { return geom.Point{} }), nil)
	if _, err := ReplayJournal(bytes.NewReader(log), m, 0); err == nil {
		t.Fatal("mid-stream corruption must fail replay")
	}

	// Out-of-order sequence numbers must also fail.
	r2 := newJournaledRun(t, 9)
	for i := 0; i < 3; i++ {
		r2.add(t, uint64(i), geom.Pt(0.3, 0.3))
	}
	lines = bytes.Split(bytes.TrimSuffix(r2.logBuf.Bytes(), []byte("\n")), []byte("\n"))
	lines[1], lines[2] = lines[2], lines[1]
	log = append(bytes.Join(lines, []byte("\n")), '\n')
	m2 := New(Options{GridM: 8}, ProberFunc(func(uint64) geom.Point { return geom.Point{} }), nil)
	if _, err := ReplayJournal(bytes.NewReader(log), m2, 0); err == nil {
		t.Fatal("out-of-order journal must fail replay")
	}
}
