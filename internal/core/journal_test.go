package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
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

func newJournaledRun(t testing.TB, seed int64) *journaledRun {
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

func (r *journaledRun) do(t testing.TB, e JournalEntry, op func()) {
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

func (r *journaledRun) add(t testing.TB, id uint64, p geom.Point) {
	r.pos[id] = p
	r.do(t, JournalEntry{Op: JournalAdd, Obj: id, X: p.X, Y: p.Y}, func() { r.mon.AddObject(id, p) })
}

func (r *journaledRun) update(t testing.TB, id uint64, p geom.Point) {
	r.pos[id] = p
	r.do(t, JournalEntry{Op: JournalUpdate, Obj: id, X: p.X, Y: p.Y}, func() { r.mon.Update(id, p) })
}

// batch applies a coalesced update batch the way the server pipeline does:
// journaled in arrival order, applied in ascending-object-ID stable order
// (the pipeline determinism contract).
func (r *journaledRun) batch(t testing.TB, ups []BatchedUpdate) {
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

// probingRun journals a small workload around a kNN query, so that some
// entries carry probe answers.
func probingRun(t testing.TB) *journaledRun {
	rng := rand.New(rand.NewSource(29))
	r := newJournaledRun(t, 29)
	for i := uint64(0); i < 30; i++ {
		r.add(t, i, geom.Pt(rng.Float64(), rng.Float64()))
	}
	r.do(t, JournalEntry{Op: JournalRegister, QID: 1, Kind: KindKNN, X: 0.5, Y: 0.5, K: 3, Ordered: true}, func() {
		if _, _, err := r.mon.RegisterKNN(1, geom.Pt(0.5, 0.5), 3, true); err != nil {
			t.Fatal(err)
		}
	})
	r.do(t, JournalEntry{Op: JournalRegister, QID: 2, Kind: KindRange, MinX: 0.3, MinY: 0.3, MaxX: 0.6, MaxY: 0.6}, func() {
		if _, _, err := r.mon.RegisterRange(2, geom.R(0.3, 0.3, 0.6, 0.6)); err != nil {
			t.Fatal(err)
		}
	})
	for step := 0; step < 60; step++ {
		id := uint64(rng.Intn(30))
		p := r.pos[id]
		r.update(t, id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.2), clamp01(p.Y+(rng.Float64()-0.5)*0.2)))
	}
	r.batch(t, []BatchedUpdate{{Obj: 7, X: 0.5, Y: 0.52}, {Obj: 2, X: 0.45, Y: 0.5}, {Obj: 7, X: 0.51, Y: 0.5}})
	return r
}

func noLiveProbes(t testing.TB) Prober {
	return ProberFunc(func(id uint64) geom.Point {
		t.Fatalf("replay probed object %d live", id)
		return geom.Point{}
	})
}

func TestReplayRejectsGarbage(t *testing.T) {
	add := `{"seq":2,"t":0,"op":"add","obj":1,"x":0.5,"y":0.5}` + "\n"
	for _, c := range []struct{ log, want string }{
		{`{"seq":1,"t":0,"op":"warp"}` + "\n", `unknown op "warp"`},
		{`{"seq":1,"t":0,"op":"reg","qid":1,"kind":"hexagon"}` + "\n", `unknown query kind "hexagon"`},
		{"{bad json\n" + add, "unparseable"},
	} {
		m := New(Options{GridM: 8}, noLiveProbes(t), nil)
		if _, err := ReplayJournal(strings.NewReader(c.log), m, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("replay of %q: err = %v, want %q", c.log, err, c.want)
		}
	}
	// A lone unparseable line is a torn tail, not an error.
	m := New(Options{GridM: 8}, noLiveProbes(t), nil)
	rs, err := ReplayJournal(strings.NewReader("{bad json\n"), m, 0)
	if err != nil || !rs.Torn || rs.Entries != 0 {
		t.Fatalf("lone bad line: stats %+v, err %v; want a tolerated torn tail", rs, err)
	}
}

func TestReplayEmpty(t *testing.T) {
	m := New(Options{GridM: 8}, noLiveProbes(t), nil)
	rs, err := ReplayJournal(strings.NewReader(""), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs != (ReplayStats{}) || m.NumObjects() != 0 || m.NumQueries() != 0 {
		t.Fatalf("empty replay: stats %+v, %d objects, %d queries", rs, m.NumObjects(), m.NumQueries())
	}
}

// TestReplayExactRejectsStrayProbe edits the probe answers of one journaled
// entry and requires replay to fail with the divergence errors OPERATIONS.md
// quotes: a probe with no recorded answer, and a recorded answer left over.
func TestReplayExactRejectsStrayProbe(t *testing.T) {
	r := probingRun(t)
	lines := bytes.Split(bytes.TrimSuffix(r.logBuf.Bytes(), []byte("\n")), []byte("\n"))
	at := -1
	var e JournalEntry
	for i, l := range lines {
		e = JournalEntry{}
		if err := json.Unmarshal(l, &e); err != nil {
			t.Fatal(err)
		}
		if len(e.ProbesAns) > 0 {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("workload journaled no probe answers")
	}
	ans := e.ProbesAns
	last := ans[len(ans)-1]
	for _, c := range []struct {
		name    string
		answers []ProbeAnswer
		want    string
	}{
		{"dropped answer", ans[:len(ans)-1], fmt.Sprintf("replay probed object %d with no recorded answer", last.ID)},
		{"extra answer", append(ans[:len(ans):len(ans)], last), "recorded probe answers unused: replay diverged"},
	} {
		mod := e
		mod.ProbesAns = c.answers
		b, err := json.Marshal(mod)
		if err != nil {
			t.Fatal(err)
		}
		edited := append(append(append([][]byte(nil), lines[:at]...), b), lines[at+1:]...)
		log := append(bytes.Join(edited, []byte("\n")), '\n')
		m := New(Options{GridM: 8}, noLiveProbes(t), nil)
		if _, err := ReplayJournal(bytes.NewReader(log), m, 0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// FuzzReplayJournal feeds arbitrary bytes to the journal decoder: replay
// must never panic, and a replay that reports no error must leave a monitor
// that passes its invariants.
func FuzzReplayJournal(f *testing.F) {
	log := probingRun(f).logBuf.Bytes()
	f.Add(log)
	f.Add(log[:len(log)-len(log)/3])
	f.Add(append(append([]byte(nil), log...), "{\"seq\":999,\"op\n"...))
	f.Add([]byte(`{"seq":1,"t":0,"op":"warp"}` + "\n"))
	f.Add([]byte("{bad json\n" + `{"seq":1,"t":0,"op":"add","obj":1,"x":0.5,"y":0.5}` + "\n"))
	f.Fuzz(func(t *testing.T, log []byte) {
		m := New(Options{GridM: 8}, noLiveProbes(t), nil)
		if _, err := ReplayJournal(bytes.NewReader(log), m, 0); err != nil {
			return
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJournalCommitRejectsNonFinite pins encoding/json's behaviour, kept: an
// entry with a NaN or infinite value fails Commit with json's error, poisons
// the journal, and appends nothing.
func TestJournalCommitRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, e := range []JournalEntry{
			{Op: JournalUpdate, Obj: 1, X: bad},
			{Op: JournalBatch, Batch: []BatchedUpdate{{Obj: 1, X: 0.5, Y: bad}}},
			{Op: JournalRegister, Kind: KindCircle, Radius: bad},
			{Op: JournalUpdate, T: bad},
		} {
			var out bytes.Buffer
			j := NewJournal(&out, 0)
			j.Begin(JournalEntry{Op: JournalAdd, Obj: 1, X: 0.5, Y: 0.5})
			if err := j.Commit(); err != nil {
				t.Fatal(err)
			}
			before := out.Len()
			j.Begin(e)
			err := j.Commit()
			ref := e
			ref.Seq = 2
			_, refErr := json.Marshal(&ref)
			var uve *json.UnsupportedValueError
			if err == nil || !errors.As(err, &uve) || err.Error() != "core: journal append (seq 2): "+refErr.Error() {
				t.Errorf("Commit(%+v) = %v, want the journal-wrapped %v", e, err, refErr)
			}
			j.Begin(JournalEntry{Op: JournalRemove, Obj: 1})
			if err2 := j.Commit(); err2 != err || j.Err() != err {
				t.Errorf("after a failed Commit: Commit = %v, Err = %v; want the sticky %v", err2, j.Err(), err)
			}
			if out.Len() != before {
				t.Errorf("Commit(%+v) appended %q", e, out.Bytes()[before:])
			}
		}
	}
}

// TestJournalCommitAllocatesNothing: the open entry lives in the Journal,
// its probe answers reuse one array, and the encoded line one buffer, so a
// journaled operation allocates nothing once those have grown.
func TestJournalCommitAllocatesNothing(t *testing.T) {
	j := NewJournal(io.Discard, 0)
	allocs := testing.AllocsPerRun(100, func() {
		j.Begin(JournalEntry{Op: JournalUpdate, Obj: 7, X: 0.25, Y: 0.75})
		j.NoteProbe(3, geom.Pt(0.1, 0.2))
		j.NoteProbe(4, geom.Pt(0.3, 0.4))
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		j.NoteProbe(5, geom.Pt(0.5, 0.6)) // outside an open entry: ignored
		j.Begin(JournalEntry{Op: JournalRemove, Obj: 7})
		j.Abort()
	})
	if allocs != 0 {
		t.Fatalf("Begin/NoteProbe/Commit allocated %v times per op", allocs)
	}
	var out bytes.Buffer
	j = NewJournal(&out, 0)
	j.Begin(JournalEntry{Op: JournalUpdate, Obj: 1, X: 0.5, Y: 0.5})
	j.NoteProbe(2, geom.Pt(0.1, 0.2))
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	j.NoteProbe(9, geom.Pt(0.9, 0.9))
	j.Begin(JournalEntry{Op: JournalRemove, Obj: 1})
	j.Abort()
	j.Begin(JournalEntry{Op: JournalUpdate, Obj: 3, X: 0.5, Y: 0.5})
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"t":0,"op":"update","obj":1,"x":0.5,"y":0.5,"probes":[{"id":2,"x":0.1,"y":0.2}]}` + "\n" +
		`{"seq":2,"t":0,"op":"update","obj":3,"x":0.5,"y":0.5}` + "\n"
	if out.String() != want {
		t.Fatalf("journal:\n%s\nwant\n%s", out.String(), want)
	}
}
