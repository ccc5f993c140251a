package core

import (
	"bytes"
	"math/rand"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	w := newWorld(t, Options{GridM: 8})
	for i := 0; i < 120; i++ {
		w.add(uint64(i), geom.Pt(rng.Float64(), rng.Float64()))
	}
	_, ups, err := w.mon.RegisterRange(1, geom.R(0.2, 0.2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	_, ups, err = w.mon.RegisterKNN(2, geom.Pt(0.7, 0.7), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	_, ups, err = w.mon.RegisterKNN(3, geom.Pt(0.3, 0.8), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	w.apply(ups)
	_, cups, err := w.mon.RegisterCount(4, geom.R(0.6, 0.1, 0.9, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	w.apply(cups)
	// Churn a little so state is non-trivial.
	for step := 0; step < 200; step++ {
		id := uint64(rng.Intn(120))
		p := w.pos[id]
		w.move(id, geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.1), clamp01(p.Y+(rng.Float64()-0.5)*0.1)))
		got, _ := w.mon.Results(1)
		if !equalSeq(sortedCopy(got), w.bruteRange(geom.R(0.2, 0.2, 0.5, 0.5))) {
			sr, _ := w.mon.SafeRegion(id)
			t.Fatalf("churn step %d: moved %d to %v srvSR=%v clientR=%v; got %v want %v", step, id, w.pos[id], sr,
				w.safe[id], sortedCopy(got), w.bruteRange(geom.R(0.2, 0.2, 0.5, 0.5)))
		}
	}
	w.mon.SetTime(3.5)

	var buf bytes.Buffer
	if err := w.mon.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := New(Options{GridM: 8}, ProberFunc(func(id uint64) geom.Point { return w.pos[id] }), nil)
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}
	if restored.Now() != 3.5 {
		t.Fatalf("Now = %v", restored.Now())
	}
	if restored.NumObjects() != w.mon.NumObjects() || restored.NumQueries() != w.mon.NumQueries() {
		t.Fatal("population mismatch after restore")
	}
	for _, qid := range []query.ID{1, 2, 3, 4} {
		a, _ := w.mon.Results(qid)
		b, _ := restored.Results(qid)
		if !equalSeq(a, b) {
			t.Fatalf("query %d results differ: %v vs %v", qid, a, b)
		}
		qa, _ := w.mon.Query(qid)
		qb, _ := restored.Query(qid)
		if qa.QRadius != qb.QRadius || qa.Aggregate != qb.Aggregate || qa.OrderSensitive != qb.OrderSensitive {
			t.Fatalf("query %d parameters differ", qid)
		}
	}
	for i := 0; i < 120; i++ {
		ra, _ := w.mon.SafeRegion(uint64(i))
		rb, _ := restored.SafeRegion(uint64(i))
		if ra != rb {
			t.Fatalf("object %d safe region differs: %v vs %v", i, ra, rb)
		}
	}
	// The restored monitor keeps operating correctly.
	for step := 0; step < 100; step++ {
		id := uint64(rng.Intn(120))
		p := w.pos[id]
		np := geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.1), clamp01(p.Y+(rng.Float64()-0.5)*0.1))
		w.pos[id] = np
		sr, _ := restored.SafeRegion(id)
		if !sr.Contains(np) {
			restored.Update(id, np)
		}
		got, _ := restored.Results(1)
		if !equalSeq(sortedCopy(got), w.bruteRange(geom.R(0.2, 0.2, 0.5, 0.5))) {
			orig, _ := w.mon.Results(1)
			t.Fatalf("restored monitor drifted at step %d (moved obj %d to %v, sr=%v): got %v want %v orig %v",
				step, id, np, sr, sortedCopy(got), w.bruteRange(geom.R(0.2, 0.2, 0.5, 0.5)), sortedCopy(orig))
		}
	}
}

func TestLoadSnapshotRejectsNonEmpty(t *testing.T) {
	w := newWorld(t, Options{})
	w.add(1, geom.Pt(0.5, 0.5))
	var buf bytes.Buffer
	if err := w.mon.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := w.mon.LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("loading into a non-empty monitor must fail")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	m := New(Options{}, ProberFunc(func(uint64) geom.Point { return geom.Point{} }), nil)
	if err := m.LoadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestSnapshotEmptyMonitor(t *testing.T) {
	m := New(Options{}, ProberFunc(func(uint64) geom.Point { return geom.Point{} }), nil)
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{}, ProberFunc(func(uint64) geom.Point { return geom.Point{} }), nil)
	if err := m2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if m2.NumObjects() != 0 || m2.NumQueries() != 0 {
		t.Fatal("empty snapshot should restore empty")
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to LoadSnapshot, whose R*-tree is
// built through the packed path: hostile input must return an error and
// never panic. An accepted snapshot must save again, and that save must
// reload and save to the same bytes. The valid seed must come back byte for
// byte.
func FuzzLoadSnapshot(f *testing.F) {
	valid := snapshotSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-7])
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		saved, err := reloadSnapshot(t, data)
		if err != nil {
			return
		}
		again, err := reloadSnapshot(t, saved)
		if err != nil {
			t.Fatalf("a re-saved snapshot does not load: %v", err)
		}
		if !bytes.Equal(saved, again) {
			t.Fatal("reloading a re-saved snapshot changed its bytes")
		}
		if bytes.Equal(data, valid) && !bytes.Equal(saved, data) {
			t.Fatal("the valid seed did not re-save byte for byte")
		}
	})
}

// reloadSnapshot loads data into a fresh monitor, whose prober fails the
// test (loading never probes), and returns the monitor's own snapshot.
func reloadSnapshot(t *testing.T, data []byte) ([]byte, error) {
	m := New(Options{GridM: 8}, ProberFunc(func(id uint64) geom.Point {
		t.Fatalf("LoadSnapshot probed object %d", id)
		return geom.Point{}
	}), nil)
	if err := m.LoadSnapshot(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), nil
}

// snapshotSeed saves a monitor holding 60 moved objects and one query of
// each kind.
func snapshotSeed(f *testing.F) []byte {
	rng := rand.New(rand.NewSource(7))
	pos := map[uint64]geom.Point{}
	m := New(Options{GridM: 8}, ProberFunc(func(id uint64) geom.Point { return pos[id] }), nil)
	for i := uint64(0); i < 60; i++ {
		pos[i] = geom.Pt(rng.Float64(), rng.Float64())
		m.AddObject(i, pos[i])
	}
	_, _, err1 := m.RegisterRange(1, geom.R(0.2, 0.2, 0.5, 0.5))
	_, _, err2 := m.RegisterKNN(2, geom.Pt(0.7, 0.7), 3, true)
	_, _, err3 := m.RegisterWithinDistance(3, geom.Pt(0.3, 0.8), 0.15)
	_, _, err4 := m.RegisterCount(4, geom.R(0.6, 0.1, 0.9, 0.4))
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			f.Fatal(err)
		}
	}
	m.SetTime(1)
	for i := uint64(0); i < 60; i += 3 {
		pos[i] = geom.Pt(clamp01(pos[i].X+0.05), clamp01(pos[i].Y-0.05))
		m.Update(i, pos[i])
	}
	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
