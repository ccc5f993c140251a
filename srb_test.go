package srb_test

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"srb"
)

// TestPublicAPIRoundTrip drives the exported facade end to end: objects,
// both query kinds, the safe-region protocol and result subscriptions.
func TestPublicAPIRoundTrip(t *testing.T) {
	positions := map[uint64]srb.Point{
		1: srb.Pt(0.45, 0.45),
		2: srb.Pt(0.55, 0.55),
		3: srb.Pt(0.9, 0.9),
	}
	var pushed []srb.ResultUpdate
	mon := srb.NewMonitor(srb.Options{GridM: 10},
		srb.ProberFunc(func(id uint64) srb.Point { return positions[id] }),
		func(u srb.ResultUpdate) { pushed = append(pushed, u) })

	regions := map[uint64]srb.Rect{}
	deliver := func(ups []srb.SafeRegionUpdate) {
		for _, u := range ups {
			regions[u.Object] = u.Region
		}
	}
	for id, p := range positions {
		deliver(mon.AddObject(id, p))
	}

	res, ups, err := mon.RegisterRange(1, srb.R(0.4, 0.4, 0.6, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	deliver(ups)
	sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
	if len(res) != 2 || res[0] != 1 || res[1] != 2 {
		t.Fatalf("range results = %v", res)
	}

	res, ups, err = mon.RegisterKNN(2, srb.Pt(0.5, 0.5), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	deliver(ups)
	if len(res) != 2 {
		t.Fatalf("kNN results = %v", res)
	}

	// Walk object 3 into the rectangle following the protocol.
	for positions[3].X > 0.58 {
		p := positions[3]
		np := srb.Pt(p.X-0.01, p.Y-0.01)
		positions[3] = np
		if !regions[3].Contains(np) {
			deliver(mon.Update(3, np))
		}
	}
	final := srb.Pt(0.5, 0.5)
	positions[3] = final
	if !regions[3].Contains(final) {
		deliver(mon.Update(3, final))
	}
	got, ok := mon.Results(1)
	if !ok || len(got) != 3 {
		t.Fatalf("after entry: results = %v, %v", got, ok)
	}
	if len(pushed) == 0 {
		t.Fatal("expected pushed result updates")
	}
	if n := mon.NumObjects(); n != 3 {
		t.Fatalf("NumObjects = %d", n)
	}
	if n := mon.NumQueries(); n != 2 {
		t.Fatalf("NumQueries = %d", n)
	}
	st := mon.Stats()
	if st.SourceUpdates == 0 || st.SafeRegionsBuilt == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}

func TestConstructors(t *testing.T) {
	if srb.Pt(1, 2) != (srb.Point{X: 1, Y: 2}) {
		t.Fatal("Pt")
	}
	if srb.R(1, 2, 0, -1) != (srb.Rect{MinX: 0, MinY: -1, MaxX: 1, MaxY: 2}) {
		t.Fatal("R must normalize")
	}
}

// TestConcurrentMonitorUnderRace shares one ParallelMonitor between
// goroutines that call its single-update surface.
func TestConcurrentMonitorUnderRace(t *testing.T) {
	var mu sync.Mutex
	positions := map[uint64]srb.Point{}
	getPos := func(id uint64) srb.Point {
		mu.Lock()
		defer mu.Unlock()
		return positions[id]
	}
	setPos := func(id uint64, p srb.Point) {
		mu.Lock()
		defer mu.Unlock()
		positions[id] = p
	}
	mon := srb.NewParallelMonitor(srb.Options{GridM: 8}, 0, srb.ProberFunc(getPos), nil)
	for i := uint64(0); i < 50; i++ {
		setPos(i, srb.Pt(0.02*float64(i), 0.5))
		mon.AddObject(i, getPos(i))
	}
	if _, _, err := mon.RegisterRange(1, srb.R(0.2, 0.2, 0.8, 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mon.RegisterKNN(2, srb.Pt(0.5, 0.5), 3, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mon.RegisterWithinDistance(3, srb.Pt(0.5, 0.5), 0.2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				id := uint64(rng.Intn(50))
				p := srb.Pt(rng.Float64(), rng.Float64())
				setPos(id, p)
				mon.Update(id, p)
				if i%10 == 0 {
					mon.Results(2)
					mon.SafeRegion(id)
					mon.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if mon.NumObjects() != 50 || mon.NumQueries() != 3 {
		t.Fatalf("population drifted: %d objects, %d queries", mon.NumObjects(), mon.NumQueries())
	}
	var buf bytes.Buffer
	if err := mon.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := srb.NewParallelMonitor(srb.Options{GridM: 8}, 0, srb.ProberFunc(getPos), nil)
	if err := restored.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.NumObjects() != 50 {
		t.Fatal("snapshot through wrapper failed")
	}
	mon.Deregister(3)
	mon.RemoveObject(49)
	if mon.NumObjects() != 49 || mon.NumQueries() != 2 {
		t.Fatal("teardown")
	}
	if _, _, err := mon.RegisterCount(4, srb.R(0, 0, 0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	mon.SetTime(1)
}
