package srb_test

// Concurrency stress for the thread-safe ParallelMonitor facade: readers
// hammer Results/SafeRegion/Stats/counts while a writer goroutine applies
// update batches (UpdateBatch) or single updates (Update). The test
// carries no assertions beyond liveness and internal invariants — its job is
// to give `go test -race` enough interleavings to catch locking mistakes.

import (
	"math/rand"
	"sync"
	"testing"

	"srb"
)

func stressOptions() srb.Options {
	return srb.Options{Space: srb.R(0, 0, 1, 1), GridM: 10}
}

func runStress(t *testing.T, mon *srb.ParallelMonitor, update func(tick int, batch []srb.ObjectUpdate)) {
	t.Helper()
	const nObj = 80
	nTicks, nReaders := 60, 8
	if testing.Short() {
		nTicks, nReaders = 15, 4
	}

	rng := rand.New(rand.NewSource(7))
	mon.SetTime(0)
	for i := 0; i < nObj; i++ {
		mon.AddObject(uint64(i), srb.Pt(rng.Float64(), rng.Float64()))
	}
	for q := 0; q < 6; q++ {
		if q%2 == 0 {
			x, y := rng.Float64()*0.8, rng.Float64()*0.8
			if _, _, err := mon.RegisterRange(srb.QueryID(q+1), srb.R(x, y, x+0.2, y+0.2)); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, _, err := mon.RegisterKNN(srb.QueryID(q+1), srb.Pt(rng.Float64(), rng.Float64()), 3, true); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(4) {
				case 0:
					mon.Results(srb.QueryID(1 + rng.Intn(6)))
				case 1:
					mon.SafeRegion(uint64(rng.Intn(nObj)))
				case 2:
					mon.Stats()
				default:
					mon.NumObjects()
					mon.NumQueries()
				}
			}
		}(int64(r))
	}

	// Writer: one batch per tick plus occasional query churn, racing the
	// readers above.
	for tick := 1; tick <= nTicks; tick++ {
		mon.SetTime(float64(tick) * 0.1)
		batch := make([]srb.ObjectUpdate, 0, nObj/2)
		for i := 0; i < nObj; i += 2 {
			batch = append(batch, srb.ObjectUpdate{ID: uint64(i), Loc: srb.Pt(rng.Float64(), rng.Float64())})
		}
		update(tick, batch)
		if tick%10 == 0 {
			qid := srb.QueryID(1 + rng.Intn(6))
			mon.Deregister(qid)
			x, y := rng.Float64()*0.8, rng.Float64()*0.8
			if _, _, err := mon.RegisterRange(qid, srb.R(x, y, x+0.2, y+0.2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if n := mon.NumObjects(); n != nObj {
		t.Fatalf("object count drifted: %d", n)
	}
}

func TestStressParallelMonitor(t *testing.T) {
	var pos sync.Map
	prober := srb.ProberFunc(func(id uint64) srb.Point {
		if p, ok := pos.Load(id); ok {
			return p.(srb.Point)
		}
		return srb.Point{}
	})
	mon := srb.NewParallelMonitor(stressOptions(), 4, prober, nil)
	runStress(t, mon, func(_ int, batch []srb.ObjectUpdate) {
		for _, u := range batch {
			pos.Store(u.ID, u.Loc)
		}
		mon.UpdateBatch(batch)
	})
	if bs := mon.BatchStats(); bs.Updates == 0 {
		t.Fatalf("stress applied no batched updates: %+v", bs)
	}
}

// TestStressConcurrentMonitor drives the same facade through single Update
// calls with no batch worker ever started.
func TestStressConcurrentMonitor(t *testing.T) {
	var pos sync.Map
	prober := srb.ProberFunc(func(id uint64) srb.Point {
		if p, ok := pos.Load(id); ok {
			return p.(srb.Point)
		}
		return srb.Point{}
	})
	mon := srb.NewParallelMonitor(stressOptions(), 0, prober, nil)
	runStress(t, mon, func(_ int, batch []srb.ObjectUpdate) {
		for _, u := range batch {
			pos.Store(u.ID, u.Loc)
			mon.Update(u.ID, u.Loc)
		}
	})
}
