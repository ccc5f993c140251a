package srb_test

import (
	"fmt"
	"sort"

	"srb"
)

// sortedIDs returns a sorted copy: result slices preserve maintenance order,
// which is not part of the monitoring contract.
func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The fundamental loop: the server grants safe regions, the client reports
// only when it leaves its region, and results stay exact.
func Example() {
	// True positions; the prober answers server-initiated probes.
	positions := map[uint64]srb.Point{
		1: srb.Pt(0.30, 0.50),
		2: srb.Pt(0.70, 0.50),
	}
	prober := srb.ProberFunc(func(id uint64) srb.Point { return positions[id] })
	mon := srb.NewMonitor(srb.Options{GridM: 10}, prober, nil)

	regions := map[uint64]srb.Rect{}
	grant := func(ups []srb.SafeRegionUpdate) {
		for _, u := range ups {
			regions[u.Object] = u.Region
		}
	}
	grant(mon.AddObject(1, positions[1]))
	grant(mon.AddObject(2, positions[2]))

	// A continuous range query over the west half.
	results, ups, _ := mon.RegisterRange(1, srb.R(0, 0, 0.5, 1))
	grant(ups)
	fmt.Println("west half:", results)

	// Object 2 wanders within its safe region: no message is sent, and the
	// monitored result is still exact.
	positions[2] = srb.Pt(0.72, 0.52)
	if !regions[2].Contains(positions[2]) {
		grant(mon.Update(2, positions[2]))
	}
	r, _ := mon.Results(1)
	fmt.Println("after silent move:", r)

	// Object 2 crosses into the west half: it exits its region, reports, and
	// the result updates.
	positions[2] = srb.Pt(0.40, 0.52)
	if !regions[2].Contains(positions[2]) {
		grant(mon.Update(2, positions[2]))
	}
	r, _ = mon.Results(1)
	fmt.Println("after crossing:", len(r), "objects")

	// Output:
	// west half: [1]
	// after silent move: [1]
	// after crossing: 2 objects
}

// A thread-safe monitor whose batch path applies a whole tick of location
// reports at once, bit-identical to sequential ascending-ID processing.
func ExampleParallelMonitor() {
	positions := map[uint64]srb.Point{}
	mon := srb.NewParallelMonitor(srb.Options{GridM: 10}, 4,
		srb.ProberFunc(func(id uint64) srb.Point { return positions[id] }), nil)
	for i := uint64(1); i <= 8; i++ {
		positions[i] = srb.Pt(0.1*float64(i), 0.25)
		mon.AddObject(i, positions[i])
	}
	results, _, _ := mon.RegisterRange(1, srb.R(0, 0, 0.45, 1))
	fmt.Println("west:", sortedIDs(results))

	// One GPS tick delivers several reports; UpdateBatch plans the
	// conflict-free part on the worker pool and applies everything in
	// ascending object-ID order.
	batch := []srb.ObjectUpdate{
		{ID: 2, Loc: srb.Pt(0.60, 0.30)}, // leaves the query rectangle
		{ID: 7, Loc: srb.Pt(0.20, 0.30)}, // enters it
		{ID: 8, Loc: srb.Pt(0.82, 0.26)}, // far from any query
	}
	for _, u := range batch {
		positions[u.ID] = u.Loc
	}
	mon.UpdateBatch(batch)

	r, _ := mon.Results(1)
	fmt.Println("after batch:", sortedIDs(r))
	// Output:
	// west: [1 2 3 4]
	// after batch: [1 3 4 7]
}

// Order-sensitive kNN monitoring returns ranked neighbor lists and keeps them
// exact as objects move.
func ExampleMonitor_RegisterKNN() {
	positions := map[uint64]srb.Point{
		1: srb.Pt(0.10, 0.5),
		2: srb.Pt(0.30, 0.5),
		3: srb.Pt(0.80, 0.5),
	}
	mon := srb.NewMonitor(srb.Options{GridM: 10},
		srb.ProberFunc(func(id uint64) srb.Point { return positions[id] }), nil)
	for id, p := range map[uint64]srb.Point{1: positions[1]} {
		mon.AddObject(id, p)
	}
	mon.AddObject(2, positions[2])
	mon.AddObject(3, positions[3])

	ranked, _, _ := mon.RegisterKNN(7, srb.Pt(0.25, 0.5), 2, true)
	fmt.Println("2-NN of (0.25, 0.5):", ranked)
	// Output:
	// 2-NN of (0.25, 0.5): [2 1]
}

// Aggregate COUNT queries report only the population of a rectangle.
func ExampleMonitor_RegisterCount() {
	positions := map[uint64]srb.Point{}
	mon := srb.NewMonitor(srb.Options{GridM: 10},
		srb.ProberFunc(func(id uint64) srb.Point { return positions[id] }), nil)
	for i := uint64(1); i <= 5; i++ {
		positions[i] = srb.Pt(0.1*float64(i), 0.5)
		mon.AddObject(i, positions[i])
	}
	count, _, _ := mon.RegisterCount(1, srb.R(0, 0, 0.35, 1))
	fmt.Println("objects west of 0.35:", count)
	// Output:
	// objects west of 0.35: 3
}
