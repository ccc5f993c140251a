package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"srb/internal/geom"
	"srb/internal/query"
)

// TestPackedTreeMatchesIncremental feeds one AddObject/Register/Update/
// Deregister/RemoveObject stream over range, kNN, within-distance and COUNT
// queries to two monitors. The first packs its initial population when the
// first query reads the tree; the second places its tree item by item,
// because m.tree.Root() runs right after its first AddObject. Grants, pushed
// results, stats, results, regions and snapshot bytes must be identical: the
// tree's shape must not show (DESIGN.md §14).
func TestPackedTreeMatchesIncremental(t *testing.T) {
	for _, opt := range []Options{
		{GridM: 10},
		{GridM: 10, MaxSpeed: 0.2, Steadiness: 0.5, CellNeighborhood: 1},
	} {
		t.Run(fmt.Sprintf("maxspeed=%g", opt.MaxSpeed), func(t *testing.T) {
			runPackedVsIncremental(t, opt, 700, 40)
		})
	}
}

func runPackedVsIncremental(t *testing.T, opt Options, nObj, ticks int) {
	rng := rand.New(rand.NewSource(int64(nObj)))
	pos := map[uint64]geom.Point{}
	prober := ProberFunc(func(id uint64) geom.Point { return pos[id] })
	var pushedA, pushedB []ResultUpdate
	packed := New(opt, prober, func(u ResultUpdate) { pushedA = append(pushedA, u) })
	inc := New(opt, prober, func(u ResultUpdate) { pushedB = append(pushedB, u) })
	same := func(ctx string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: packed %v, incremental %v", ctx, a, b)
		}
	}
	now := 0.0
	setTime := func(v float64) {
		now = v
		packed.SetTime(v)
		inc.SetTime(v)
	}
	add := func(id uint64) {
		p := geom.Pt(rng.Float64(), rng.Float64())
		pos[id] = p
		same(fmt.Sprintf("AddObject(%d)", id), packed.AddObject(id, p), inc.AddObject(id, p))
	}
	var qids []query.ID
	nextQID := query.ID(1)
	register := func() {
		qid := nextQID
		nextQID++
		var ra, rb []uint64
		var ua, ub []SafeRegionUpdate
		var ea, eb error
		c := geom.Pt(rng.Float64(), rng.Float64())
		switch qid % 4 {
		case 0:
			r := geom.R(c.X, c.Y, c.X+0.05+rng.Float64()*0.15, c.Y+0.05+rng.Float64()*0.15)
			ra, ua, ea = packed.RegisterRange(qid, r)
			rb, ub, eb = inc.RegisterRange(qid, r)
		case 1:
			k, ordered := 1+rng.Intn(8), rng.Intn(2) == 0
			ra, ua, ea = packed.RegisterKNN(qid, c, k, ordered)
			rb, ub, eb = inc.RegisterKNN(qid, c, k, ordered)
		case 2:
			rad := 0.03 + rng.Float64()*0.1
			ra, ua, ea = packed.RegisterWithinDistance(qid, c, rad)
			rb, ub, eb = inc.RegisterWithinDistance(qid, c, rad)
		default:
			r := geom.R(c.X, c.Y, c.X+0.05+rng.Float64()*0.2, c.Y+0.05+rng.Float64()*0.2)
			var na, nb int
			na, ua, ea = packed.RegisterCount(qid, r)
			nb, ub, eb = inc.RegisterCount(qid, r)
			same(fmt.Sprintf("RegisterCount(%d)", qid), na, nb)
		}
		if ea != nil || eb != nil {
			t.Fatalf("register %d: %v, %v", qid, ea, eb)
		}
		same(fmt.Sprintf("register %d results", qid), ra, rb)
		same(fmt.Sprintf("register %d grants", qid), ua, ub)
		qids = append(qids, qid)
	}
	check := func(ctx string) {
		t.Helper()
		same(ctx+": pushed results", pushedA, pushedB)
		pushedA, pushedB = nil, nil
		same(ctx+": stats", packed.Stats(), inc.Stats())
		for _, qid := range qids {
			a, _ := packed.Results(qid)
			b, _ := inc.Results(qid)
			same(fmt.Sprintf("%s: query %d results", ctx, qid), a, b)
		}
		for id := range pos {
			a, _ := packed.SafeRegion(id)
			b, _ := inc.SafeRegion(id)
			same(fmt.Sprintf("%s: object %d region", ctx, id), a, b)
		}
	}

	for i := 0; i < nObj; i++ {
		add(uint64(i))
		if i == 0 {
			inc.tree.Root()
		}
	}
	for i := 0; i < 16; i++ {
		register()
	}
	check("after registration")
	if s, _, _, _ := packed.tree.Stats(); s != 0 {
		t.Fatalf("packed tree split %d times during the initial population", s)
	}
	if s, _, _, _ := inc.tree.Stats(); s == 0 {
		t.Fatal("incremental tree never split: it was not built by R* inserts")
	}

	nextObj := uint64(nObj)
	for tick := 1; tick <= ticks; tick++ {
		ctx := fmt.Sprintf("tick %d", tick)
		setTime(now + 0.1)
		var movers []uint64
		for id, p := range pos {
			np := geom.Pt(clamp01(p.X+(rng.Float64()-0.5)*0.02), clamp01(p.Y+(rng.Float64()-0.5)*0.02))
			pos[id] = np
			if r, _ := packed.SafeRegion(id); !r.Contains(np) {
				movers = append(movers, id)
			}
		}
		sort.Slice(movers, func(i, j int) bool { return movers[i] < movers[j] })
		for _, id := range movers {
			same(fmt.Sprintf("%s: Update(%d)", ctx, id), packed.Update(id, pos[id]), inc.Update(id, pos[id]))
		}
		check(ctx)
		if tick%5 == 0 {
			victim := qids[0]
			qids = qids[1:]
			same(fmt.Sprintf("%s: Deregister(%d)", ctx, victim), packed.Deregister(victim), inc.Deregister(victim))
			register()
			check(ctx + " (query churn)")
		}
		if tick%7 == 0 {
			id := uint64(rng.Intn(int(nextObj)))
			if _, ok := pos[id]; ok {
				same(fmt.Sprintf("%s: RemoveObject(%d)", ctx, id), packed.RemoveObject(id), inc.RemoveObject(id))
				delete(pos, id)
			}
			add(nextObj)
			nextObj++
			check(ctx + " (object churn)")
		}
	}
	var sa, sb bytes.Buffer
	if err := packed.SaveSnapshot(&sa); err != nil {
		t.Fatal(err)
	}
	if err := inc.SaveSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("snapshots differ between the packed and the incremental monitor")
	}
	for _, m := range []*Monitor{packed, inc} {
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if st := packed.Stats(); st.SourceUpdates == 0 || st.Probes == 0 {
		t.Fatalf("stream too quiet to compare anything: %+v", st)
	}
}
