package sim

import (
	"fmt"
	"time"

	"srb/internal/exact"
	"srb/internal/geom"
	"srb/internal/query"
	"srb/internal/rtree"
)

// RunPRDGrid simulates periodic monitoring with a grid-based in-memory
// reevaluation structure instead of an R*-tree rebuild — the flavor of the
// paper's related work [14, 28] (Kalashnikov et al., Yu et al.). Its accuracy
// profile is identical to RunPRD at the same period; only the server CPU
// differs (grid rebuilds are cheaper than R*-tree rebuilds, which is exactly
// why those papers proposed them).
func RunPRDGrid(cfg Config, tPrd float64) Result {
	curs := newCursors(cfg)
	specs := genQueries(cfg)
	tr := newTruth(cfg, curs)

	res := Result{Scheme: fmt.Sprintf("PRD-Grid(%g)", tPrd)}
	var cpu time.Duration
	monitored := make(map[int][]uint64, len(specs))

	evaluate := func(t float64) {
		start := time.Now()
		m := 1
		for m*m < cfg.N/4 {
			m++
		}
		if m > 256 {
			m = 256
		}
		ix := exact.New(m, cfg.Space)
		for i := 0; i < cfg.N; i++ {
			ix.Set(uint64(i), curs[i].At(t))
		}
		for i, qs := range specs {
			if qs.Kind == query.KindRange {
				monitored[i] = ix.Range(qs.Rect)
			} else {
				nbs := ix.KNN(qs.Point, qs.K, nil)
				ids := make([]uint64, len(nbs))
				for j, nb := range nbs {
					ids[j] = nb.ID
				}
				monitored[i] = ids
			}
		}
		cpu += time.Since(start)
	}

	evaluate(0)
	updates := int64(cfg.N)
	nextSync := tPrd
	var okSamples, totalSamples int64

	for i := 0; ; i++ {
		ts := (float64(i) + 0.5) * cfg.SampleEvery
		if ts > cfg.Duration {
			break
		}
		for nextSync+cfg.Tau <= ts+1e-12 && nextSync <= cfg.Duration {
			evaluate(nextSync)
			updates += int64(cfg.N)
			nextSync += tPrd
		}
		tr.advance(ts)
		for i, qs := range specs {
			if sameResult(qs, monitored[i], tr.results(qs)) {
				okSamples++
			}
			totalSamples++
		}
		trim := ts
		if nextSync < trim {
			trim = nextSync
		}
		for _, c := range curs {
			c.Trim(trim)
		}
	}
	for nextSync <= cfg.Duration {
		evaluate(nextSync)
		updates += int64(cfg.N)
		nextSync += tPrd
	}

	res.Updates = updates
	res.CPUTime = cpu
	finalize(&res, cfg, okSamples, totalSamples, curs)
	return res
}

// RunPRD simulates the traditional periodic monitoring scheme: every tPrd
// time units all N clients report their positions simultaneously and the
// server reevaluates every registered query. Following the paper's setup,
// the server maintains an R*-tree over the reported positions (rebuilt
// incrementally through updates) and evaluates all queries on it, which makes
// its CPU cost linear in both N and W. Monitored results are stale between
// synchronization points, and a one-way delay τ shifts their validity.
func RunPRD(cfg Config, tPrd float64) Result {
	curs := newCursors(cfg)
	specs := genQueries(cfg)
	tr := newTruth(cfg, curs)

	res := Result{Scheme: fmt.Sprintf("PRD(%g)", tPrd)}
	var cpu time.Duration

	monitored := make(map[int][]uint64, len(specs))

	evaluate := func(t float64) {
		start := time.Now()
		// The paper's PRD builds a new R*-tree at every synchronization
		// instant ("they need to build a new R*-tree for query reevaluation
		// at each location updating instance"), which is what makes its CPU
		// cost linear in N with a large constant. The tree is built by R*
		// insertion: Root places the first item, so the rest are not
		// buffered for STR packing.
		tree := rtree.New()
		for i := 0; i < cfg.N; i++ {
			tree.Insert(uint64(i), geom.RectAround(curs[i].At(t)))
			if i == 0 {
				tree.Root()
			}
		}
		for i, qs := range specs {
			if qs.Kind == query.KindRange {
				var ids []uint64
				tree.Search(qs.Rect, func(it rtree.Item) bool {
					ids = append(ids, it.ID)
					return true
				})
				monitored[i] = ids
			} else {
				items := tree.KNearest(qs.Point, qs.K)
				ids := make([]uint64, len(items))
				for j, it := range items {
					ids[j] = it.ID
				}
				monitored[i] = ids
			}
		}
		cpu += time.Since(start)
	}

	// Initial synchronization at t=0 (results available after the delay).
	evaluate(0)
	updates := int64(cfg.N)
	nextSync := tPrd
	var okSamples, totalSamples int64

	for i := 0; ; i++ {
		ts := (float64(i) + 0.5) * cfg.SampleEvery
		if ts > cfg.Duration {
			break
		}
		// Process every synchronization point whose results are available by
		// this sample instant (positions sent at kT are processed at kT+τ).
		for nextSync+cfg.Tau <= ts+1e-12 && nextSync <= cfg.Duration {
			evaluate(nextSync)
			updates += int64(cfg.N)
			nextSync += tPrd
		}
		tr.advance(ts)
		for i, qs := range specs {
			if sameResult(qs, monitored[i], tr.results(qs)) {
				okSamples++
			}
			totalSamples++
		}
		// Trimming is capped at the last evaluated snapshot so a pending
		// synchronization between samples can still read its positions.
		trim := ts
		if nextSync < trim {
			trim = nextSync
		}
		for _, c := range curs {
			c.Trim(trim)
		}
	}
	// Account for synchronizations after the last sample tick.
	for nextSync <= cfg.Duration {
		evaluate(nextSync)
		updates += int64(cfg.N)
		nextSync += tPrd
	}

	res.Updates = updates
	res.CPUTime = cpu
	finalize(&res, cfg, okSamples, totalSamples, curs)
	return res
}
