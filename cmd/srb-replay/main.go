// Command srb-replay records and replays monitor runs in the crash-recovery
// journal format (internal/core/journal.go), the file srb-server -persist
// writes, so the forensic tool and recovery share one format and one
// exactness proof.
//
// Recording generates a synthetic random-waypoint workload against a live
// monitor and journals every operation together with the answers of every
// probe it issued:
//
//	srb-replay -record journal.ndjson -n 500 -duration 10
//
// Replaying rebuilds the run on a fresh monitor, answering every probe from
// the journal, so it reproduces the recorded run bit for bit:
//
//	srb-replay -replay journal.ndjson
//
// A server's journal replays the same way when its -persist directory is
// journal-only (-snapshot-every 0); pass the server's -grid:
//
//	srb-replay -replay DIR/journal.ndjson -grid 50
//
// Two things are out of scope. A directory with a snapshot keeps only the
// journal tail written after it, which srb-replay rejects; recover such a
// directory with srb-server -persist DIR -recover. And the replay monitor
// uses default options apart from -grid, so a journal written by a server
// run with -maxspeed, -steadiness or -cellneighborhood does not replay here.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/mobility"
	"srb/internal/query"
)

func main() {
	var (
		recordPath = flag.String("record", "", "generate a workload and journal it to this file")
		replayPath = flag.String("replay", "", "replay a journal from this file")
		n          = flag.Int("n", 500, "objects (record mode)")
		w          = flag.Int("w", 16, "queries (record mode)")
		duration   = flag.Float64("duration", 10, "time units (record mode)")
		seed       = flag.Int64("seed", 1, "workload seed (record mode)")
		gridM      = flag.Int("grid", 16, "query grid resolution M; must match the recording monitor's")
	)
	flag.Parse()

	switch {
	case *recordPath != "":
		mon, entries, err := record(*recordPath, *n, *w, *duration, *seed, *gridM)
		if err != nil {
			log.Fatal(err)
		}
		st := mon.Stats()
		fmt.Printf("recorded %d journal entries to %s (%d updates, %d probes)\n",
			entries, *recordPath, st.SourceUpdates, st.Probes)
	case *replayPath != "":
		start := time.Now()
		mon, rs, err := replay(*replayPath, *gridM)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replayed %d journal entries in %v (last seq %d, torn tail %v): %d objects, %d queries\n",
			rs.Entries, time.Since(start).Round(time.Millisecond), rs.LastSeq, rs.Torn,
			mon.NumObjects(), mon.NumQueries())
		s := mon.Stats()
		fmt.Printf("server work: %d updates, %d probes, %d reevaluations, %d safe regions\n",
			s.SourceUpdates, s.Probes, s.Reevaluations, s.SafeRegionsBuilt)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// record drives a random-waypoint workload against a live monitor, journals
// it to path, and returns the monitor and the number of entries written.
func record(path string, n, w int, duration float64, seed int64, gridM int) (*core.Monitor, uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, err
	}
	// Backstop for early returns; the success path checks the explicit Close
	// below so a short write surfaces instead of truncating the journal.
	defer f.Close()
	bw := bufio.NewWriter(f)
	j := core.NewJournal(bw, 0)

	rng := rand.New(rand.NewSource(seed))
	space := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	pos := map[uint64]geom.Point{}
	mon := core.New(core.Options{GridM: gridM}, core.ProberFunc(func(id uint64) geom.Point {
		p := pos[id]
		j.NoteProbe(id, p)
		return p
	}), nil)
	regions := map[uint64]geom.Rect{}
	// run brackets one monitor operation in the journal the way remote.Server
	// does: Begin, execute (the prober notes every answer), then Commit, or
	// Abort when a registration is rejected and the monitor is untouched.
	run := func(e core.JournalEntry, op func() ([]core.SafeRegionUpdate, error)) error {
		mon.SetTime(e.T)
		j.Begin(e)
		ups, err := op()
		if err != nil {
			j.Abort()
			return nil
		}
		for _, u := range ups {
			regions[u.Object] = u.Region
		}
		return j.Commit()
	}

	starts := mobility.StartPositions(seed, n, space)
	walkers := make([]*mobility.Waypoint, n)
	for i := 0; i < n; i++ {
		id, p := uint64(i), starts[i]
		walkers[i] = mobility.NewWaypoint(seed, id, space, 0.01, 0.2, p)
		pos[id] = p
		e := core.JournalEntry{Op: core.JournalAdd, Obj: id, X: p.X, Y: p.Y}
		if err := run(e, func() ([]core.SafeRegionUpdate, error) { return mon.AddObject(id, p), nil }); err != nil {
			return nil, 0, err
		}
	}
	for q := 1; q <= w; q++ {
		e := core.JournalEntry{Op: core.JournalRegister, QID: uint64(q)}
		switch q % 4 {
		case 0:
			x, y := rng.Float64()*0.8, rng.Float64()*0.8
			e.Kind, e.MinX, e.MinY, e.MaxX, e.MaxY = core.KindRange, x, y, x+0.1, y+0.1
		case 1:
			e.Kind, e.X, e.Y = core.KindKNN, rng.Float64(), rng.Float64()
			e.K, e.Ordered = 1+rng.Intn(5), true
		case 2:
			e.Kind, e.X, e.Y, e.Radius = core.KindCircle, rng.Float64(), rng.Float64(), 0.1
		default:
			x, y := rng.Float64()*0.8, rng.Float64()*0.8
			e.Kind, e.MinX, e.MinY, e.MaxX, e.MaxY = core.KindCount, x, y, x+0.15, y+0.15
		}
		if err := run(e, func() ([]core.SafeRegionUpdate, error) { return register(mon, e) }); err != nil {
			return nil, 0, err
		}
	}
	for t := 0.0; t < duration; t += 0.02 {
		for i := 0; i < n; i++ {
			id, p := uint64(i), walkers[i].At(t)
			pos[id] = p
			if regions[id].Contains(p) {
				continue
			}
			e := core.JournalEntry{T: t, Op: core.JournalUpdate, Obj: id, X: p.X, Y: p.Y}
			if err := run(e, func() ([]core.SafeRegionUpdate, error) { return mon.Update(id, p), nil }); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	return mon, j.LastSeq(), nil
}

// register issues the query registration a JournalRegister entry describes.
func register(mon *core.Monitor, e core.JournalEntry) ([]core.SafeRegionUpdate, error) {
	qid := query.ID(e.QID)
	rect := geom.Rect{MinX: e.MinX, MinY: e.MinY, MaxX: e.MaxX, MaxY: e.MaxY}
	var ups []core.SafeRegionUpdate
	var err error
	switch e.Kind {
	case core.KindRange:
		_, ups, err = mon.RegisterRange(qid, rect)
	case core.KindCount:
		_, ups, err = mon.RegisterCount(qid, rect)
	case core.KindCircle:
		_, ups, err = mon.RegisterWithinDistance(qid, geom.Pt(e.X, e.Y), e.Radius)
	case core.KindKNN:
		_, ups, err = mon.RegisterKNN(qid, geom.Pt(e.X, e.Y), e.K, e.Ordered)
	default:
		err = fmt.Errorf("unknown query kind %q", e.Kind)
	}
	return ups, err
}

// replay rebuilds a run from the journal at path on a fresh monitor. Every
// probe is answered from the journal, so the monitor's own prober must never
// be called.
func replay(path string, gridM int) (*core.Monitor, core.ReplayStats, error) {
	var rs core.ReplayStats
	f, err := os.Open(path)
	if err != nil {
		return nil, rs, err
	}
	defer f.Close()
	// A journal tail written after a snapshot starts above seq 1, and
	// Monitor.Update of an object the tail never added silently adds it, so
	// replaying the tail on an empty monitor would print a plausible but
	// wrong run.
	br := bufio.NewReader(f)
	first, err := br.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return nil, rs, err
	}
	var head core.JournalEntry
	if json.Unmarshal(first, &head) == nil && head.Seq > 1 {
		return nil, rs, fmt.Errorf("%s starts at seq %d, so it continues a snapshot; recover the whole directory with srb-server -persist DIR -recover", path, head.Seq)
	}
	mon := core.New(core.Options{GridM: gridM}, core.ProberFunc(func(id uint64) geom.Point {
		panic(fmt.Sprintf("srb-replay: object %d probed outside a journal entry", id))
	}), nil)
	rs, err = core.ReplayJournal(io.MultiReader(bytes.NewReader(first), br), mon, 0)
	return mon, rs, err
}
