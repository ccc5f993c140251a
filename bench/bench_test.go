package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// tiny shrinks a workload to a scale a test can afford while keeping its
// shape: the same query mix, the same client protocol, the same code paths.
func tiny(t *testing.T, name string) params {
	t.Helper()
	p, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	p.n, p.w = 1500, 48
	p.ticks, p.warmTicks, p.sampleEvery = 3, 1, 1
	if p.wire {
		p.n, p.w, p.ticks, p.warmTicks = 400, 16, 1, 2
	}
	// The same 30 objects per query anchor as at full scale would make every
	// query empty at this size; wider queries keep results non-trivial.
	p.qlen = 0.05
	return p
}

// counts are what must repeat exactly for a seed.
type counts struct {
	updates, probes int64
	commCost        float64
	hash            uint64
}

func countsOf(s *runSummary) counts {
	c := counts{commCost: s.e2e["comm_cost"], hash: fnvOffset}
	for _, r := range s.reps {
		c.updates += r.updates + r.sweepUpdates
		c.probes += r.probes
		c.hash = fnv(c.hash, r.hash)
	}
	return c
}

// TestSmoke runs all four workloads at a tiny scale: every one must finish
// with full accuracy, no failed operation and all ten end-to-end metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		res, sum, err := runWorkload(tiny(t, name), 1, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if got := sum.e2e["accuracy"]; got != 1 {
			t.Errorf("%s: accuracy %v, want 1", name, got)
		}
		for _, m := range endToEndNames {
			if v, ok := res.Metrics[m]; !ok || v.Value <= 0 {
				t.Errorf("%s: metric %s = %v, want a positive value", name, m, v.Value)
			}
		}
		if len(res.Metrics) != len(endToEndNames) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(endToEndNames))
		}
	}
}

// TestDeterminism: on the three in-process workloads the same seed gives the
// same updates, probes, comm_cost and hash of every compared result, and
// another seed gives different ones.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"range-seq", "knn-seq", "batch-churn"} {
		p := tiny(t, name)
		var got [3]counts
		for i, seed := range []int64{7, 7, 8} {
			_, sum, err := runWorkload(p, seed, false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			got[i] = countsOf(sum)
		}
		if got[0] != got[1] {
			t.Errorf("%s: seed 7 twice gave %+v and %+v", name, got[0], got[1])
		}
		if got[0].hash == got[2].hash || got[0].updates == got[2].updates {
			t.Errorf("%s: seeds 7 and 8 gave the same work: %+v", name, got[0])
		}
	}
}

// TestTrace runs a traced repetition of every workload and checks the span
// file: every span ends after it starts, and no child sticks out of its
// parent. It also checks that every per-layer metric BENCHMARK.json names is
// reported.
func TestTrace(t *testing.T) {
	manifest := readManifest(t)
	for _, name := range workloadNames() {
		res, _, err := runWorkload(tiny(t, name), 3, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run not correct: attempted %d failed %d", name, res.Attempted, res.Failed)
		}
		for _, m := range manifest.PerLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.Name)
			}
		}
		if len(res.Metrics) != len(manifest.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", name, len(res.Metrics), len(manifest.PerLayer))
		}
		checkSpans(t, filepath.Join(outDir, "trace-"+name+".json"))
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var loose struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(loose.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	type iv struct{ start, end float64 }
	byID := map[float64]iv{}
	for _, e := range loose.TraceEvents {
		s, _ := e.Args["start_ns"].(float64)
		en, _ := e.Args["end_ns"].(float64)
		if en < s {
			t.Errorf("%s: span %v (%s) ends before it starts", path, e.Args["id"], e.Name)
		}
		byID[e.Args["id"].(float64)] = iv{s, en}
	}
	children := 0
	for _, e := range loose.TraceEvents {
		parent, _ := e.Args["parent"].(float64)
		if parent == 0 {
			continue
		}
		children++
		p, ok := byID[parent]
		if !ok {
			t.Errorf("%s: span %v names a missing parent %v", path, e.Args["id"], parent)
			continue
		}
		c := byID[e.Args["id"].(float64)]
		if c.start < p.start || c.end > p.end {
			t.Errorf("%s: span %v (%s) [%v,%v] sticks out of its parent [%v,%v]", path, e.Args["id"], e.Name, c.start, c.end, p.start, p.end)
		}
	}
	if children == 0 {
		t.Errorf("%s: no child spans", path)
	}
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifestFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFile
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifest keeps BENCHMARK.json and the program in step: the same
// workloads with the same reasons, the same end-to-end metrics and units, and
// a run length the tick counts are sized for.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if m.RunSeconds != fullSeconds {
		t.Errorf("run_seconds %d, the tick counts are sized for %d", m.RunSeconds, fullSeconds)
	}
	if len(m.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d", len(m.EndToEnd), len(endToEndNames))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEndNames[i] || e.Unit != endToEndUnits[e.Name] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, e.Name, e.Unit, endToEndNames[i], endToEndUnits[endToEndNames[i]])
		}
		if e.Bound < 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", e.Name, e.Bound)
		}
	}
}
