package sim

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Table is a reproduced figure or table: one row per x-value, one column per
// series, mirroring the series the paper plots. Columns are seed-deterministic
// (costs, accuracy, counts); CPUColumns hold wall-clock timings, which no two
// runs repeat, so a record compares Columns and only reports CPUColumns.
type Table struct {
	ID         string     `json:"id"`
	Title      string     `json:"title"`
	XLabel     string     `json:"x_label"`
	Columns    []string   `json:"columns,omitempty"`
	CPUColumns []string   `json:"cpu_columns,omitempty"`
	Rows       []TableRow `json:"rows"`
}

// TableRow is one x-value with the measured series values, in the order of
// the table's Columns and CPUColumns. A named row prints its Name instead of
// X.
type TableRow struct {
	Name   string    `json:"name,omitempty"`
	X      float64   `json:"x"`
	Values []float64 `json:"values,omitempty"`
	CPU    []float64 `json:"cpu,omitempty"`
}

// Format renders the table as aligned text for terminals and EXPERIMENTS.md.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	b.WriteString(padLeft(t.XLabel, 14))
	for _, cols := range [][]string{t.Columns, t.CPUColumns} {
		for _, c := range cols {
			b.WriteString(" " + padLeft(c, 16))
		}
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		if r.Name != "" {
			b.WriteString(padLeft(r.Name, 14))
		} else {
			fmt.Fprintf(&b, "%14.4g", r.X)
		}
		for _, vs := range [][]float64{r.Values, r.CPU} {
			for _, v := range vs {
				fmt.Fprintf(&b, " %16.6g", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// padLeft right-aligns s in w columns. Unlike fmt's width it skips combining
// marks (unicode.Mn, the macron of table7.1's v̄), which take no column.
func padLeft(s string, w int) string {
	for _, r := range s {
		if !unicode.Is(unicode.Mn, r) {
			w--
		}
	}
	return strings.Repeat(" ", max(w, 0)) + s
}

// Experiment regenerates one of the paper's figures at the configured scale.
type Experiment struct {
	ID    string
	Title string
	Run   func(base Config) Table
}

// Experiments returns the full per-figure index of Section 7, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table7.1", "Default simulation parameters", TableDefaults},
		{"fig7.1a", "Monitoring accuracy vs communication delay τ", Fig71a},
		{"fig7.1b", "Communication cost vs communication delay τ", Fig71b},
		{"fig7.2a", "Server CPU time vs number of queries W", Fig72a},
		{"fig7.2b", "Communication cost vs number of queries W", Fig72b},
		{"fig7.3a", "Server CPU time vs number of objects N", Fig73a},
		{"fig7.3b", "Communication cost vs number of objects N", Fig73b},
		{"fig7.4a", "Communication cost vs average speed v̄", Fig74a},
		{"fig7.4b", "Communication cost vs movement period t̄v", Fig74b},
		{"fig7.5", "Cost and CPU time vs grid partitioning M", Fig75},
		{"fig7.6a", "Reachability-circle enhancement vs W", Fig76a},
		{"fig7.6b", "Weighted-perimeter enhancement vs t̄v", Fig76b},
		{"figL.1", "Accuracy and cost vs wireless loss rate (lossy-link extension)", FigL1},
	}
}

// ExperimentByID finds an experiment by its figure/table identifier.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// TableDefaults reports the effective parameter set (Table 7.1 analogue),
// one named row per parameter.
func TableDefaults(base Config) Table {
	t := Table{
		ID:      "table7.1",
		Title:   "Simulation parameters in effect",
		XLabel:  "parameter",
		Columns: []string{"value"},
	}
	add := func(name string, v float64) {
		t.Rows = append(t.Rows, TableRow{Name: name, X: float64(len(t.Rows)), Values: []float64{v}})
	}
	add("N", float64(base.N))
	add("W", float64(base.W))
	add("v̄", base.MeanSpeed)
	add("t̄v", base.MeanPeriod)
	add("qlen", base.QLen)
	add("kmax", float64(base.KMax))
	add("M", float64(base.GridM))
	add("horizon", base.Duration)
	return t
}

// Fig71a sweeps the one-way delay τ and reports monitoring accuracy for SRB,
// PRD(0.1) and PRD(1). The paper's shape: SRB starts at 100 % and degrades
// slowly; PRD(0.1) starts near 90 % and degrades quickly; PRD(1) is poor and
// flat.
func Fig71a(base Config) Table {
	t := Table{ID: "fig7.1a", Title: "Monitoring accuracy vs τ", XLabel: "tau",
		Columns: []string{"SRB", "PRD(0.1)", "PRD(1)"}}
	for _, tau := range []float64{0, 0.1, 0.25, 0.5, 0.75, 1} {
		cfg := base
		cfg.Tau = tau
		t.Rows = append(t.Rows, TableRow{X: tau, Values: []float64{
			RunSRB(cfg).Accuracy,
			RunPRD(cfg, 0.1).Accuracy,
			RunPRD(cfg, 1).Accuracy,
		}})
	}
	return t
}

// Fig71b sweeps τ and reports the per-client communication cost; all schemes
// are essentially flat in τ, with OPT < SRB < PRD(1) < PRD(0.1)=10.
func Fig71b(base Config) Table {
	t := Table{ID: "fig7.1b", Title: "Communication cost vs τ", XLabel: "tau",
		Columns: []string{"OPT", "SRB", "PRD(1)", "PRD(0.1)"}}
	for _, tau := range []float64{0, 0.25, 0.5, 1} {
		cfg := base
		cfg.Tau = tau
		t.Rows = append(t.Rows, TableRow{X: tau, Values: []float64{
			RunOPT(cfg).CommPerClientTime,
			RunSRB(cfg).CommPerClientTime,
			RunPRD(cfg, 1).CommPerClientTime,
			RunPRD(cfg, 0.1).CommPerClientTime,
		}})
	}
	return t
}

// querySweep returns a geometric sweep of query counts up to base.W.
func querySweep(base Config) []int {
	ws := []int{}
	start := base.W / 16
	if start < 2 {
		start = 2
	}
	for w := start; w <= base.W; w *= 2 {
		ws = append(ws, w)
	}
	if len(ws) == 0 || ws[len(ws)-1] != base.W {
		ws = append(ws, base.W)
	}
	sort.Ints(ws)
	return ws
}

// Fig72a sweeps W and reports server CPU seconds per time unit: sublinear for
// SRB, linear for the PRD family.
func Fig72a(base Config) Table {
	t := Table{ID: "fig7.2a", Title: "CPU time per time unit vs W", XLabel: "W",
		CPUColumns: []string{"SRB", "PRD(1)", "PRD(0.1)", "PRDGrid(0.1)"}}
	for _, w := range querySweep(base) {
		cfg := base
		cfg.W = w
		t.Rows = append(t.Rows, TableRow{X: float64(w), CPU: []float64{
			RunSRB(cfg).CPUPerTimeUnit,
			RunPRD(cfg, 1).CPUPerTimeUnit,
			RunPRD(cfg, 0.1).CPUPerTimeUnit,
			RunPRDGrid(cfg, 0.1).CPUPerTimeUnit,
		}})
	}
	return t
}

// Fig72b sweeps W and reports communication cost: SRB grows sublinearly and
// stays close to OPT.
func Fig72b(base Config) Table {
	t := Table{ID: "fig7.2b", Title: "Communication cost vs W", XLabel: "W",
		Columns: []string{"OPT", "SRB"}}
	for _, w := range querySweep(base) {
		cfg := base
		cfg.W = w
		t.Rows = append(t.Rows, TableRow{X: float64(w), Values: []float64{
			RunOPT(cfg).CommPerClientTime,
			RunSRB(cfg).CommPerClientTime,
		}})
	}
	return t
}

func objectSweep(base Config) []int {
	ns := []int{}
	start := base.N / 16
	if start < 50 {
		start = 50
	}
	for n := start; n <= base.N; n *= 2 {
		ns = append(ns, n)
	}
	if len(ns) == 0 || ns[len(ns)-1] != base.N {
		ns = append(ns, base.N)
	}
	sort.Ints(ns)
	return ns
}

// Fig73a sweeps N and reports CPU time: sublinear for SRB, (hyper)linear for
// PRD.
func Fig73a(base Config) Table {
	t := Table{ID: "fig7.3a", Title: "CPU time per time unit vs N", XLabel: "N",
		CPUColumns: []string{"SRB", "PRD(1)", "PRD(0.1)", "PRDGrid(0.1)"}}
	for _, n := range objectSweep(base) {
		cfg := base
		cfg.N = n
		t.Rows = append(t.Rows, TableRow{X: float64(n), CPU: []float64{
			RunSRB(cfg).CPUPerTimeUnit,
			RunPRD(cfg, 1).CPUPerTimeUnit,
			RunPRD(cfg, 0.1).CPUPerTimeUnit,
			RunPRDGrid(cfg, 0.1).CPUPerTimeUnit,
		}})
	}
	return t
}

// Fig73b sweeps N and reports communication cost for OPT and SRB.
func Fig73b(base Config) Table {
	t := Table{ID: "fig7.3b", Title: "Communication cost vs N", XLabel: "N",
		Columns: []string{"OPT", "SRB"}}
	for _, n := range objectSweep(base) {
		cfg := base
		cfg.N = n
		t.Rows = append(t.Rows, TableRow{X: float64(n), Values: []float64{
			RunOPT(cfg).CommPerClientTime,
			RunSRB(cfg).CommPerClientTime,
		}})
	}
	return t
}

// Fig74a sweeps the mean speed v̄: the per-time cost grows linearly while the
// per-distance cost stays flat.
func Fig74a(base Config) Table {
	t := Table{ID: "fig7.4a", Title: "Communication cost vs v̄", XLabel: "v",
		Columns: []string{"SRB/time", "SRB/distance"}}
	for _, v := range []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1} {
		cfg := base
		cfg.MeanSpeed = v
		r := RunSRB(cfg)
		t.Rows = append(t.Rows, TableRow{X: v, Values: []float64{
			r.CommPerClientTime, r.CommPerDistance,
		}})
	}
	return t
}

// Fig74b sweeps the constant movement period t̄v: SRB is insensitive to it.
func Fig74b(base Config) Table {
	t := Table{ID: "fig7.4b", Title: "Communication cost vs t̄v", XLabel: "tv",
		Columns: []string{"SRB/time", "SRB/distance"}}
	for _, tv := range []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1} {
		cfg := base
		cfg.MeanPeriod = tv
		r := RunSRB(cfg)
		t.Rows = append(t.Rows, TableRow{X: tv, Values: []float64{
			r.CommPerClientTime, r.CommPerDistance,
		}})
	}
	return t
}

// Fig75 sweeps the grid resolution M: communication cost grows with M (cells
// cap safe regions) while CPU time falls (fewer relevant queries per cell).
func Fig75(base Config) Table {
	t := Table{ID: "fig7.5", Title: "Cost and CPU vs grid partitioning M", XLabel: "M",
		Columns: []string{"SRB comm"}, CPUColumns: []string{"SRB cpu"}}
	for _, m := range []int{5, 10, 20, 50, 100} {
		cfg := base
		cfg.GridM = m
		r := RunSRB(cfg)
		t.Rows = append(t.Rows, TableRow{X: float64(m),
			Values: []float64{r.CommPerClientTime}, CPU: []float64{r.CPUPerTimeUnit}})
	}
	return t
}

// Fig76a compares plain SRB against SRB with the reachability circle
// (Section 6.1) across W, reporting both costs and the improvement ratio.
func Fig76a(base Config) Table {
	t := Table{ID: "fig7.6a", Title: "Reachability-circle enhancement vs W", XLabel: "W",
		Columns: []string{"SRB", "SRB+MaxSpeed", "improvement%"}}
	for _, w := range querySweep(base) {
		cfg := base
		cfg.W = w
		plain := RunSRB(cfg).CommPerClientTime
		cfg.MaxSpeed = 2 * cfg.MeanSpeed
		enh := RunSRB(cfg).CommPerClientTime
		imp := 0.0
		if plain > 0 {
			imp = 100 * (plain - enh) / plain
		}
		t.Rows = append(t.Rows, TableRow{X: float64(w), Values: []float64{plain, enh, imp}})
	}
	return t
}

// FigL1 goes beyond the paper (which assumes a reliable link): it sweeps the
// wireless loss rate and reports SRB's monitoring accuracy and per-client
// communication cost. Accuracy degrades gracefully — a client that misses a
// shrunken safe-region grant keeps monitoring with its stale one — while the
// cost rises with the retransmissions that heal lost updates.
func FigL1(base Config) Table {
	t := Table{ID: "figL.1", Title: "SRB accuracy and cost vs wireless loss rate", XLabel: "loss",
		Columns: []string{"SRB acc", "SRB comm", "lost up", "lost down", "resends"}}
	for _, p := range []float64{0, 0.01, 0.05, 0.1, 0.2, 0.4} {
		cfg := base
		cfg.LossRate = p
		r := RunSRB(cfg)
		t.Rows = append(t.Rows, TableRow{X: p, Values: []float64{
			r.Accuracy, r.CommPerClientTime,
			float64(r.LostUpdates), float64(r.LostRegions), float64(r.Resends),
		}})
	}
	return t
}

// Fig76b compares plain SRB against SRB with the weighted perimeter (D=0.5,
// Section 6.2) across the movement period t̄v: steadier movement (larger t̄v)
// benefits more.
func Fig76b(base Config) Table {
	t := Table{ID: "fig7.6b", Title: "Weighted-perimeter enhancement vs t̄v", XLabel: "tv",
		Columns: []string{"SRB", "SRB+Steady", "improvement%"}}
	for _, tv := range []float64{0.001, 0.01, 0.1, 0.5, 1} {
		cfg := base
		cfg.MeanPeriod = tv
		plain := RunSRB(cfg).CommPerClientTime
		cfg.Steadiness = 0.5
		enh := RunSRB(cfg).CommPerClientTime
		imp := 0.0
		if plain > 0 {
			imp = 100 * (plain - enh) / plain
		}
		t.Rows = append(t.Rows, TableRow{X: tv, Values: []float64{plain, enh, imp}})
	}
	return t
}
