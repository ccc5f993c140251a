package srb_test

// Documentation gates: METRICS.md must list exactly the metric families the
// code registers, OPERATIONS.md exactly the flags srb-server defines, every
// markdown cross-reference must resolve, every `make` target CI and README.md
// name must exist, BENCH_COUNTS.json must pin every benchmark workload, the
// load harness must require exactly METRICS.md's server families,
// EXPERIMENTS.md must print REPRO_DEFAULT.json's numbers, one row of that
// record must recompute bit for bit, every simulator experiment and
// benchmark a document cites must exist, and `make fuzz-smoke` must run every
// fuzz target.
// All run under plain `go test` and in the CI docs job.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"srb/internal/chaos"
	"srb/internal/core"
	"srb/internal/geom"
	"srb/internal/load"
	"srb/internal/obs"
	"srb/internal/remote"
	"srb/internal/sim"
)

// wireEverything assembles a server with every optional subsystem attached —
// batch pipeline, chaos injector, persistence, an app client — so the
// registry holds the complete production family set.
func wireEverything(t *testing.T, reg *obs.Registry) {
	t.Helper()
	sink := obs.NewSink(reg, nil)

	s, err := remote.NewServer("127.0.0.1:0", core.Options{GridM: 10})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	s.SetLogf(nil)
	s.SetWorkers(2)
	s.SetChaos(chaos.NewInjector(chaos.Config{}, chaos.Config{}))
	if err := s.SetPersist(t.TempDir(), 0); err != nil {
		t.Fatalf("persist: %v", err)
	}
	s.SetObs(sink)
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close(); <-done })

	app, err := remote.DialApp(s.Addr())
	if err != nil {
		t.Fatalf("app: %v", err)
	}
	app.SetLogf(nil)
	app.SetObs(sink)
	t.Cleanup(func() { _ = app.Close() })

	// One client and one update so latency histograms have samples.
	c, err := remote.DialClient(s.Addr(), 1, geom.Point{X: 0.5, Y: 0.5})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// The load harness's client-side families (srb_load_*).
	load.NewMetrics(reg)
}

// metricRow matches a METRICS.md table row and captures its family name.
var metricRow = regexp.MustCompile("^\\| `(srb_[a-z_]+)`")

// docFamilies extracts the `srb_*` family names from METRICS.md table rows.
func docFamilies(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, line := range metricsDocLines(t) {
		if m := metricRow.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("no metric rows found in METRICS.md")
	}
	return out
}

// metricsDocLines returns METRICS.md's lines.
func metricsDocLines(t *testing.T) []string {
	t.Helper()
	return strings.Split(readRepoFile(t, "METRICS.md"), "\n")
}

// TestLoadRequiresEveryServerFamily pins load.ServerFamilies, the families
// the load harness requires of a recovered server, to METRICS.md: exactly
// the rows outside the "Application client" and "Load harness" sections.
func TestLoadRequiresEveryServerFamily(t *testing.T) {
	documented := make(map[string]bool)
	clientSide := false
	for _, line := range metricsDocLines(t) {
		if heading, ok := strings.CutPrefix(line, "## "); ok {
			clientSide = strings.HasPrefix(heading, "Application client") || strings.HasPrefix(heading, "Load harness")
		} else if m := metricRow.FindStringSubmatch(line); m != nil && !clientSide {
			documented[m[1]] = true
		}
	}
	required := make(map[string]bool)
	for _, name := range load.ServerFamilies {
		if required[name] {
			t.Errorf("load.ServerFamilies lists %s twice", name)
		}
		required[name] = true
		if !documented[name] {
			t.Errorf("load.ServerFamilies lists %s, which METRICS.md does not document as a server family", name)
		}
	}
	for name := range documented {
		if !required[name] {
			t.Errorf("METRICS.md documents server family %s, which load.ServerFamilies omits", name)
		}
	}
}

func TestMetricsDocMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	wireEverything(t, reg)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	fams, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatalf("parse exposition: %v", err)
	}

	documented := docFamilies(t)
	var missing, stale []string
	for name := range fams {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if fams[name] == nil {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("registered but undocumented in METRICS.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("documented in METRICS.md but not registered: %v", stale)
	}
}

// mdLink matches [text](target); path-like targets are resolved against the
// repo root, and #anchors against the headings of the containing file.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// pathLike filters out prose parentheticals the link regex can catch, e.g.
// interval notation "[0,1] (§6.2)".
var pathLike = regexp.MustCompile(`^[\w./#-]+$`)

// headingSlug reproduces GitHub's anchor slugs for the simple headings used
// in this repo: lowercase, punctuation stripped, spaces to hyphens.
func headingSlug(h string) string {
	h = strings.ToLower(strings.TrimSpace(h))
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

func TestDocsLinksResolve(t *testing.T) {
	docs, err := filepath.Glob("*.md")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no markdown files at repo root (err=%v)", err)
	}
	for _, doc := range docs {
		text := readRepoFile(t, doc)

		anchors := make(map[string]bool)
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "#") {
				anchors[headingSlug(strings.TrimLeft(line, "# "))] = true
			}
		}

		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || !pathLike.MatchString(target) {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			if file == "" {
				if !anchors[frag] {
					t.Errorf("%s: broken anchor link %q", doc, target)
				}
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(file)); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, target, err)
			}
		}
	}
}

// serverFlags collects the flag names cmd/srb-server/main.go defines: the
// string-literal first argument of every flag.* call.
func serverFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", "srb-server", "main.go"), nil, 0)
	if err != nil {
		t.Fatalf("parse srb-server: %v", err)
	}
	out := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("flag name %s: %v", lit.Value, err)
			}
			out[name] = true
		}
		return true
	})
	if len(out) == 0 {
		t.Fatal("no flag definitions found in cmd/srb-server/main.go")
	}
	return out
}

// docServerFlags extracts the flag rows of OPERATIONS.md's "srb-server flags"
// table.
func docServerFlags(t *testing.T) map[string]bool {
	t.Helper()
	_, section, ok := strings.Cut(readRepoFile(t, "OPERATIONS.md"), "\n### srb-server flags\n")
	if !ok {
		t.Fatal(`OPERATIONS.md has no "srb-server flags" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	row := regexp.MustCompile("^\\| `-([a-z-]+)`")
	out := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	return out
}

func TestServerFlagsDocumented(t *testing.T) {
	code, doc := serverFlags(t), docServerFlags(t)
	var missing, stale []string
	for name := range code {
		if !doc[name] {
			missing = append(missing, "-"+name)
		}
	}
	for name := range doc {
		if !code[name] {
			stale = append(stale, "-"+name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("srb-server flags missing from OPERATIONS.md: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("OPERATIONS.md documents srb-server flags that do not exist: %v", stale)
	}
}

// makeTargets returns the targets the Makefile defines and the names its
// .PHONY line lists.
func makeTargets(t *testing.T) (defined, phony map[string]bool) {
	t.Helper()
	rule := regexp.MustCompile(`^([a-z][\w-]*):`)
	defined, phony = make(map[string]bool), make(map[string]bool)
	for _, line := range strings.Split(readRepoFile(t, "Makefile"), "\n") {
		if names, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, name := range strings.Fields(names) {
				phony[name] = true
			}
		} else if m := rule.FindStringSubmatch(line); m != nil {
			defined[m[1]] = true
		}
	}
	if len(defined) == 0 {
		t.Fatal("no targets found in the Makefile")
	}
	return defined, phony
}

// makeInvocation is one target named by a `make ...` command line, with the
// file and line it was found at.
type makeInvocation struct{ where, target string }

// makeInvocations returns the targets named by `make ...` in the `run:`
// lines of the CI workflow and in README.md's shell blocks.
func makeInvocations(t *testing.T) []makeInvocation {
	t.Helper()
	invocation := regexp.MustCompile(`\bmake((?:\s+[a-z][\w-]*)+)`)
	var out []makeInvocation
	scan := func(where, line string) {
		line, _, _ = strings.Cut(line, "#")
		for _, m := range invocation.FindAllStringSubmatch(line, -1) {
			for _, target := range strings.Fields(m[1]) {
				out = append(out, makeInvocation{where, target})
			}
		}
	}

	for i, line := range strings.Split(readRepoFile(t, ".github/workflows/ci.yml"), "\n") {
		if cmd, ok := strings.CutPrefix(strings.TrimSpace(line), "run:"); ok {
			scan("ci.yml:"+strconv.Itoa(i+1), cmd)
		}
	}

	inShell := false
	for i, line := range strings.Split(readRepoFile(t, "README.md"), "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			inShell = line == "```sh" || line == "```bash"
		case inShell:
			scan("README.md:"+strconv.Itoa(i+1), line)
		}
	}
	if len(out) == 0 {
		t.Fatal("no make invocations found in ci.yml or README.md")
	}
	return out
}

func TestCIMakeTargetsExist(t *testing.T) {
	defined, phony := makeTargets(t)
	for _, inv := range makeInvocations(t) {
		if !defined[inv.target] {
			t.Errorf("%s runs `make %s`, which the Makefile does not define", inv.where, inv.target)
		}
	}
	for target := range defined {
		if !phony[target] {
			t.Errorf("Makefile target %s is not listed in .PHONY", target)
		}
	}
}

func TestBenchCountsCoverWorkloads(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	var pinned map[string]map[string]json.RawMessage
	readJSON(t, "BENCH_COUNTS.json", &pinned)

	workloads := make(map[string]bool)
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
		entry, ok := pinned[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not pinned in BENCH_COUNTS.json", w.Name)
			continue
		}
		for _, f := range []string{"correct", "attempted", "failed", "comm_cost", "accuracy"} {
			if _, ok := entry[f]; !ok {
				t.Errorf("BENCH_COUNTS.json: %s has no %s", w.Name, f)
			}
		}
	}
	if len(workloads) == 0 {
		t.Fatal("no workloads found in BENCHMARK.json")
	}
	for name := range pinned {
		if !workloads[name] {
			t.Errorf("BENCH_COUNTS.json pins %s, which is not a BENCHMARK.json workload", name)
		}
	}
}

// readRepoFile returns a file of the repository, named by its slash path.
func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return string(data)
}

// readJSON decodes a JSON file of the repository into v.
func readJSON(t *testing.T, name string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(readRepoFile(t, name)), v); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
}

// reproRecord decodes REPRO_DEFAULT.json, the record `make repro` writes:
// every simulator experiment at sim.Default(), seed 1, keyed by id.
func reproRecord(t *testing.T) ([]sim.Table, map[string]sim.Table) {
	t.Helper()
	var tables []sim.Table
	readJSON(t, "REPRO_DEFAULT.json", &tables)
	byID := make(map[string]sim.Table)
	for _, tab := range tables {
		byID[tab.ID] = tab
	}
	return tables, byID
}

// reproBlock tags a code block of EXPERIMENTS.md with a table of the record.
var reproBlock = regexp.MustCompile("(?m)^<!-- REPRO_DEFAULT\\.json: (\\S+) -->\n```\n((?:.*\n)*?)```$")

// TestExperimentsDocMatchesRecord checks EXPERIMENTS.md against
// REPRO_DEFAULT.json, which holds one table per sim.Experiments() entry, in
// order. Each table with compared columns appears exactly once, as a block
// tagged with its id holding those columns as Table.Format renders them; the
// wall-clock CPU columns are never compared. The summary table states a
// measured number only in backticks, and only one a tagged block prints.
func TestExperimentsDocMatchesRecord(t *testing.T) {
	tables, byID := reproRecord(t)
	for i, e := range sim.Experiments() {
		if len(tables) != len(sim.Experiments()) || tables[i].ID != e.ID {
			t.Fatalf("REPRO_DEFAULT.json's tables are not sim.Experiments(), in order, at %s", e.ID)
		}
	}
	doc := readRepoFile(t, "EXPERIMENTS.md")
	tagged, printed := make(map[string]bool), make(map[string]bool)
	for _, m := range reproBlock.FindAllStringSubmatch(doc, -1) {
		tab, ok := byID[m[1]]
		if tagged[m[1]] {
			t.Errorf("EXPERIMENTS.md tags %s twice", m[1])
		}
		tab.CPUColumns, tab.Rows = nil, append([]sim.TableRow(nil), tab.Rows...)
		for i := range tab.Rows {
			tab.Rows[i].CPU = nil
		}
		if want := tab.Format(); !ok || m[2] != want {
			t.Errorf("EXPERIMENTS.md block %s is\n%s\nREPRO_DEFAULT.json prints\n%s", m[1], m[2], want)
		}
		tagged[m[1]] = true
		for _, f := range strings.Fields(m[2]) {
			printed[f] = true
		}
	}
	for _, tab := range tables {
		if len(tab.Columns) > 0 && !tagged[tab.ID] {
			t.Errorf("EXPERIMENTS.md has no block tagged %s", tab.ID)
		}
	}

	_, summary, ok := strings.Cut(doc, "\n## Summary of reproduction status\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no summary table")
	}
	summary, _, _ = strings.Cut(summary, "\n#")
	quoted := regexp.MustCompile("`([^`]*)`")
	for _, line := range strings.Split(summary, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		status := cells[len(cells)-2]
		for _, m := range quoted.FindAllStringSubmatch(status, -1) {
			if !printed[m[1]] {
				t.Errorf("the summary quotes `%s`, which no tagged block prints", m[1])
			}
		}
		if bare := quoted.ReplaceAllString(status, ""); strings.ContainsAny(bare, "0123456789") {
			t.Errorf("the summary states a number outside backticks: %s", strings.TrimSpace(bare))
		}
	}
}

// TestReproRecordSlice recomputes the cheapest slice of REPRO_DEFAULT.json at
// sim.Default() bit for bit: Table 7.1 and Fig 7.1(b)'s τ = 0 row. That row's
// SRB cell is also the default point of the other SRB cost series, so they
// must print it too.
func TestReproRecordSlice(t *testing.T) {
	_, byID := reproRecord(t)
	base := sim.Default()
	if got := sim.TableDefaults(base); !reflect.DeepEqual(got, byID["table7.1"]) {
		t.Errorf("table7.1 recomputes as\n%s", got.Format())
	}
	fig := byID["fig7.1b"]
	if len(fig.Rows) == 0 || !reflect.DeepEqual(fig.Columns, []string{"OPT", "SRB", "PRD(1)", "PRD(0.1)"}) {
		t.Fatalf("REPRO_DEFAULT.json fig7.1b has unexpected columns:\n%s", fig.Format())
	}
	srb := fig.Rows[0].Values[1]
	for _, c := range []struct {
		id       string
		row, col int
	}{{"fig7.2b", 5, 1}, {"fig7.3b", 4, 1}, {"fig7.4a", 3, 0}, {"fig7.4b", 1, 0}, {"fig7.5", 2, 0}, {"fig7.6a", 5, 0}, {"figL.1", 0, 1}} {
		if r := byID[c.id].Rows[c.row]; r.Values[c.col] != srb { //lint:allow floatcmp one run, printed once per series
			t.Errorf("%s at x = %v prints %v, not fig7.1b's default SRB cost %v", c.id, r.X, r.Values[c.col], srb)
		}
	}
	got := []float64{
		sim.RunOPT(base).CommPerClientTime,
		sim.RunSRB(base).CommPerClientTime,
		sim.RunPRD(base, 1).CommPerClientTime,
		sim.RunPRD(base, 0.1).CommPerClientTime,
	}
	if !reflect.DeepEqual(got, fig.Rows[0].Values) || fig.Rows[0].X != 0 {
		t.Errorf("fig7.1b τ = 0 recomputes as %v, REPRO_DEFAULT.json has %v at τ = %v", got, fig.Rows[0].Values, fig.Rows[0].X)
	}
}

// TestDocCommandsExist requires every `srb-sim ... -exp <id>` a reference
// document cites to name `all` or an id of sim.Experiments(), and every
// Benchmark<Name> it cites to be defined in a _test.go file of the module or
// of bench/. CHANGES.md and ROADMAP.md record history and plans, and
// PAPER.md, PAPERS.md and SNIPPETS.md quote other work, so none is scanned.
func TestDocCommandsExist(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, e := range sim.Experiments() {
		known[e.ID] = true
	}
	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, "_test.go") {
			var src []byte
			src, err = os.ReadFile(path)
			for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
				known[m[1]] = true
			}
		}
		return err
	})
	if err != nil || !known["BenchmarkMonitorUpdate"] {
		t.Fatalf("scan test files: %v", err)
	}
	cited := regexp.MustCompile("srb-sim\\b[^`\n]*?-exp[ =]+([^\\s`]+)|\\b(Benchmark[A-Z]\\w*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OPERATIONS.md",
		"METRICS.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		for i, line := range strings.Split(readRepoFile(t, doc), "\n") {
			for _, m := range cited.FindAllStringSubmatch(line, -1) {
				if name := m[1] + m[2]; !known[name] {
					t.Errorf("%s:%d cites %s, which is no srb-sim experiment id nor a benchmark of any _test.go", doc, i+1, name)
				}
			}
		}
	}
}

// TestFuzzTargetsInSmoke requires every fuzz target of the module — a
// `func Fuzz<Name>(` in a _test.go outside bench/ — to be run by a line of
// the `fuzz-smoke` recipe in the Makefile on its own package; a target the
// recipe does not name never runs.
func TestFuzzTargetsInSmoke(t *testing.T) {
	var recipe []string
	lines := strings.Split(readRepoFile(t, "Makefile"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "fuzz-smoke:") {
			for _, l := range lines[i+1:] {
				if !strings.HasPrefix(l, "\t") {
					break
				}
				recipe = append(recipe, l)
			}
		}
	}
	run := regexp.MustCompile(`-fuzz=(Fuzz\w+)\S*\s.*\s(\./\S+?)/?$`)
	runs := map[string]string{} // fuzz target -> package directory
	for _, l := range recipe {
		if m := run.FindStringSubmatch(l); m != nil {
			runs[m[1]] = m[2]
		}
	}
	if len(runs) == 0 {
		t.Fatal("no -fuzz= lines found in the fuzz-smoke recipe")
	}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path == "bench" {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
			found++
			if dir := "./" + filepath.Dir(path); runs[m[1]] != dir {
				t.Errorf("%s defines %s, which the fuzz-smoke recipe does not run on %s", path, m[1], dir)
			}
		}
		return err
	})
	if err != nil || found == 0 {
		t.Fatalf("scan test files: %d fuzz targets, %v", found, err)
	}
}
