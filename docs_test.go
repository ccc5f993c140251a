package srb_test

// Documentation gates: METRICS.md must list exactly the metric families the
// code registers, OPERATIONS.md exactly the flags srb-server defines, and
// every markdown cross-reference must resolve. All run under plain `go test`
// and in the CI docs job.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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

// docFamilies extracts the `srb_*` family names from METRICS.md table rows.
func docFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatalf("read METRICS.md: %v", err)
	}
	row := regexp.MustCompile("^\\| `(srb_[a-z_]+)`")
	out := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("no metric rows found in METRICS.md")
	}
	return out
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
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		text := string(data)

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
	data, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}
	_, section, ok := strings.Cut(string(data), "\n### srb-server flags\n")
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
