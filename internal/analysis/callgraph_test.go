package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// fixturePkg is one in-memory package of a multi-package fixture module.
type fixturePkg struct {
	path string
	src  string
}

// fixtureImporter resolves fixture import paths to already-checked fixture
// packages and everything else through the stdlib source importer.
type fixtureImporter struct {
	std   types.Importer
	local map[string]*types.Package
}

func (im fixtureImporter) Import(path string) (*types.Package, error) {
	if p := im.local[path]; p != nil {
		return p, nil
	}
	return im.std.Import(path)
}

// loadModuleSource type-checks a sequence of in-memory fixture packages in
// order (dependencies first); later fixtures may import earlier ones by path.
// It is the multi-package counterpart of loadSource, for the interprocedural
// analyzers whose findings cross package boundaries.
func loadModuleSource(t *testing.T, fixtures []fixturePkg) []*Package {
	t.Helper()
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	im := fixtureImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: make(map[string]*types.Package),
	}
	var out []*Package
	for i, fx := range fixtures {
		f, err := parser.ParseFile(fset, fmt.Sprintf("fixture%d.go", i), fx.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", fx.path, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(fx.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typecheck fixture %s: %v", fx.path, err)
		}
		im.local[fx.path] = pkg
		out = append(out, &Package{Path: fx.path, Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info})
	}
	return out
}

func TestCallGraphSCCAndMarkers(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

func a() { b() }

func b() { a() }

func c() { a() }

//srb:hotpath
func hotRoot() { helper() }

func helper() { colder() }

//srb:coldpath
func colder() { buried() }

func buried() {}
`)
	cg := BuildCallGraph([]*Package{pkg})
	id := func(name string) string { return "srb/internal/fixture." + name }

	// a and b are mutually recursive: one component, distinct from c's.
	if cg.CompOf[id("a")] != cg.CompOf[id("b")] {
		t.Errorf("a and b should share a component: %d vs %d", cg.CompOf[id("a")], cg.CompOf[id("b")])
	}
	if cg.CompOf[id("a")] == cg.CompOf[id("c")] {
		t.Error("c should not be in a's component")
	}
	// Comps is callee-first: the {a,b} component precedes its caller c's.
	if cg.CompOf[id("a")] >= cg.CompOf[id("c")] {
		t.Errorf("callee component {a,b} (%d) should precede caller c (%d)",
			cg.CompOf[id("a")], cg.CompOf[id("c")])
	}

	// Doc markers.
	if !cg.Nodes[id("hotRoot")].Hot {
		t.Error("hotRoot should carry the //srb:hotpath marker")
	}
	if !cg.Nodes[id("colder")].Cold {
		t.Error("colder should carry the //srb:coldpath marker")
	}
	roots := cg.HotRoots()
	if len(roots) != 1 || roots[0] != id("hotRoot") {
		t.Errorf("HotRoots = %v, want [%s]", roots, id("hotRoot"))
	}

	// Reachability stops *through* coldpath nodes: colder itself is seen,
	// buried behind it is not.
	reach := cg.Reachable(roots)
	for _, want := range []string{"hotRoot", "helper", "colder"} {
		if !reach[id(want)] {
			t.Errorf("Reachable should include %s", want)
		}
	}
	if reach[id("buried")] {
		t.Error("Reachable should not traverse through the coldpath node colder into buried")
	}
}

func TestCallGraphInterfaceResolution(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

type Prober interface{ Probe() int }

type counter struct{ n int }

func (c *counter) Probe() int { c.n++; return c.n }

type other struct{}

func (other) Name() string { return "other" }

func viaIface(p Prober) int { return p.Probe() }
`)
	cg := BuildCallGraph([]*Package{pkg})
	node := cg.Nodes["srb/internal/fixture.viaIface"]
	if node == nil {
		t.Fatal("missing viaIface node")
	}
	want := "srb/internal/fixture.counter.Probe"
	found := false
	for _, c := range node.Callees {
		if c == want {
			found = true
		}
		if c == "srb/internal/fixture.other.Name" {
			t.Error("interface call must not resolve to a type that does not implement Prober")
		}
	}
	if !found {
		t.Errorf("viaIface callees %v should include the interface-resolved edge %s", node.Callees, want)
	}
}

func TestSummaryPropagation(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

import "time"

func top() time.Time { return mid() }

func mid() time.Time { return leaf() }

func leaf() time.Time { return time.Now() }

func recA(n int) {
	if n > 0 {
		recB(n - 1)
	}
}

func recB(n int) {
	clock()
	recA(n - 1)
}

func clock() { _ = time.Now() }

func iter(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

func callsIter(m map[int]int) int { return iter(m) }

func pure(a, b int) int { return a + b }
`)
	_, sums := ComputeSummaries([]*Package{pkg})
	id := func(name string) string { return "srb/internal/fixture." + name }

	// WallClock propagates bottom-up through the chain and through the
	// recursive component.
	for _, name := range []string{"leaf", "mid", "top", "clock", "recA", "recB"} {
		if s := sums[id(name)]; s == nil || !s.WallClock {
			t.Errorf("summary of %s should be WallClock-tainted, got %+v", name, sums[id(name)])
		}
	}
	// RangesMap propagates one level up; the pure function stays clean.
	for _, name := range []string{"iter", "callsIter"} {
		if s := sums[id(name)]; s == nil || !s.RangesMap {
			t.Errorf("summary of %s should have RangesMap, got %+v", name, sums[id(name)])
		}
	}
	if s := sums[id("pure")]; s == nil || s.WallClock || s.RangesMap || s.Allocates {
		t.Errorf("summary of pure should be empty, got %+v", s)
	}
}
