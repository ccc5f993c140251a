package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSource type-checks a single in-memory fixture file under the given
// import path, using the source importer for any stdlib imports.
func loadSource(t *testing.T, pkgpath, src string) *Package {
	t.Helper()
	// The source importer typechecks stdlib dependencies from source; cgo
	// files in them (net, os/user) cannot be handled, so force the netgo-style
	// pure-Go view regardless of whether NewLoader ran first.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check(pkgpath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck fixture: %v", err)
	}
	return &Package{Path: pkgpath, Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
}

// lines splits diagnostics into unsuppressed and suppressed line numbers.
func lines(diags []Diagnostic) (unsup, sup []int) {
	for _, d := range diags {
		if d.Suppressed {
			sup = append(sup, d.Pos.Line)
		} else {
			unsup = append(unsup, d.Pos.Line)
		}
	}
	return
}

func wantLines(t *testing.T, diags []Diagnostic, wantUnsup, wantSup []int) {
	t.Helper()
	unsup, sup := lines(diags)
	if fmt.Sprint(unsup) != fmt.Sprint(wantUnsup) || fmt.Sprint(sup) != fmt.Sprint(wantSup) {
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintf(&b, "  %s (suppressed=%v)\n", d, d.Suppressed)
		}
		t.Errorf("findings on lines %v (suppressed %v), want %v (suppressed %v)\ngot:\n%s",
			unsup, sup, wantUnsup, wantSup, b.String())
	}
}

func TestFloatCmp(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

func bad(a, b float64) bool { return a == b }

type pt struct{ X, Y float64 }

func badStruct(p, q pt) bool { return p != q }

func zeroGuard(a float64) bool { return a == 0 } // exact-zero guard is sanctioned

func ints(a, b int) bool { return a == b }

//lint:allow floatcmp sentinel comparison under test
func allowed(a, b float64) bool { return a == b }
`)
	wantLines(t, RunPackage(pkg, []*Analyzer{FloatCmp}), []int{3, 7}, []int{14})
}

func TestLockReentry(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *Counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	c.Total() // deadlock: Total relocks c.mu while Add still holds it
}

func (c *Counter) SafeAdd() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	_ = c.Total() // fine: the manual block released the lock first
}

func (c *Counter) DeferredClosure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = func() int { return c.Total() } // closure runs later, not flagged
}
`)
	wantLines(t, RunPackage(pkg, []*Analyzer{LockReentry}), []int{20}, nil)
}

func TestLockReentryProberCallback(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

type Monitor struct{ n int }

func (m *Monitor) Update(id uint64) {}

type ProberFunc func(id uint64) int

func register(p ProberFunc) {}

func bad(m *Monitor) {
	register(func(id uint64) int {
		m.Update(id) // probers must not re-enter the monitor
		return 0
	})
}

func good(m *Monitor) {
	register(func(id uint64) int { return int(id) })
}

type ParallelMonitor struct{ n int }

func (c *ParallelMonitor) SafeRegion(id uint64) {}

func badParallel(c *ParallelMonitor) {
	register(func(id uint64) int {
		c.SafeRegion(id) // runs while c's lock is held: deadlocks
		return 0
	})
}
`)
	wantLines(t, RunPackage(pkg, []*Analyzer{LockReentry}), []int{13, 28}, nil)
}

func TestSliceEscape(t *testing.T) {
	pkg := loadSource(t, "srb/internal/fixture", `package fixture

type Buf struct {
	data []int
	rows [][]int
}

func (b *Buf) Data() []int { return b.data }

func (b *Buf) Row(i int) []int { return b.rows[i] }

func (b *Buf) SetData(xs []int) { b.data = xs }

func (b *Buf) CopyData() []int { return append([]int(nil), b.data...) }

func (b *Buf) internal() []int { return b.data } // unexported: callers are package-local

//lint:allow sliceescape ownership transfer under test
func (b *Buf) Adopt(xs []int) { b.data = xs }
`)
	wantLines(t, RunPackage(pkg, []*Analyzer{SliceEscape}), []int{8, 10, 12}, []int{19})
}

func TestBareGoroutine(t *testing.T) {
	src := `package main

import "sync"

func bad() {
	go func() { work() }()
}

func tracked(wg *sync.WaitGroup) {
	go func() { defer wg.Done(); work() }()
}

func recovered() {
	go func() {
		defer func() { _ = recover() }()
		work()
	}()
}

func chanTracked(done chan struct{}) {
	go func() { defer close(done); work() }()
}

func opaque() {
	go work() // body is visible and has no guard
}

func work() {}
`
	pkg := loadSource(t, "srb/cmd/fixture", src)
	wantLines(t, RunPackage(pkg, []*Analyzer{BareGoroutine}), []int{6, 25}, nil)

	// The same code outside cmd/ and internal/remote is out of scope.
	out := loadSource(t, "srb/internal/fixture", src)
	wantLines(t, RunPackage(out, []*Analyzer{BareGoroutine}), nil, nil)
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
		ok   bool
	}{
		{"//lint:allow floatcmp", []string{"floatcmp"}, true},
		{"//lint:allow floatcmp,sliceescape some reason", []string{"floatcmp", "sliceescape"}, true},
		{"// lint:allow all legacy", []string{"all"}, true},
		{"//lint:allow", nil, false},
		{"// regular comment", nil, false},
	}
	for _, c := range cases {
		got, ok := parseAllow(c.text)
		if ok != c.ok || fmt.Sprint(got) != fmt.Sprint([]string(c.want)) {
			t.Errorf("parseAllow(%q) = %v, %v; want %v, %v", c.text, got, ok, c.want, c.ok)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	two, err := ByName("floatcmp, bareGoroutine")
	if err != nil || len(two) != 2 || two[0].Name != "floatcmp" || two[1].Name != "bareGoroutine" {
		t.Fatalf("ByName selection failed: %v, %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}
