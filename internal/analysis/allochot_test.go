package analysis

import (
	"strings"
	"testing"
)

func TestAllocHot(t *testing.T) {
	pkg := loadSource(t, "srb/internal/core", `package core

type state struct{ n int }

//srb:hotpath
func root(ids []uint64) {
	m := make(map[uint64]bool)
	for _, id := range ids {
		m[id] = true
		s := append([]uint64{}, id)
		_ = s
	}
	helper(m)
	debugOnly(m)
}

func helper(m map[uint64]bool) *state {
	return &state{n: len(m)}
}

//srb:coldpath
func debugOnly(m map[uint64]bool) {
	_ = make([]uint64, 0, len(m))
}

func unreachable() []int {
	return make([]int, 8)
}
`)
	diags := RunPackage(pkg, []*Analyzer{AllocHot})
	type want struct {
		line int
		frag string
	}
	wants := []want{
		{7, "make-map"},
		{10, "append in loop"},
		{10, "slice-literal in loop"},
		{18, "new-object"},
	}
	if len(diags) != len(wants) {
		var got []string
		for _, d := range diags {
			got = append(got, d.String())
		}
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(wants), strings.Join(got, "\n"))
	}
	for i, w := range wants {
		if diags[i].Pos.Line != w.line || !strings.Contains(diags[i].Message, w.frag) {
			t.Errorf("finding %d = %s, want line %d containing %q", i, diags[i], w.line, w.frag)
		}
	}
	// Neither the coldpath body nor the unreachable function contributes.
	for _, d := range diags {
		if strings.Contains(d.Message, "debugOnly") || strings.Contains(d.Message, "unreachable") {
			t.Errorf("cold/unreachable site leaked into the inventory: %s", d)
		}
	}
}

func TestAllocHotNoRoots(t *testing.T) {
	pkg := loadSource(t, "srb/internal/core", `package core

func plain() []int { return make([]int, 4) }
`)
	wantLines(t, RunPackage(pkg, []*Analyzer{AllocHot}), nil, nil)
}

func TestAllocHotIfaceBox(t *testing.T) {
	pkg := loadSource(t, "srb/internal/core", `package core

func sink(v interface{}) {}

//srb:hotpath
func root(n int, e error, xs []interface{}) {
	sink(n)      // concrete-to-interface: boxes
	sink(e)      // interface-to-interface: no box
	variadic(xs...) // spread passes the slice through: no box
	generic(n)      // type parameter: instantiated, no box
}

func variadic(vs ...interface{}) {}

func generic[T any](v T) {}
`)
	diags := RunPackage(pkg, []*Analyzer{AllocHot})
	if len(diags) != 1 || diags[0].Pos.Line != 7 || !strings.Contains(diags[0].Message, "iface-box") {
		t.Errorf("want exactly one iface-box finding on line 7, got %v", diags)
	}
}

// TestAllocHotBaselineRoundTrip pins the ratchet mechanics: formatting the
// findings, parsing them back and applying them suppresses exactly the
// inventory, and a second format pass is byte-identical (the acceptance
// criterion for regeneration).
func TestAllocHotBaselineRoundTrip(t *testing.T) {
	pkg := loadSource(t, "srb/internal/core", `package core

//srb:hotpath
func root() map[int]int {
	return make(map[int]int)
}
`)
	diags := RunPackage(pkg, []*Analyzer{AllocHot})
	if len(diags) != 1 {
		t.Fatalf("want one finding, got %v", diags)
	}
	content := FormatBaseline("", diags)
	again := FormatBaseline("", diags)
	if content != again {
		t.Error("FormatBaseline is not deterministic")
	}
	accepted, err := ParseBaseline(strings.NewReader(content))
	if err != nil {
		t.Fatalf("ParseBaseline: %v", err)
	}
	if n := ApplyBaseline("", accepted, diags); n != 1 {
		t.Errorf("ApplyBaseline matched %d findings, want 1", n)
	}
	if !diags[0].Suppressed {
		t.Error("the baselined finding should be suppressed")
	}
	// A new site (different message) must not match.
	diags[0].Suppressed = false
	diags[0].Message = "hot-path alloc: make-slice (srb/internal/core.root)"
	if n := ApplyBaseline("", accepted, diags); n != 0 {
		t.Errorf("a changed finding matched the baseline (%d), the ratchet is broken", n)
	}
}
