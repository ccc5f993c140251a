package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsClean is the golden gate: the full analyzer suite over the whole
// module, minus the checked-in allochot baseline, must produce zero
// unsuppressed findings. Every deliberate exact comparison, read-only slice
// view, ownership transfer, unbounded receive loop and wall-clock read in the
// repo carries a //lint:allow annotation stating why, and every known
// hot-path allocation site is listed in lint/allochot.baseline, so any new
// finding is a regression — either a real bug or a missing justification.
//
// All packages are loaded before running, mirroring cmd/srb-lint: the
// module-scope analyzers (lockorder and the interprocedural v3 suite) need
// the whole module in one pass.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := loader.Expand(root, []string{"./..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(paths) < 10 {
		t.Fatalf("expected the module to expand to at least 10 packages, got %d: %v", len(paths), paths)
	}
	var all []*Package
	for _, path := range paths {
		pkgs, err := loader.LoadForAnalysis(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		all = append(all, pkgs...)
	}
	// The suite is pinned by name: dropping or retiring an analyzer edits
	// this list in the same change.
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, " "), "floatcmp lockreentry sliceescape bareGoroutine "+
		"missingdoc lockorder errdrop ctxdeadline "+
		"maporder wallclock allochot "+
		"chanlife protodrift atomicmix"; got != want {
		t.Fatalf("All() = %s\nwant      %s", got, want)
	}
	diags := Run(all, All())

	// The checked-in allochot baseline is part of the gate: it must absorb
	// exactly the current hot-path allocation inventory, and regenerating it
	// must be byte-identical to the committed file (acceptance criterion).
	baselinePath := filepath.Join(root, "lint", "allochot.baseline")
	accepted, err := LoadBaseline(baselinePath)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(accepted) == 0 {
		t.Fatalf("empty or missing %s; regenerate with: go run ./cmd/srb-lint -checks allochot -write-baseline lint/allochot.baseline ./...", baselinePath)
	}
	var allocDiags []Diagnostic
	for _, d := range diags {
		if d.Analyzer == AllocHot.Name {
			allocDiags = append(allocDiags, d)
		}
	}
	want, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatBaseline(root, allocDiags); got != string(want) {
		t.Errorf("lint/allochot.baseline is stale: regenerate with: go run ./cmd/srb-lint -checks allochot -write-baseline lint/allochot.baseline ./...")
	}
	ApplyBaseline(root, accepted, diags)

	suppressedByCheck := make(map[string]int)
	for _, d := range diags {
		if d.Suppressed {
			suppressedByCheck[d.Analyzer]++
			continue
		}
		t.Errorf("unsuppressed finding: %s", d)
	}
	if len(suppressedByCheck) == 0 {
		t.Error("expected at least one suppressed finding (the repo carries //lint:allow annotations); suppression matching may be broken")
	}
	// The v2 triage annotated the deliberately-unbounded receive loops; if
	// those suppressions stop matching, the deadline gate is not running.
	if suppressedByCheck["ctxdeadline"] == 0 {
		t.Error("expected suppressed ctxdeadline findings on the long-lived receive loops")
	}
	// The v3 triage annotated the deliberate wall-clock reads in the
	// observability layer and accepted the hot-path allocation inventory; if
	// either count drops to zero, the interprocedural layer is not running.
	if suppressedByCheck["wallclock"] == 0 {
		t.Error("expected suppressed wallclock findings on the annotated instrumentation sites")
	}
	if suppressedByCheck["allochot"] == 0 {
		t.Error("expected baseline-suppressed allochot findings on the hot-path allocation inventory")
	}
	// The v4 triage annotated the contract checks' deliberate exceptions: the
	// reconnect-era receive-side close of the round-trip waiters (chanlife)
	// and the dispatch switches whose missing kinds are consumed earlier on
	// the frame path (protodrift). A zero count means that contract check is
	// not running.
	for _, check := range []string{"chanlife", "protodrift"} {
		if suppressedByCheck[check] == 0 {
			t.Errorf("expected suppressed %s findings on the annotated contract-exception sites", check)
		}
	}
}
