package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExactReplayReproducesRun records a workload through the record path,
// replays the journal through the replay path, and requires the replayed
// monitor to be bit-identical to the live one.
func TestExactReplayReproducesRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	live, entries, err := record(path, 150, 12, 2, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stats().Probes == 0 {
		t.Fatal("workload issued no probes, so replay never used a recorded answer")
	}
	got, rs, err := replay(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(rs.Entries) != entries || rs.LastSeq != entries || rs.Torn {
		t.Fatalf("replay stats %+v, want %d entries and no torn tail", rs, entries)
	}
	if got.Stats() != live.Stats() {
		t.Fatalf("Stats diverged:\nreplayed %+v\nlive     %+v", got.Stats(), live.Stats())
	}
	var a, b bytes.Buffer
	if err := live.SaveSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.SaveSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("replayed monitor state is not bit-identical to the recorded run")
	}
}

// TestReplayRejectsSnapshotTail drops the head of a journal, as a snapshot
// truncation does, and requires replay to refuse the tail and name the
// recovery command instead of printing a wrong run.
func TestReplayRejectsSnapshotTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ndjson")
	if _, _, err := record(full, 20, 4, 0.2, 3, 8); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	tail := filepath.Join(dir, "tail.ndjson")
	if err := os.WriteFile(tail, []byte(strings.Join(lines[3:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replay(tail, 8)
	if err == nil || !strings.Contains(err.Error(), "seq 4") || !strings.Contains(err.Error(), "-recover") {
		t.Fatalf("replay of a snapshot tail: err = %v, want one naming seq 4 and -recover", err)
	}
}
