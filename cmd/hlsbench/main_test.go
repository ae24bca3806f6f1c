package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestRunWritesAndComparesSnapshot drives the command the way CI does:
// -out writes the gated experiment's snapshot and CSV, and the snapshot
// then serves as the -compare baseline of a second run.
func TestRunWritesAndComparesSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, []string{"-exp", "recover", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BENCH_recover.json", "recover.csv", "telemetry.csv"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	base := filepath.Join(dir, "BENCH_recover.json")
	if err := run(io.Discard, []string{"-exp", "recover", "-compare", base}); err != nil {
		t.Fatalf("compare against the run's own snapshot: %v", err)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run(io.Discard, []string{"-exp", "bogus"})
	if !errors.Is(err, errUsage) {
		t.Fatalf("run -exp bogus = %v, want a usage error", err)
	}
}
