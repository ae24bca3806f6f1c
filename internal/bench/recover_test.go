package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRecoverExperiment runs the full quick-profile crash-recovery
// cycle: clean baseline, chaos kill, restore-and-resume, torn-generation
// fallback — and asserts every acceptance check holds.
func TestRecoverExperiment(t *testing.T) {
	res, err := RunRecover(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checks.KillFired {
		t.Error("chaos kill never fired")
	}
	if !res.Checks.RestoreReported {
		t.Errorf("restore not reported: gen %d, %d bytes, %.3f ms",
			res.RestoreGen, res.RestoreBytes, res.RestoreMs)
	}
	if !res.Checks.TornSkipped {
		t.Errorf("torn generation not skipped: corrupted %d, restored %d, skipped %d",
			res.TornGen, res.TornRestoreGen, res.TornSkippedGens)
	}
	if !res.Checks.Identical {
		t.Error("resumed results differ from the clean run")
	}
	if res.Resumed.StartIter == 0 {
		t.Error("resumed trial started from iteration 0 — restore restored nothing")
	}
	if res.Resumed.StartIter+res.Resumed.Iters != res.Iters {
		t.Errorf("resumed trial ran %d iterations from %d, want to end at %d",
			res.Resumed.Iters, res.Resumed.StartIter, res.Iters)
	}

	var buf bytes.Buffer
	PrintRecover(&buf, res)
	outStr := buf.String()
	if strings.Contains(outStr, "[FAIL]") {
		t.Errorf("report contains failures:\n%s", outStr)
	}
	if !strings.Contains(outStr, "restore: generation") {
		t.Errorf("report does not state the restore latency:\n%s", outStr)
	}

	// The snapshot round-trips and compares clean against itself.
	buf.Reset()
	if err := WriteSnapshot(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf, res)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Compare(&buf, "recover", back, res); err != nil {
		t.Fatalf("self-comparison regressed: %v", err)
	}

	// A regression (a check that held in the baseline now failing) must
	// be a hard error.
	bad := *res
	bad.Checks.TornSkipped = false
	if err := Compare(&buf, "recover", back, &bad); err == nil {
		t.Fatal("Compare accepted a torn-skip regression")
	}
}
