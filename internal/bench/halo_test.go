package bench

import (
	"io"
	"strings"
	"testing"
)

// TestRunHaloQuick runs the quick sweep end to end and asserts the
// correctness-shaped checks. Timing and allocation checks are advisory
// here (CI runners are noisy, the race detector skews both), but the
// digests and the elision accounting must hold everywhere.
func TestRunHaloQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("halo sweep in -short mode")
	}
	res, err := RunHalo(Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	PrintHalo(io.Discard, res)
	c := res.Checks
	if !c.BitwiseIdentical {
		t.Error("digests differ across datapath ablations")
	}
	if !c.ElisionEngaged {
		t.Error("pack elision did not engage exactly on the zero-copy cells")
	}
	if !c.CleanWire {
		t.Error("wire cells reconnected or moved no frames")
	}
	if !c.NoLeakedBuffers {
		t.Error("pooled buffers leaked")
	}
	if !c.ZeroAllocsSteadyState && !raceDetectorOn {
		t.Error("zero-copy exchange loop allocated per iteration")
	}
	for _, pt := range res.Points {
		if pt.Digest == "" || pt.NsPerOp <= 0 {
			t.Errorf("%s/%s n=%d h=%d: incomplete point %+v", pt.Mode, pt.Ablation, pt.N, pt.Halo, pt)
		}
		if pt.Mode == "wire" && pt.Ablation == "zerocopy" && pt.PackElisions == 0 {
			t.Errorf("wire zerocopy n=%d h=%d: intra-node pairs recorded no elisions", pt.N, pt.Halo)
		}
	}
}

// TestCompareHalo pins the comparator contract: a check that held in
// the baseline and fails now is a hard error, a never-passing check is
// not.
func TestCompareHalo(t *testing.T) {
	base := &HaloResult{Profile: "quick", Checks: HaloChecks{
		ZeroCopySpeedup: true, BitwiseIdentical: true,
	}}
	cur := &HaloResult{Profile: "quick", Checks: HaloChecks{
		ZeroCopySpeedup: true, BitwiseIdentical: true,
	}}
	var sb strings.Builder
	if err := Compare(&sb, "halo", base, cur); err != nil {
		t.Fatalf("clean comparison failed: %v", err)
	}
	if !strings.Contains(sb.String(), "all baseline checks still hold") {
		t.Fatalf("missing success line in %q", sb.String())
	}
	cur.Checks.BitwiseIdentical = false
	err := Compare(io.Discard, "halo", base, cur)
	if err == nil || !strings.Contains(err.Error(), "bitwise_identical") {
		t.Fatalf("regression not flagged: %v", err)
	}
	// CleanWire was false in the baseline: failing now is not a
	// regression — new checks may land red and tighten later.
	cur.Checks.BitwiseIdentical = true
	cur.Checks.CleanWire = false
	if err := Compare(io.Discard, "halo", base, cur); err != nil {
		t.Fatalf("never-passing check treated as regression: %v", err)
	}
}
