package bench

import (
	"bytes"
	"strings"
	"testing"

	"hls/internal/mpi"
)

// collFixture is a small in-memory result with every check passing: one
// (op, ranks, size) cell measured under all four ablations, plus one
// allreduce cell so the widest-node frame cut covers both ops.
func collFixture() *CollResult {
	res := &CollResult{
		Profile: "quick", Nodes: 2, Placement: "cyclic-nodes",
		Points: []CollPoint{
			{Op: "bcast", PerNode: 8, Bytes: 8, Algorithm: "flat", Batched: false,
				NsPerOp: 400000, FramesPerOp: 16, Digest: "aaaaaaaaaaaaaaaa"},
			{Op: "bcast", PerNode: 8, Bytes: 8, Algorithm: "flat", Batched: true,
				NsPerOp: 500000, FramesPerOp: 7, BatchFill: 3.5, BatchContainers: 200, BatchMessages: 700,
				Digest: "aaaaaaaaaaaaaaaa"},
			{Op: "bcast", PerNode: 8, Bytes: 8, Algorithm: "two-level", Batched: false,
				NsPerOp: 150000, FramesPerOp: 2, TwoLevelOps: 1360, Digest: "aaaaaaaaaaaaaaaa"},
			{Op: "bcast", PerNode: 8, Bytes: 8, Algorithm: "two-level", Batched: true,
				NsPerOp: 200000, FramesPerOp: 2, BatchFill: 1.5, BatchContainers: 100, BatchMessages: 150,
				TwoLevelOps: 1360, Digest: "aaaaaaaaaaaaaaaa"},
			{Op: "allreduce", PerNode: 8, Bytes: 8, Algorithm: "flat", Batched: false,
				NsPerOp: 600000, FramesPerOp: 30, Digest: "bbbbbbbbbbbbbbbb"},
			{Op: "allreduce", PerNode: 8, Bytes: 8, Algorithm: "two-level", Batched: false,
				NsPerOp: 180000, FramesPerOp: 4, TwoLevelOps: 1360, Digest: "bbbbbbbbbbbbbbbb"},
		},
	}
	res.Checks = computeCollChecks(res)
	return res
}

// TestCollChecksAndJSONRoundTrip: the fixture's checks all hold and
// survive a round trip through WriteSnapshot/ReadSnapshot.
func TestCollChecksAndJSONRoundTrip(t *testing.T) {
	res := collFixture()
	if !allChecksHold(res) {
		t.Fatalf("fixture checks = %+v, want all true", res.Checks)
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, res); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf, &CollResult{})
	if err != nil {
		t.Fatal(err)
	}
	back := snap.(*CollResult)
	if len(back.Points) != len(res.Points) {
		t.Fatalf("round trip lost points: %d/%d", len(back.Points), len(res.Points))
	}
	if back.Checks != res.Checks {
		t.Fatalf("round trip checks = %+v, want %+v", back.Checks, res.Checks)
	}
}

func TestCollChecksFlagFailures(t *testing.T) {
	res := collFixture()
	res.Points[0].FramesPerOp = 3 // flat bcast now within 2x of two-level
	if ch := computeCollChecks(res); ch.FrameCut2x {
		t.Error("FrameCut2x true with flat frames < 2x two-level")
	}

	res = collFixture()
	res.Points[2].Digest = "cccccccccccccccc" // one ablation diverges
	if ch := computeCollChecks(res); ch.BitwiseIdentical {
		t.Error("BitwiseIdentical true despite digest divergence")
	}

	res = collFixture()
	res.Points[2].TwoLevelOps = 0 // selected but never engaged
	if ch := computeCollChecks(res); ch.TwoLevelEngaged {
		t.Error("TwoLevelEngaged true despite zero two-level ops")
	}
	res = collFixture()
	res.Points[0].TwoLevelOps = 5 // flat run took the two-level path
	if ch := computeCollChecks(res); ch.TwoLevelEngaged {
		t.Error("TwoLevelEngaged true despite flat-point contamination")
	}

	res = collFixture()
	res.Points[1].BatchContainers = 700
	res.Points[1].BatchMessages = 700 // fill collapses to 1
	res.Points[3].BatchContainers = 0
	res.Points[3].BatchMessages = 0
	if ch := computeCollChecks(res); ch.BatchFillAbove2 {
		t.Error("BatchFillAbove2 true with aggregate fill of 1")
	}

	res = collFixture()
	res.Points[4].Reconnects = 1
	res.Points[5].Outstanding = 2
	ch := computeCollChecks(res)
	if ch.CleanWire {
		t.Error("CleanWire true despite a reconnect")
	}
	if ch.NoLeakedBuffers {
		t.Error("NoLeakedBuffers true despite outstanding buffers")
	}
}

// TestCompareCollFlagsRegressions: Compare passes identical results and
// fails, naming bitwise_identical, once a digest diverges.
func TestCompareCollFlagsRegressions(t *testing.T) {
	base := collFixture()
	var out bytes.Buffer
	if err := Compare(&out, "coll", base, collFixture()); err != nil {
		t.Fatalf("identical results compared unequal: %v", err)
	}
	if !strings.Contains(out.String(), "all baseline checks still hold") {
		t.Errorf("missing pass line in:\n%s", out.String())
	}

	bad := collFixture()
	bad.Points[2].Digest = "ffffffffffffffff"
	bad.Checks = computeCollChecks(bad)
	out.Reset()
	err := Compare(&out, "coll", base, bad)
	if err == nil || !strings.Contains(err.Error(), "bitwise_identical") {
		t.Fatalf("regressed compare error = %v, want bitwise_identical failure", err)
	}
}

// TestCollBaselineSnapshotParses: the committed baseline's stored checks
// are the ones its own points compute to.
func TestCollBaselineSnapshotParses(t *testing.T) {
	base := readBaseline(t, "coll", &CollResult{}).(*CollResult)
	if got := computeCollChecks(base); got != base.Checks {
		t.Fatalf("recomputed checks %+v disagree with stored %+v", got, base.Checks)
	}
}

func TestWriteCollCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCollCSV(&buf, collFixture()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		"op,ranks_per_node,bytes,algorithm,batched",
		"bcast,8,8,two-level,false",
		"allreduce,8,8,flat,false",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("CSV missing %q:\n%s", want, s)
		}
	}
}

// TestRunCollQuickSmoke measures one cell end to end under flat and
// two-level, batched and not: digests must agree across all four
// ablations, two-level must engage and cut frames, and batching must
// coalesce on the flat run.
func TestRunCollQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs loopback TCP world pairs")
	}
	const perNode, nbytes, iters = 4, 8, 60
	flat, err := runCollPoint("bcast", perNode, nbytes, iters, mpi.CollChannels, false)
	if err != nil {
		t.Fatal(err)
	}
	two, err := runCollPoint("bcast", perNode, nbytes, iters, mpi.CollTwoLevel, false)
	if err != nil {
		t.Fatal(err)
	}
	flatB, err := runCollPoint("bcast", perNode, nbytes, iters, mpi.CollChannels, true)
	if err != nil {
		t.Fatal(err)
	}
	twoB, err := runCollPoint("bcast", perNode, nbytes, iters, mpi.CollTwoLevel, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []CollPoint{two, flatB, twoB} {
		if pt.Digest != flat.Digest {
			t.Errorf("digest diverged: %+v vs flat %q", pt, flat.Digest)
		}
	}
	if two.TwoLevelOps == 0 || flat.TwoLevelOps != 0 {
		t.Errorf("two-level selection: flat %d, two-level %d ops", flat.TwoLevelOps, two.TwoLevelOps)
	}
	if two.FramesPerOp >= flat.FramesPerOp {
		t.Errorf("two-level frames/op %.2f not below flat %.2f", two.FramesPerOp, flat.FramesPerOp)
	}
	if flatB.BatchContainers == 0 {
		t.Error("batched flat run sent no Batch containers")
	}
	if flat.Outstanding != 0 || two.Outstanding != 0 {
		t.Errorf("pooled buffers leaked: flat %d two-level %d", flat.Outstanding, two.Outstanding)
	}
}
