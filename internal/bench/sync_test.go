package bench

import (
	"bytes"
	"strings"
	"testing"
)

// syncFixture is a small in-memory result with every check passing.
func syncFixture() *SyncResult {
	res := &SyncResult{
		Profile: "quick",
		Barriers: []SyncBarrierPoint{
			{Impl: "mutex", Tasks: 16, Scope: "node", NsPerOp: 100},
			{Impl: "mutex", Tasks: 32, Scope: "node", NsPerOp: 200},
			{Impl: "tree", Tasks: 16, Scope: "node", NsPerOp: 80},
			{Impl: "tree", Tasks: 32, Scope: "node", NsPerOp: 150},
		},
		Collectives: []SyncCollPoint{
			{Op: "barrier", Mode: "shared", Tasks: 32, Elems: 0, NsPerOp: 10, AllocsPerOp: 0},
			{Op: "bcast", Mode: "channels", Tasks: 32, Elems: 8, NsPerOp: 50},
			{Op: "bcast", Mode: "shared", Tasks: 32, Elems: 8, NsPerOp: 20, AllocsPerOp: 0},
			{Op: "bcast", Mode: "channels", Tasks: 32, Elems: 65536, NsPerOp: 900},
			{Op: "bcast", Mode: "shared", Tasks: 32, Elems: 65536, NsPerOp: 400},
			{Op: "allreduce", Mode: "channels", Tasks: 32, Elems: 8, NsPerOp: 60},
			{Op: "allreduce", Mode: "shared", Tasks: 32, Elems: 8, NsPerOp: 25, AllocsPerOp: 0},
			{Op: "allreduce", Mode: "channels", Tasks: 32, Elems: 65536, NsPerOp: 1000},
			{Op: "allreduce", Mode: "shared", Tasks: 32, Elems: 65536, NsPerOp: 300},
		},
	}
	res.Checks = computeSyncChecks(res)
	return res
}

// TestSyncChecksAndJSONRoundTrip: the fixture's checks all hold and
// survive a round trip through WriteSnapshot/ReadSnapshot.
func TestSyncChecksAndJSONRoundTrip(t *testing.T) {
	res := syncFixture()
	if !allChecksHold(res) {
		t.Fatalf("fixture checks = %+v, want all true", res.Checks)
	}

	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, res); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf, &SyncResult{})
	if err != nil {
		t.Fatal(err)
	}
	back := snap.(*SyncResult)
	if len(back.Barriers) != len(res.Barriers) || len(back.Collectives) != len(res.Collectives) {
		t.Fatalf("round trip lost points: %d/%d barriers, %d/%d collectives",
			len(back.Barriers), len(res.Barriers), len(back.Collectives), len(res.Collectives))
	}
	if back.Checks != res.Checks {
		t.Fatalf("round trip checks = %+v, want %+v", back.Checks, res.Checks)
	}
}

// TestCompareSyncFlagsRegressions: Compare passes identical results and
// fails, naming tree_beats_mutex_32, once the tree barrier loses at 32
// tasks.
func TestCompareSyncFlagsRegressions(t *testing.T) {
	base := syncFixture()
	var out bytes.Buffer
	if err := Compare(&out, "sync", base, syncFixture()); err != nil {
		t.Fatalf("identical results compared unequal: %v", err)
	}
	if !strings.Contains(out.String(), "all baseline checks still hold") {
		t.Errorf("missing pass line in:\n%s", out.String())
	}

	bad := syncFixture()
	for i := range bad.Barriers {
		if bad.Barriers[i].Impl == "tree" && bad.Barriers[i].Tasks == 32 {
			bad.Barriers[i].NsPerOp = 500
		}
	}
	bad.Checks = computeSyncChecks(bad)
	out.Reset()
	err := Compare(&out, "sync", base, bad)
	if err == nil || !strings.Contains(err.Error(), "tree_beats_mutex_32") {
		t.Fatalf("regressed compare error = %v, want tree_beats_mutex_32 failure", err)
	}
}

// TestSyncBaselineSnapshotParses: the committed baseline's stored checks
// are the ones its own points compute to.
func TestSyncBaselineSnapshotParses(t *testing.T) {
	base := readBaseline(t, "sync", &SyncResult{}).(*SyncResult)
	if got := computeSyncChecks(base); got != base.Checks {
		t.Fatalf("recomputed checks %+v disagree with stored %+v", got, base.Checks)
	}
}

func TestWriteSyncCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSyncCSV(&buf, syncFixture()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"kind,impl_or_mode,op", "barrier,tree,barrier,32", "collective,shared,allreduce,32"} {
		if !strings.Contains(s, want) {
			t.Errorf("CSV missing %q:\n%s", want, s)
		}
	}
}
