package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// recoverFixture is a small in-memory result with every check passing.
func recoverFixture() *RecoverResult {
	return &RecoverResult{
		Tasks: 16, Iters: 36, CkptEvery: 6, Seed: 1,
		Clean:       RecoverRun{Mode: "clean", Seconds: 0.03, Iters: 36},
		Killed:      RecoverRun{Mode: "killed", Seconds: 0.005, Iters: 9},
		Resumed:     RecoverRun{Mode: "resumed", Seconds: 0.02, Iters: 30, StartIter: 6},
		TornResumed: RecoverRun{Mode: "torn-resumed", Seconds: 0.01, Iters: 6, StartIter: 30},
		RestoreGen:  1, RestoreBytes: 5301, RestoreMs: 5.25,
		TornGen: 6, TornRestoreGen: 5, TornSkippedGens: 1,
		Checks: RecoverChecks{Identical: true, TornSkipped: true, RestoreReported: true, KillFired: true},
	}
}

// haloFixture is a small in-memory result with every check passing.
func haloFixture() *HaloResult {
	return &HaloResult{
		Profile: "quick",
		Points: []HaloPoint{
			{Mode: "inproc", Ablation: "zerocopy", N: 32, Halo: 2, BytesPerIter: 1 << 20,
				NsPerOp: 40000, MBPerS: 26000, PackElisions: 416, Digest: "aaaaaaaaaaaaaaaa"},
			{Mode: "wire", Ablation: "packed", N: 32, Halo: 2, BytesPerIter: 1 << 20,
				NsPerOp: 900000, MBPerS: 1100, Digest: "aaaaaaaaaaaaaaaa", FramesSent: 120},
		},
		Checks: HaloChecks{
			ZeroCopySpeedup: true, ZeroAllocsSteadyState: true, BitwiseIdentical: true,
			ElisionEngaged: true, CleanWire: true, NoLeakedBuffers: true,
		},
	}
}

// readBaseline reads the committed testdata/BENCH_<exp>_baseline.json
// through the one snapshot reader, into like's type.
func readBaseline(t *testing.T, exp string, like Snapshot) Snapshot {
	t.Helper()
	f, err := os.Open("testdata/BENCH_" + exp + "_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := ReadSnapshot(f, like)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// allChecksHold reports whether every check of a snapshot is true.
func allChecksHold(s Snapshot) bool {
	v := reflect.ValueOf(checksOf(s))
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).Bool() {
			return false
		}
	}
	return true
}

// TestSnapshots holds every gated experiment to the one snapshot path:
// its committed baseline parses through ReadSnapshot with every check
// true, a fixture round-trips through WriteSnapshot unchanged, Compare
// prints each baseline row and passes against the baseline itself, and
// turning any one check false fails Compare naming that check.
func TestSnapshots(t *testing.T) {
	for _, tc := range []struct {
		exp     string
		fixture func() Snapshot
	}{
		{"sync", func() Snapshot { return syncFixture() }},
		{"coll", func() Snapshot { return collFixture() }},
		{"recover", func() Snapshot { return recoverFixture() }},
		{"halo", func() Snapshot { return haloFixture() }},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			cur := tc.fixture()
			if !allChecksHold(cur) {
				t.Fatalf("fixture checks = %+v, want all true", checksOf(cur))
			}
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, cur); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSnapshot(&buf, cur)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, cur) {
				t.Fatalf("round trip = %+v, want %+v", back, cur)
			}

			base := readBaseline(t, tc.exp, cur)
			if len(base.rows()) == 0 {
				t.Fatal("baseline has no timed rows")
			}
			if !allChecksHold(base) {
				t.Fatalf("committed baseline checks = %+v, want all true", checksOf(base))
			}
			var out strings.Builder
			if err := Compare(&out, tc.exp, base, base); err != nil {
				t.Fatalf("baseline compared against itself: %v", err)
			}
			for _, r := range base.rows() {
				if !strings.Contains(out.String(), r.key) {
					t.Errorf("comparison lacks row %q:\n%s", r.key, out.String())
				}
			}
			if !strings.HasSuffix(out.String(), "all baseline checks still hold\n") {
				t.Errorf("missing pass line in:\n%s", out.String())
			}

			typ := reflect.TypeOf(checksOf(base))
			for i := 0; i < typ.NumField(); i++ {
				bad := readBaseline(t, tc.exp, cur)
				reflect.ValueOf(bad).Elem().FieldByName("Checks").Field(i).SetBool(false)
				name := checkName(typ.Field(i))
				err := Compare(&out, tc.exp, base, bad)
				if err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("%s false: Compare error = %v, want one naming it", name, err)
				}
			}
		})
	}
}
