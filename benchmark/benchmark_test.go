package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{50, 30}, {20, 10}, {21, 20}, {99.999, 50}, {100, 50}, {0.001, 10},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: p99 = %v, want 7", got)
	}
	if got := percentile([]uint32(nil), 50); got != 0 {
		t.Errorf("no samples: p50 = %v, want 0", got)
	}
}

// The tail is the highest candidate percentile with at least ten samples
// strictly beyond its rank.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{
		{1, 50}, {10, 50}, {99, 50}, // tiny samples have no tail
		{100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
		{100000, 99.99}, {1000000, 99.999}, {4000000, 99.999},
	} {
		pct, idx := tailPercentile(tc.n)
		if pct != tc.pct {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, pct, tc.pct)
		}
		if idx >= 0 {
			if tailCandidates[idx] != pct {
				t.Errorf("tailPercentile(%d): index %d is not %v", tc.n, idx, pct)
			}
			if beyond := tc.n - 1 - rankOf(tc.n, pct); beyond < minBeyond {
				t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", tc.n, pct, beyond)
			}
		}
	}
}

func TestMedianOfSegments(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v, want 2.5", got)
	}
	// One slow segment out of five must not move the reported value.
	var segs []*segment
	for _, us := range []float64{13.1, 12.9, 40.0, 13.0, 12.8} {
		segs = append(segs, &segment{p50us: us, ops: 1000, wall: time.Duration(us * 1000 * float64(time.Microsecond))})
	}
	r := &result{w: workloads[0], segs: segs}
	if got := r.endToEndValues()[mOpP50]; got != 13.0 {
		t.Errorf("op_p50_us over segments = %v, want the median 13.0", got)
	}
	if got, want := r.endToEndValues()[mOpsPerS], 1e6/13.0; math.Abs(got-want) > 1e-6*want {
		t.Errorf("ops_per_s over segments = %v, want %v", got, want)
	}
}

// iqrShare must place the quartiles where Python's
// statistics.quantiles(values, n=4) places them.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 50}, (31.5 - 10.5) / 12},
		{[]float64{3, 5}, (5.5 - 2.5) / 4},
	} {
		if got := iqrShare(tc.vs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("iqrShare(%v) = %v, want %v", tc.vs, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &rankTrace{root: -1}
	at := func(name spanName, op, parent int32, start, end int64) {
		tr.spans = append(tr.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	}
	at(spOp, 0, -1, 0, 100)
	at(spSend, 0, 0, 10, 30)
	at(spRecv, 0, 0, 40, 90)
	at(spOp, 1, -1, 100, 160)
	at(spSend, 1, 3, 100, 160) // a child covering its whole parent
	self := selfTimes(tr.spans)
	if self[spOp] != 30 || self[spSend] != 80 || self[spRecv] != 50 {
		t.Errorf("self times op/send/recv = %d/%d/%d, want 30/80/50", self[spOp], self[spSend], self[spRecv])
	}
	var sum int64
	for _, ns := range self {
		sum += ns
	}
	if sum != 160 {
		t.Errorf("self times sum to %d, want the roots' 160", sum)
	}
}

func TestRankTraceNilIsUntraced(t *testing.T) {
	var tr *rankTrace
	tr.beginOp(3)
	id := tr.begin(spSend)
	tr.end(id)
	tr.endOp()
	tr.reset()

	tr = newRankTrace(time.Now(), 8)
	tr.beginOp(7)
	id = tr.begin(spBarrier)
	tr.end(id)
	tr.endOp()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].Op != 7 || tr.spans[0].Parent != -1 {
		t.Fatalf("recorded %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child not nested in its root: %+v", tr.spans)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := report{
		Env: envInfo{GoVersion: "go1.22", NumCPU: 2, GOMAXPROCS: 2, Seed: 7, Seconds: 10, Segments: 5, Link: "loopback"},
		Workloads: []workloadReport{{
			Name: "pingpong_wire_64B", Ranks: 2, Attempted: 1000, Failed: 1, Failures: []string{"op 3"}, MBPerS: 7.5,
			Metrics:  map[string]metric{mOpP50: {12.9, "us"}, mSetup: {0.16, "s"}},
			Segments: []segmentReport{{Ops: 200, OpP50Us: 12.9, OpsPerS: 60000, SetupS: 0.16, LiveHeapMB: 1}},
		}},
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Errorf("round trip changed the report:\n%+v\n%+v", rep, back)
	}

	line, err := json.Marshal(driverLine{Correct: true, Attempted: 5, Metrics: map[string]metric{mOpP50: {1.5, "us"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("driver line has keys %s, want exactly correct, attempted, failed, metrics", line)
	}
}

// BENCHMARK.json at the repo root is generated by -manifest; this pins it
// to the names in defs.go and workloads.go and checks the contract's rules
// on names, units and bounds.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != 8 {
		t.Errorf("%d workloads, want 8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: bad unit or bound", d)
		}
		if d.Name == mSetup && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range m.PerLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound != nil || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v: bad unit, direction or a bound", d)
		}
	}
	for _, n := range exactCounts {
		if !seen[n] {
			t.Errorf("exact count %q is not a per-layer metric", n)
		}
	}

	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(onDisk, &want); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(m)
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("BENCHMARK.json differs from the benchmark's definitions; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
}

// The -quick smoke: all 8 workloads at 1/200 op count, twice with one
// seed. Every op must be answered correctly and the exact counts must
// repeat.
func TestQuickSmokeRepeatsExactly(t *testing.T) {
	durs := make([]uint32, maxTimedOps)
	o := options{seed: 1, seconds: runSeconds, quick: true}
	var counts [2][]map[string]float64
	for i := range counts {
		for _, w := range workloads {
			r, _, err := runWorkload(w, o, durs)
			if err != nil {
				t.Fatal(err)
			}
			attempted, failed, failures := r.attempted()
			if failed != 0 || attempted == 0 {
				t.Errorf("%s: %d of %d ops failed: %v", w.name, failed, attempted, failures)
			}
			for name, v := range r.endToEndValues() {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v, want a positive number", w.name, name, v)
				}
			}
			counts[i] = append(counts[i], r.countValues())
		}
	}
	for k, w := range workloads {
		for _, name := range exactCounts {
			if a, b := counts[0][k][name], counts[1][k][name]; a != b {
				t.Errorf("%s: %s = %v then %v on the same seed", w.name, name, a, b)
			}
		}
	}
	// The workloads must load the layers they claim to.
	for k, want := range []map[string]float64{
		{"mpi.msgs_per_op": 2, "wire.frames_per_op": 0},
		{"mpi.msgs_per_op": 2, "wire.frames_per_op": 0},
		// Counters are summed over the two worlds, and both ends count a
		// message that crosses between them; only the sender counts the
		// rendezvous.
		{"mpi.msgs_per_op": 4, "mpi.rendezvous_share": 0},
		{"mpi.msgs_per_op": 4, "mpi.rendezvous_share": 0.5},
		{"wire.batch_fill": 0},
		{},
		{"mpi.msgs_per_op": 8 * 26, "wire.frames_per_op": 0},
		{"mpi.msgs_per_op": 0, "hls.instances": 1, "hls.shared_mb": 32},
	} {
		for name, v := range want {
			if got := counts[0][k][name]; got != v {
				t.Errorf("%s: %s = %v, want %v", workloads[k].name, name, got, v)
			}
		}
	}
	if counts[0][1]["trace.events_per_op"] <= 0 || counts[0][5]["wire.batch_fill"] < 1 || counts[0][6]["mpi.pack_elisions_per_op"] <= 0 {
		t.Errorf("tracing, batching or pack elision did not engage: %v %v %v",
			counts[0][1]["trace.events_per_op"], counts[0][5]["wire.batch_fill"], counts[0][6]["mpi.pack_elisions_per_op"])
	}
}

// The traced run: spans are written, and the per-layer self times of an
// op add up to the traced op time.
func TestQuickTracedRun(t *testing.T) {
	durs := make([]uint32, maxTimedOps)
	dir := t.TempDir()
	for _, name := range []string{"pingpong_wire_64B", "coll_wire_2x2", "hls_mesh_update"} {
		w := workloadByName(name)
		in := newInputs(5)
		p := plan{warm: 16, ops: 64}
		if w.prepare != nil {
			if err := w.prepare(in, p.warm); err != nil {
				t.Fatal(err)
			}
		}
		r := &result{w: w}
		for _, traced := range []bool{false, true} {
			p.traced = traced
			seg, err := runSegment(w, in, p, durs)
			if err != nil {
				t.Fatal(err)
			}
			if seg.failed != 0 {
				t.Fatalf("%s: %v", name, seg.failures)
			}
			if traced {
				r.traced = append(r.traced, seg)
			} else {
				r.segs = append(r.segs, seg)
			}
		}
		v := r.spanValues()
		if share := v["self.sum_over_op_time"]; share < 0.95 || share > 1.0001 {
			t.Errorf("%s: self times sum to %.3f of the traced op time, want within 5%%", name, share)
		}
		if err := writeTrace(dir, r); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Workload string    `json:"workload"`
			Names    []string  `json:"names"`
			Spans    [][]int64 `json:"spans"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: span file is not JSON: %v", name, err)
		}
		roots := 0
		for _, s := range doc.Spans {
			if len(s) != 6 || s[4] < s[3] {
				t.Fatalf("%s: bad span row %v", name, s)
			}
			if s[5] == -1 {
				roots++
			}
		}
		if doc.Workload != name || roots != w.ranks*p.ops || len(doc.Spans) <= roots {
			t.Errorf("%s: span file has %d roots and %d spans, want %d roots and children", name, roots, len(doc.Spans), w.ranks*p.ops)
		}
	}
}
