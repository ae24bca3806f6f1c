package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistogramSharded(t *testing.T) {
	r := New(4)
	h := r.Histogram("msg_bytes", "message sizes")
	h.Observe(0, 1)
	h.Observe(1, 10)
	h.Observe(3, 100)
	h.Observe(5, 1000) // shard 5 folds into block 5 mod 4 = 1
	if h.Count() != 4 || h.Sum() != 1111 {
		t.Fatalf("Count, Sum = %d, %d; want 4, 1111", h.Count(), h.Sum())
	}
	wantCount, wantSum := []int64{1, 2, 0, 1}, []int64{1, 1010, 0, 100}
	gotCount, gotSum := h.PerShardCount(), h.PerShardSum()
	for i := range wantCount {
		if gotCount[i] != wantCount[i] || gotSum[i] != wantSum[i] {
			t.Fatalf("PerShardCount = %v, PerShardSum = %v; want %v, %v", gotCount, gotSum, wantCount, wantSum)
		}
	}
}

func TestRegistryInternsSeries(t *testing.T) {
	r := New(2)
	r.CounterFunc("x_total", "x", func() int64 { return 1 }, L("op", "put"), L("win", "w"))
	r.CounterFunc("x_total", "ignored on reuse", func() int64 { return 2 }, L("win", "w"), L("op", "put"))
	r.CounterFunc("x_total", "x", func() int64 { return 3 }, L("op", "get"))
	r.GaugeFunc("g", "", func() int64 { return 4 })
	r.GaugeFunc("g", "", func() int64 { return 5 })
	snap := r.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Value != 1 {
		t.Fatalf("counters %+v: same name+labels (any order) must be one series, the first fn winning", snap.Counters)
	}
	if snap.Counters[1].Value != 3 {
		t.Fatal("different label values must be distinct series")
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 4 {
		t.Fatalf("gauge not interned: %+v", snap.Gauges)
	}
	if h1, h2 := r.Histogram("h", ""), r.Histogram("h", ""); h1 != h2 {
		t.Fatal("histogram not interned")
	}
}

// TestGauge: a gauge reads its function at every snapshot, so it follows
// a level up and down, below zero too.
func TestGauge(t *testing.T) {
	r := New(4)
	level := int64(-1)
	r.GaugeFunc("in_flight", "", func() int64 { return level })
	if got := r.Snapshot().Gauges[0].Value; got != -1 {
		t.Fatalf("Value = %d, want -1", got)
	}
	level = 42
	if got := r.Snapshot().Gauges[0].Value; got != 42 {
		t.Fatalf("after the level moved to 42: Value = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	r := New(2)
	for _, c := range cases {
		h := r.Histogram("case", "", L("v", time.Duration(c.v).String()))
		h.Observe(0, c.v)
		b := h.Buckets()
		if b[c.bucket] != 1 {
			t.Errorf("Observe(%d): bucket %d not hit: %v", c.v, c.bucket, b[:12])
		}
	}

	h := r.Histogram("lat", "")
	for i := 0; i < 100; i++ {
		h.Observe(i, 100) // spread over shards
	}
	h.Observe(0, 1<<60) // beyond the last bound: clamps into the overflow bucket
	if got := h.Count(); got != 101 {
		t.Fatalf("Count = %d, want 101", got)
	}
	if got := h.Sum(); got != 100*100+1<<60 {
		t.Fatalf("Sum = %d", got)
	}
	if q := h.Quantile(0.5); q != 128 {
		t.Fatalf("Quantile(0.5) = %d, want 128 (bucket bound above 100)", q)
	}
	if BucketBound(0) != 1 || BucketBound(3) != 8 || BucketBound(numBuckets-1) != -1 {
		t.Fatal("BucketBound bounds wrong")
	}
}

func TestNilRegistryFastPath(t *testing.T) {
	var r *Registry
	read := func() int64 { t.Error("a nil registry read a series"); return 0 }
	r.CounterFunc("c", "", read)
	r.GaugeFunc("g", "", read)
	h := r.Histogram("h", "")
	if h != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	h.Observe(2, 100)
	h.ObserveDuration(0, time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histograms must read zero")
	}
	if h.PerShardCount() != nil || h.Quantile(0.9) != 0 {
		t.Fatal("nil histograms must read empty breakdowns")
	}
	if r.Shards() != 0 {
		t.Fatal("nil registry Shards")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotAndSub(t *testing.T) {
	r := New(2)
	ops := int64(5)
	r.CounterFunc("ops_total", "", func() int64 { return ops }, L("op", "put"))
	h := r.Histogram("lat_ns", "")
	h.Observe(0, 3)
	before := r.Snapshot()
	ops = 12
	h.Observe(1, 3)
	h.Observe(1, 100)
	after := r.Snapshot(WithPerShard())

	if after.Counters[0].Value != 12 {
		t.Fatalf("snapshot counter: %+v", after.Counters[0])
	}
	if pc := after.Histograms[0].PerShardCount; len(pc) != 2 || pc[1] != 2 {
		t.Fatalf("snapshot histogram per-shard counts: %v", pc)
	}
	delta := after.Sub(before)
	if delta.Counters[0].Value != 7 {
		t.Fatalf("delta counter = %d, want 7", delta.Counters[0].Value)
	}
	dh := delta.Histograms[0]
	if dh.Count != 2 || dh.Sum != 103 {
		t.Fatalf("delta histogram: count %d sum %d", dh.Count, dh.Sum)
	}
	// Bucket deltas: one more observation of 3 (bucket le=4), one of 100
	// (le=128).
	counts := map[int64]int64{}
	for _, b := range dh.Buckets {
		counts[b.Le] = b.Count
	}
	if counts[4] != 1 || counts[128] != 1 {
		t.Fatalf("delta buckets: %v", dh.Buckets)
	}

	// A snapshot round-trips through JSON (the /metrics.json body).
	blob, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[0].Value != 12 {
		t.Fatal("snapshot did not survive JSON round-trip")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New(2)
	r.CounterFunc("ops_total", "operations, by op", func() int64 { return 3 }, L("op", "put"))
	r.CounterFunc("ops_total", "operations, by op", func() int64 { return 1 }, L("op", "get"))
	r.GaugeFunc("open", "open things", func() int64 { return 2 })
	h := r.Histogram("lat_ns", "latency")
	h.Observe(0, 1)
	h.Observe(0, 3)
	h.Observe(1, 1000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ops_total operations, by op\n",
		"# TYPE ops_total counter\n",
		`ops_total{op="put"} 3` + "\n",
		`ops_total{op="get"} 1` + "\n",
		"# TYPE open gauge\nopen 2\n",
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="1"} 1` + "\n",
		`lat_ns_bucket{le="4"} 2` + "\n", // cumulative: the le=4 bucket includes le=1
		`lat_ns_bucket{le="1024"} 3` + "\n",
		`lat_ns_bucket{le="+Inf"} 3` + "\n",
		"lat_ns_sum 1004\n",
		"lat_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE ops_total") != 1 {
		t.Error("family header must appear once per family, not per series")
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := New(2)
	r.CounterFunc("hits_total", "hits", func() int64 { return 1 })
	r.Histogram("lat_ns", "").Observe(1, 5)

	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "hits_total 1") || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics: ctype %q body %q", ctype, body)
	}
	body, ctype = get("/metrics.json?shards=1")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/metrics.json ctype %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 1 || len(snap.Histograms) != 1 || snap.Histograms[0].PerShardCount == nil {
		t.Fatalf("/metrics.json?shards=1 missing per-shard detail: %s", body)
	}
	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	r := New(1)
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Serve did not resolve the ephemeral port: %s", addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
}
