package metrics

import (
	"sync/atomic"
	"testing"
)

// TestNilPathZeroAllocs proves the disabled fast path allocates nothing:
// a nil registry hands out nil histograms whose methods are one branch.
// This is the property that lets the adapters stay installed in
// production code unconditionally.
func TestNilPathZeroAllocs(t *testing.T) {
	var r *Registry
	h := r.Histogram("h", "")
	hlsAd := NewHLSAdapter(nil)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Histogram.Observe", func() { h.Observe(0, 12345) }},
		{"HLSAdapter", func() { hlsAd.Arrive("barrier/node:0/0", 2); hlsAd.Depart("barrier/node:0/0", 2) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s on the nil path: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	r := New(32)
	h := r.Histogram("bench_ns", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(i, int64(i))
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var r *Registry
	h := r.Histogram("bench_ns", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(i, int64(i))
	}
}

// BenchmarkHistogramObserveParallel shows the point of sharding:
// concurrent writers on distinct shards do not bounce one cache line.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := New(64)
	h := r.Histogram("bench_par_ns", "")
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		shard := int(next.Add(1)) // one shard per goroutine
		for pb.Next() {
			h.Observe(shard, 100)
		}
	})
}
