package metrics

import (
	"sync/atomic"
	"testing"
)

// TestNilPathZeroAllocs proves the disabled fast path allocates nothing:
// a nil registry hands out nil handles whose methods are one branch.
// This is the property that lets the adapters stay installed in
// production code unconditionally.
func TestNilPathZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "")
	hlsAd := NewHLSAdapter(nil)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc(3) }},
		{"Gauge.Add", func() { g.Add(1, -2) }},
		{"Histogram.Observe", func() { h.Observe(0, 12345) }},
		{"HLSAdapter", func() { hlsAd.Arrive("barrier/node:0/0", 2); hlsAd.Depart("barrier/node:0/0", 2) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s on the nil path: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	r := New(32)
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(i)
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc(i)
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

// BenchmarkCounterIncParallel shows the point of sharding: concurrent
// writers on distinct shards do not bounce one cache line.
func BenchmarkCounterIncParallel(b *testing.B) {
	r := New(64)
	c := r.Counter("bench_par_total", "")
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		shard := int(next.Add(1)) // one shard per goroutine
		for pb.Next() {
			c.Inc(shard)
		}
	})
}

// TestWireAdapterZeroAllocs: the clock sample, the one event the wire
// adapter is still pushed, allocates nothing: the per-peer offset
// gauges are registered up front, and the nil-registry adapter stays a
// no-op.
func TestWireAdapterZeroAllocs(t *testing.T) {
	for _, reg := range []*Registry{New(4), nil} {
		a := NewWireAdapter(reg, 4)
		fn := func() {
			a.ClockSample(1, 42, 1000)
			a.ClockSample(3, -7, -1)
		}
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("WireAdapter (registry=%v): %v allocs/op, want 0", reg != nil, allocs)
		}
	}
}
