// Package metrics is the runtime telemetry registry: low-overhead
// counters, gauges and log-scale histograms, exported as Prometheus text
// exposition, JSON snapshots, and a live HTTP endpoint (see http.go).
// Two kinds of source fill it. hls's directive edges and wire's clock
// samples push their events into sharded metrics while a program runs.
// Every other count is kept once, by its layer, in a Stats method
// (mpi.World, wire.Transport, hls.Registry, rma.Window,
// ckpt.Coordinator), and the adapters register CounterFunc/GaugeFunc
// series that read the watched sources' Stats when the registry is
// scraped (pull.go).
//
// The paper's evaluation (§V) is an observability exercise — cache
// footprints, memory per node, directive synchronization cost — and
// PGAS-over-MPI runtimes report that shared-segment schemes live or die
// on *measured* synchronization and access overheads. This package turns
// those quantities into first-class metrics instead of after-the-fact
// trace files or print statements.
//
// Two properties drive the design:
//
//   - Sharding. MPI tasks are goroutines pinned across sockets; a single
//     shared atomic counter would bounce its cache line between all of
//     them on every message. Every metric therefore keeps one
//     cache-line-padded cell (or bucket block) per shard — callers pass
//     their world rank — and readers sum across shards.
//
//   - A nil fast path. A nil *Registry hands out nil metric handles, and
//     every mutating method on a nil handle is a no-op: the disabled
//     path compiles to a method call and one branch, with zero
//     allocations (bench_test.go proves it), so instrumentation can stay
//     in place permanently.
//
// All methods are safe for concurrent use.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// cacheLine is the padding granularity separating shard cells, in units
// of int64 words (64 bytes on every platform this targets).
const cacheLine = 8

// Label is one name/value pair attached to a metric. Metrics with the
// same name and different labels are distinct series of one family.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry owns a set of named metrics. The zero value is not usable;
// call New. A nil *Registry is valid and hands out nil handles whose
// methods do nothing — the disabled fast path.
type Registry struct {
	shards int

	mu         sync.Mutex
	counters   map[string]*cells
	gauges     map[string]*cells
	histograms map[string]*Histogram
	order      []family // exposition order = registration order
}

type family struct {
	kind string // "counter", "gauge", "histogram"
	id   string // name + rendered labels
}

// New builds a registry with the given shard count. Callers pass their
// shard (typically the MPI world rank) to every update; shard indices
// are reduced modulo the count, so any non-negative index is safe.
func New(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		shards:     shards,
		counters:   make(map[string]*cells),
		gauges:     make(map[string]*cells),
		histograms: make(map[string]*Histogram),
	}
}

// Shards returns the registry's shard count (0 for a nil registry).
func (r *Registry) Shards() int {
	if r == nil {
		return 0
	}
	return r.shards
}

// seriesID renders the unique identity of a series: name plus sorted
// labels, e.g. `hls_directive_wait_ns{kind="barrier",scope="node:0"}`.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// sortedLabels returns a sorted copy of labels.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns (creating on first use) the monotonically increasing
// counter of the given name and labels. Help is recorded on first
// creation of the family. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return (*Counter)(r.series(r.counters, "counter", name, help, nil, labels))
}

// Gauge returns (creating on first use) the gauge of the given name and
// labels: a sum of sharded deltas, so concurrent Inc/Dec from many tasks
// never contend on one cache line. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return (*Gauge)(r.series(r.gauges, "gauge", name, help, nil, labels))
}

// CounterFunc registers a counter whose value is read from fn whenever
// the registry is snapshotted or exposed — the pattern for counts a
// runtime layer already keeps (mpi.World.Stats), so the hot path pays
// for them once. The series has one shard. If the series already
// exists, the first registration wins and fn is ignored. No-op on a nil
// registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r != nil {
		r.series(r.counters, "counter", name, help, fn, labels)
	}
}

// GaugeFunc is CounterFunc for a gauge: fn is read at snapshot time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	if r != nil {
		r.series(r.gauges, "gauge", name, help, fn, labels)
	}
}

// series interns one counter or gauge series in m (r.counters or
// r.gauges), creating it on first use.
func (r *Registry) series(m map[string]*cells, kind, name, help string, fn func() int64, labels []Label) *cells {
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := m[id]; ok {
		return c
	}
	shards := r.shards
	if fn != nil {
		shards = 1
	}
	c := &cells{name: name, help: help, labels: sortedLabels(labels),
		v: make([]int64, shards*cacheLine), shards: shards, fn: fn}
	m[id] = c
	r.order = append(r.order, family{kind: kind, id: id})
	return c
}

// Histogram returns (creating on first use) the log-scale histogram of
// the given name and labels. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[id]; ok {
		return h
	}
	h := newHistogram(name, help, sortedLabels(labels), r.shards)
	r.histograms[id] = h
	r.order = append(r.order, family{kind: "histogram", id: id})
	return h
}

// cells is the storage behind a Counter or a Gauge: one value per shard.
type cells struct {
	name   string
	help   string
	labels []Label
	shards int
	// v holds one value per shard at stride cacheLine, so shards never
	// share a cache line.
	v []int64
	// fn, if set (CounterFunc/GaugeFunc), supplies the value instead.
	fn func() int64
}

func (c *cells) add(shard int, d int64) {
	if c != nil {
		atomic.AddInt64(&c.v[int(uint(shard)%uint(c.shards))*cacheLine], d)
	}
}

func (c *cells) value() int64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	var sum int64
	for s := 0; s < c.shards; s++ {
		sum += atomic.LoadInt64(&c.v[s*cacheLine])
	}
	return sum
}

func (c *cells) perShard() []int64 {
	if c == nil {
		return nil
	}
	if c.fn != nil {
		return []int64{c.fn()}
	}
	out := make([]int64, c.shards)
	for s := range out {
		out[s] = atomic.LoadInt64(&c.v[s*cacheLine])
	}
	return out
}

// Counter is a monotonically increasing sharded counter. A nil *Counter
// is the disabled fast path: every method is a no-op (Value returns 0).
type Counter cells

// Add adds v (which must be >= 0) to the shard's cell.
func (c *Counter) Add(shard int, v int64) { (*cells)(c).add(shard, v) }

// Inc adds 1 to the shard's cell.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the sum over shards.
func (c *Counter) Value() int64 { return (*cells)(c).value() }

// PerShard returns the per-shard values — per-rank breakdowns for
// imbalance analysis. Returns nil on a nil counter.
func (c *Counter) PerShard() []int64 { return (*cells)(c).perShard() }

// Gauge is a sharded gauge: the value is the sum of per-shard deltas.
// A nil *Gauge is the disabled fast path.
type Gauge cells

// Add adds v (possibly negative) to the shard's cell.
func (g *Gauge) Add(shard int, v int64) { (*cells)(g).add(shard, v) }

// Inc adds 1 to the shard's cell.
func (g *Gauge) Inc(shard int) { g.Add(shard, 1) }

// Dec subtracts 1 from the shard's cell.
func (g *Gauge) Dec(shard int) { g.Add(shard, -1) }

// Set makes the gauge read v by adjusting shard 0 (intended for
// single-writer gauges like configuration values).
func (g *Gauge) Set(v int64) { g.Add(0, v-g.Value()) }

// PerShard returns the per-shard deltas. Returns nil on a nil gauge.
func (g *Gauge) PerShard() []int64 { return (*cells)(g).perShard() }

// Value returns the sum over shards.
func (g *Gauge) Value() int64 { return (*cells)(g).value() }
