// Package metrics is the runtime telemetry registry: counters, gauges
// and log-scale histograms, exported as Prometheus text exposition, JSON
// snapshots, and a live HTTP endpoint (see http.go). Every counter and
// gauge is pulled: each count is kept once, by its layer, in a Stats
// method (mpi.World, wire.Transport, hls.Registry, rma.Window,
// ckpt.Coordinator) or the transport's Clock estimate, and the adapters
// register CounterFunc/GaugeFunc series that read the watched sources
// when the registry is scraped (pull.go). The one push is the
// directive-wait histogram, hls_directive_wait_ns: a distribution cannot
// be read back from a count, so HLSAdapter observes each directive's
// wait into it as the directive ends.
//
// The paper's evaluation (§V) is an observability exercise — cache
// footprints, memory per node, directive synchronization cost — and
// PGAS-over-MPI runtimes report that shared-segment schemes live or die
// on *measured* synchronization and access overheads. This package turns
// those quantities into first-class metrics instead of after-the-fact
// trace files or print statements.
//
// Two properties drive the histogram design:
//
//   - Sharding. MPI tasks are goroutines pinned across sockets; a single
//     shared atomic counter would bounce its cache line between all of
//     them on every observation. A histogram therefore keeps one
//     cache-line-padded bucket block per shard — callers pass their
//     world rank — and readers sum across shards. The per-shard
//     breakdown is the per-rank imbalance view.
//
//   - A nil fast path. A nil *Registry hands out nil histograms and
//     registers no functions, and Observe on a nil histogram is a no-op:
//     the disabled path compiles to a method call and one branch, with
//     zero allocations (bench_test.go proves it), so instrumentation can
//     stay in place permanently.
//
// All methods are safe for concurrent use.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name/value pair attached to a metric. Metrics with the
// same name and different labels are distinct series of one family.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry owns a set of named metrics. The zero value is not usable;
// call New. A nil *Registry is valid: it registers nothing and hands out
// nil histograms whose methods do nothing — the disabled fast path.
type Registry struct {
	shards int

	mu         sync.Mutex
	counters   map[string]*funcSeries
	gauges     map[string]*funcSeries
	histograms map[string]*Histogram
	order      []family // exposition order = registration order
}

type family struct {
	kind string // "counter", "gauge", "histogram"
	id   string // name + rendered labels
}

// New builds a registry whose histograms have the given shard count.
// Callers pass their shard (typically the MPI world rank) to every
// observation; shard indices are reduced modulo the count, so any
// non-negative index is safe.
func New(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{
		shards:     shards,
		counters:   make(map[string]*funcSeries),
		gauges:     make(map[string]*funcSeries),
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

// CounterFunc registers a counter whose value is read from fn whenever
// the registry is snapshotted or exposed — the pattern for counts a
// runtime layer already keeps (mpi.World.Stats), so the hot path pays
// for them once. If the series already exists, the first registration
// wins and fn is ignored. No-op on a nil registry.
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
// r.gauges); an existing series keeps its fn.
func (r *Registry) series(m map[string]*funcSeries, kind, name, help string, fn func() int64, labels []Label) {
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := m[id]; ok {
		return
	}
	m[id] = &funcSeries{name: name, help: help, labels: sortedLabels(labels), fn: fn}
	r.order = append(r.order, family{kind: kind, id: id})
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

// funcSeries is one counter or gauge series: fn supplies its value.
type funcSeries struct {
	name   string
	help   string
	labels []Label
	fn     func() int64
}
