package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"hls/internal/hls"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/rma"
)

// Telemetry bundles one metrics registry with the three runtime
// adapters. The adapters are constructed together with the registry so
// every fixed metric family is registered — and therefore visible on
// /metrics — from the moment the endpoint comes up, not only after the
// first event of each kind.
type Telemetry struct {
	Registry *metrics.Registry
	MPI      *metrics.MPIAdapter
	HLS      *metrics.HLSAdapter
	RMA      *metrics.RMAAdapter
}

// NewTelemetry builds a registry sharded for up to `shards` ranks and
// the three runtime adapters over it.
func NewTelemetry(shards int) *Telemetry {
	reg := metrics.New(shards)
	return &Telemetry{
		Registry: reg,
		MPI:      metrics.NewMPIAdapter(reg),
		HLS:      metrics.NewHLSAdapter(reg),
		RMA:      metrics.NewRMAAdapter(reg),
	}
}

// active is the harness-wide telemetry sink. The runners consult it
// when they build worlds, HLS registries and RMA windows; nil (the
// default) means instrumentation is disabled and every hook site passes
// nil interfaces down, which the runtime compiles to a single branch.
//
// It is set once, before any runner starts (by cmd/hlsbench or a test),
// and only read afterwards — the runners themselves never write it.
var active *Telemetry

// SetTelemetry installs t as the sink every subsequent runner wires
// into the worlds, registries and windows it builds. Pass nil to
// disable instrumentation (the default). Call it before runners start;
// it must not race with a running experiment.
func SetTelemetry(t *Telemetry) { active = t }

// ActiveTelemetry returns the currently installed sink, or nil.
func ActiveTelemetry() *Telemetry { return active }

// runWorld runs fn on every task of w. When telemetry is on, w's Stats
// feed the MPI telemetry and each of regs' Stats the HLS telemetry for
// the duration. The watches stop when Run returns, so the finished run's
// counts stay in the totals and neither the world nor its registries are
// kept alive.
func runWorld(w *mpi.World, fn func(*mpi.Task) error, regs ...*hls.Registry) error {
	if active != nil {
		defer active.MPI.Watch(w)()
		for _, r := range regs {
			defer active.HLS.Watch(r)()
		}
	}
	return w.Run(fn)
}

// telemetryHLSOptions returns the hls.Option slice new registries
// should start from (empty when telemetry is off). Pass the registry to
// runWorld as well, so its Stats are watched.
func telemetryHLSOptions() []hls.Option {
	if active == nil {
		return nil
	}
	return []hls.Option{hls.WithObserver(active.HLS)}
}

// watchWindow adds win's Stats to the RMA telemetry, once per window:
// every rank holds the same *Window, so only rank 0 watches. Call the
// returned stop after Free, so the counts stay and the window goes.
func watchWindow[T mpi.Scalar](t *mpi.Task, win *rma.Window[T]) (stop func()) {
	if active == nil || t.Rank() != 0 {
		return func() {}
	}
	return active.RMA.Watch(win)
}

// histQuantile reads the q-quantile's bucket upper bound from a
// snapshot histogram; +Inf for the overflow bucket, NaN when empty.
func histQuantile(h metrics.HistogramValue, q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if cum >= rank {
			if b.Le < 0 {
				return math.Inf(1)
			}
			return float64(b.Le)
		}
	}
	return math.Inf(1)
}

// imbalance computes max/mean of the per-rank wait-time sums, over the
// ranks that participated (count > 0). 1.0 is perfectly balanced; the
// factor grows as stragglers concentrate the waiting on few ranks.
func imbalance(h metrics.HistogramValue) float64 {
	var total, maxSum int64
	ranks := 0
	for s, c := range h.PerShardCount {
		if c == 0 {
			continue
		}
		ranks++
		sum := h.PerShardSum[s]
		total += sum
		if sum > maxSum {
			maxSum = sum
		}
	}
	if ranks == 0 || total == 0 {
		return math.NaN()
	}
	return float64(maxSum) / (float64(total) / float64(ranks))
}

// fmtDur renders a nanosecond quantity compactly ("-" when undefined).
func fmtDur(ns float64) string {
	switch {
	case math.IsNaN(ns):
		return "-"
	case math.IsInf(ns, 1):
		return ">max"
	}
	return time.Duration(int64(ns)).Round(10 * time.Nanosecond).String()
}

// fmtBytes renders a byte count in the most natural unit.
func fmtBytes(b int64) string {
	switch {
	case b >= 10<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 10<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// sumSeries totals every series of one counter/gauge family, optionally
// filtered by a label value.
func sumSeries(series []metrics.SeriesValue, name string, match ...string) int64 {
	var total int64
outer:
	for _, s := range series {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if s.Labels[match[i]] != match[i+1] {
				continue outer
			}
		}
		total += s.Value
	}
	return total
}

// PrintTelemetry appends the per-run summary table to the harness
// output: message-layer totals, the per-directive wait/imbalance table
// (§IV-B — the spread of barrier wait across ranks IS the task
// imbalance), single outcomes, lazy-allocation accounting (§IV-A) and
// the RMA epoch costs. A nil Telemetry prints nothing.
func PrintTelemetry(w io.Writer, t *Telemetry) {
	if t == nil {
		return
	}
	snap := t.Registry.Snapshot(metrics.WithPerShard())

	fprintf(w, "== Telemetry summary ==\n")

	// MPI point-to-point and collectives.
	sends := sumSeries(snap.Counters, "mpi_sends_total")
	fprintf(w, "mpi: %d msgs (eager %d / rendezvous %d), %s; copies elided %d; collective starts %d\n",
		sends,
		sumSeries(snap.Counters, "mpi_messages_protocol_total", "protocol", "eager"),
		sumSeries(snap.Counters, "mpi_messages_protocol_total", "protocol", "rendezvous"),
		fmtBytes(sumSeries(snap.Counters, "mpi_bytes_total")),
		sumSeries(snap.Counters, "mpi_copies_elided_total"),
		sumSeries(snap.Counters, "mpi_collectives_total"))
	if gets := sumSeries(snap.Counters, "mpi_eager_pool_hits_total") +
		sumSeries(snap.Counters, "mpi_eager_pool_misses_total"); gets > 0 {
		fprintf(w, "mpi eager pool: %d gets (%d hits / %d allocs), %s recycled, %d outstanding; match probes %d\n",
			gets,
			sumSeries(snap.Counters, "mpi_eager_pool_hits_total"),
			sumSeries(snap.Counters, "mpi_eager_pool_misses_total"),
			fmtBytes(sumSeries(snap.Counters, "mpi_eager_pool_recycled_bytes_total")),
			sumSeries(snap.Gauges, "mpi_eager_pool_outstanding"),
			sumSeries(snap.Counters, "mpi_match_probes_total"))
	}

	// HLS directives: one row per (kind, scope), sorted by total wait so
	// the most expensive synchronization reads first.
	var dirs []metrics.HistogramValue
	for _, h := range snap.Histograms {
		if h.Name == "hls_directive_wait_ns" && h.Count > 0 {
			dirs = append(dirs, h)
		}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].Sum > dirs[j].Sum })
	if len(dirs) > 0 {
		fprintf(w, "hls directives (wait spread across ranks = task imbalance, §IV-B):\n")
		fprintf(w, "  %-24s %10s %12s %12s %10s\n", "kind/scope", "count", "mean wait", "p99 wait", "imbalance")
		for _, h := range dirs {
			row := h.Labels["kind"] + "/" + h.Labels["scope"]
			mean := float64(h.Sum) / float64(h.Count)
			imb := imbalance(h)
			imbStr := "-"
			if !math.IsNaN(imb) {
				imbStr = fmt.Sprintf("%.2fx", imb)
			}
			fprintf(w, "  %-24s %10d %12s %12s %10s\n", row, h.Count,
				fmtDur(mean), fmtDur(histQuantile(h, 0.99)), imbStr)
		}
	}
	won := sumSeries(snap.Counters, "hls_single_outcomes_total", "outcome", "won")
	lost := sumSeries(snap.Counters, "hls_single_outcomes_total", "outcome", "lost")
	if won+lost > 0 {
		fprintf(w, "hls singles: %d won / %d lost\n", won, lost)
	}
	if allocs := sumSeries(snap.Counters, "hls_instance_allocs_total"); allocs > 0 {
		fprintf(w, "hls lazy allocations: %d instances, %s shared, %s duplication avoided\n",
			allocs,
			fmtBytes(sumSeries(snap.Counters, "hls_shared_bytes")),
			fmtBytes(sumSeries(snap.Counters, "hls_duplicate_bytes_avoided")))
	}

	// RMA one-sided traffic and epoch costs.
	if sumSeries(snap.Counters, "rma_ops_total")+sumSeries(snap.Counters, "rma_epochs_total") > 0 {
		fprintf(w, "rma ops: put %d (%s) / get %d (%s) / accumulate %d (%s)\n",
			sumSeries(snap.Counters, "rma_ops_total", "op", "put"),
			fmtBytes(sumSeries(snap.Counters, "rma_op_bytes_total", "op", "put")),
			sumSeries(snap.Counters, "rma_ops_total", "op", "get"),
			fmtBytes(sumSeries(snap.Counters, "rma_op_bytes_total", "op", "get")),
			sumSeries(snap.Counters, "rma_ops_total", "op", "accumulate"),
			fmtBytes(sumSeries(snap.Counters, "rma_op_bytes_total", "op", "accumulate")))
	}
	for _, kind := range rma.EpochKinds {
		if n := sumSeries(snap.Counters, "rma_epochs_total", "kind", kind); n > 0 {
			fprintf(w, "rma epochs %s: %d, mean %s\n", kind, n,
				fmtDur(float64(sumSeries(snap.Counters, "rma_epoch_ns", "kind", kind))/float64(n)))
		}
	}
	if pub := sumSeries(snap.Counters, "rma_lock_publishes_total"); pub > 0 {
		fprintf(w, "rma locks: %d publishes / %d acquires\n",
			pub, sumSeries(snap.Counters, "rma_lock_acquires_total"))
	}
}

// WriteTelemetryCSV writes every series of the registry as one CSV row:
//
//	name,labels,kind,value,count,sum,p50_le,p99_le
//
// Counters and gauges fill `value`; histograms fill count/sum and the
// p50/p99 bucket upper bounds (-1 = overflow bucket). Labels are
// rendered "k=v;k=v" in sorted key order.
func WriteTelemetryCSV(w io.Writer, t *Telemetry) error {
	if t == nil {
		return nil
	}
	snap := t.Registry.Snapshot()
	if _, err := fmt.Fprintln(w, "name,labels,kind,value,count,sum,p50_le,p99_le"); err != nil {
		return err
	}
	row := func(name string, labels map[string]string, kind string, rest string) error {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+labels[k])
		}
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s\n", name, strings.Join(parts, ";"), kind, rest)
		return err
	}
	for _, c := range snap.Counters {
		if err := row(c.Name, c.Labels, "counter", fmt.Sprintf("%d,,,,", c.Value)); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		if err := row(g.Name, g.Labels, "gauge", fmt.Sprintf("%d,,,,", g.Value)); err != nil {
			return err
		}
	}
	quant := func(h metrics.HistogramValue, q float64) string {
		v := histQuantile(h, q)
		switch {
		case math.IsNaN(v):
			return ""
		case math.IsInf(v, 1):
			return "-1"
		}
		return fmt.Sprintf("%d", int64(v))
	}
	for _, h := range snap.Histograms {
		rest := fmt.Sprintf(",%d,%d,%s,%s", h.Count, h.Sum, quant(h, 0.5), quant(h, 0.99))
		if err := row(h.Name, h.Labels, "histogram", rest); err != nil {
			return err
		}
	}
	return nil
}
