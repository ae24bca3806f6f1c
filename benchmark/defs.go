package main

// The names in this file are the benchmark's public surface: later issues
// cite workloads and metrics by these strings, BENCHMARK.json at the repo
// root is generated from them (-manifest) and a test pins the two together.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// End-to-end metric names.
const (
	mOpP50    = "op_p50_us"
	mOpsPerS  = "ops_per_s"
	mSetup    = "setup_s"
	mLiveHeap = "live_heap_mb"
)

// endToEnd lists the gated metrics with the share by which each may
// worsen. The bounds come from the spreads measured over ten runs per
// workload on two shared cores (README.md, "Noise model"): the timings of
// seven workloads repeat within 1-7%, but pingpong_wire_256KiB's op time
// is bimodal (the collector runs about half the time) and its median
// moves by 10-13% between runs, and one bound serves all workloads.
var endToEnd = []metricDef{
	{mOpP50, "us", "lower", 0.25},
	{mOpsPerS, "1/s", "higher", 0.25},
	{mSetup, "s", "lower", 0.25},
	{mLiveHeap, "MB", "lower", 0.10},
}

// perLayer lists every per-layer metric, layer = package name. Every
// workload reports all of them in the traced run; a layer the workload
// bypasses reports 0. Metrics marked exact in exactCounts must repeat
// bit for bit between two runs of one seed.
var perLayer = []metricDef{
	// mpi — from World.Stats() deltas over the timed phase.
	{"mpi.msgs_per_op", "count", "lower", 0},
	{"mpi.match_probes_per_msg", "count", "lower", 0},
	{"mpi.pool_hit_ratio", "ratio", "higher", 0},
	{"mpi.direct_delivery_share", "ratio", "higher", 0},
	{"mpi.rendezvous_share", "ratio", "lower", 0},
	{"mpi.allocs_per_op", "count", "lower", 0},
	{"mpi.send_call_us", "us", "lower", 0},
	{"mpi.recv_wait_us", "us", "lower", 0},
	{"mpi.pack_elisions_per_op", "count", "higher", 0},
	{"mpi.typedcopy_ns_per_KiB", "ns", "lower", 0},
	{"mpi.shared_coll_per_op", "count", "higher", 0},
	{"mpi.two_level_per_op", "count", "higher", 0},
	// wire — from WireStats() deltas, plus floor probes.
	{"wire.frames_per_op", "count", "lower", 0},
	{"wire.bytes_per_payload_byte", "ratio", "lower", 0},
	{"wire.batch_fill", "ratio", "higher", 0},
	{"wire.reconnects", "count", "lower", 0},
	{"wire.append_frame_ns", "ns", "lower", 0},
	{"wire.raw_rtt_64B_us", "us", "lower", 0},
	{"wire.raw_rtt_256KiB_us", "us", "lower", 0},
	{"net.floor_rtt_64B_us", "us", "lower", 0},
	{"net.floor_rtt_256KiB_us", "us", "lower", 0},
	// The stacked split of one wire ping-pong (workloads 3 and 4 only).
	{"stack.net_us", "us", "lower", 0},
	{"stack.wire_us", "us", "lower", 0},
	{"stack.mpi_us", "us", "lower", 0},
	// spin / hls.
	{"spin.barrier_ns", "ns", "lower", 0},
	{"hls.barrier_us", "us", "lower", 0},
	{"hls.single_us", "us", "lower", 0},
	{"hls.get_addr_ns", "ns", "lower", 0},
	{"hls.instances", "count", "lower", 0},
	{"hls.shared_mb", "MB", "lower", 0},
	{"hls.teardown_retained_mb", "MB", "lower", 0},
	// obs / trace.
	{"obs.traced_over_untraced", "ratio", "lower", 0},
	{"trace.events_per_op", "count", "lower", 0},
	{"trace.dropped", "count", "lower", 0},
	// topology and the Go runtime.
	{"topology.new_ms", "ms", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	// The benchmark's own span recorder: self time per op on rank 0, by
	// the layer call the span brackets, and what recording costs.
	{"self.send_us", "us", "lower", 0},
	{"self.recv_us", "us", "lower", 0},
	{"self.sendrecv_typed_us", "us", "lower", 0},
	{"self.barrier_us", "us", "lower", 0},
	{"self.allreduce_us", "us", "lower", 0},
	{"self.bcast_us", "us", "lower", 0},
	{"self.hls_single_us", "us", "lower", 0},
	{"self.hls_slice_compute_us", "us", "lower", 0},
	{"self.harness_us", "us", "lower", 0},
	{"self.sum_over_op_time", "ratio", "lower", 0},
	{"bench_trace_overhead_pct", "%", "lower", 0},
	// Diagnostic tail of the untraced op time; not gated because it does
	// not repeat within a tenth on two shared cores.
	{"op_tail_us", "us", "lower", 0},
	{"op_tail_percentile", "%", "higher", 0},
	{"op_samples", "count", "higher", 0},
}

// exactCounts are the per-layer counts that depend only on the program's
// inputs, never on timing: -selfcheck and the smoke test fail when two
// runs of one seed disagree on any of them. The other counter ratios
// (pool hits, direct deliveries, match probes, pack elisions, standalone
// acks inside frames_per_op) depend on which side of a message arrives
// first and are reported, not gated.
var exactCounts = []string{
	"mpi.msgs_per_op",
	"mpi.rendezvous_share",
	"mpi.shared_coll_per_op",
	"mpi.two_level_per_op",
	"wire.reconnects",
	"hls.instances",
}

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measuring time of one driver run (BENCHMARK.json's
// run_seconds, and the default of -seconds).
const runSeconds = 10

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
