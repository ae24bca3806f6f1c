package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metric is one named value as printed and as written to JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output: the shape the
// benchmark driver parses.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the -out document: the run's environment and, per workload,
// its metrics and the per-segment values their medians were taken over.
type report struct {
	Env       envInfo          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type envInfo struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Segments   int     `json:"segments"`
	Traced     bool    `json:"traced"`
	Link       string  `json:"link"` // what the wire workloads crossed
}

type workloadReport struct {
	Name      string            `json:"name"`
	Ranks     int               `json:"ranks"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	MBPerS    float64           `json:"payload_mb_per_s"`
	Metrics   map[string]metric `json:"metrics"`
	Segments  []segmentReport   `json:"segments"`
}

type segmentReport struct {
	Ops        int     `json:"ops"`
	OpP50Us    float64 `json:"op_p50_us"`
	OpsPerS    float64 `json:"ops_per_s"`
	SetupS     float64 `json:"setup_s"`
	LiveHeapMB float64 `json:"live_heap_mb"`
}

// result is what one set measured on one workload.
type result struct {
	w      *workload
	segs   []*segment // untraced
	traced []*segment // with the benchmark's span recorder on (-trace 1)
}

func (s *segment) opsPerS() float64 { return float64(s.ops) / s.wall.Seconds() }

// medianOf is the median over segments of one per-segment value.
func medianOf(segs []*segment, f func(*segment) float64) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return median(vs)
}

// segValue reads each end-to-end metric off one segment.
var segValue = map[string]func(*segment) float64{
	mOpP50:    func(s *segment) float64 { return s.p50us },
	mOpsPerS:  (*segment).opsPerS,
	mSetup:    func(s *segment) float64 { return s.setup.Seconds() },
	mLiveHeap: func(s *segment) float64 { return s.liveHeapMB },
}

// endToEndValues returns the gated metrics: medians over the untraced
// segments.
func (r *result) endToEndValues() map[string]float64 {
	m := map[string]float64{}
	for name, f := range segValue {
		m[name] = medianOf(r.segs, f)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countValues returns the per-layer metrics that come from counter
// deltas over the untraced segments' timed phases. Counts are summed over
// the segments before dividing, so a per-op count is exact whenever each
// op does the same work.
func (r *result) countValues() map[string]float64 {
	var k counters
	ops := 0
	for _, s := range r.segs {
		k = k.plus(1, s.counts)
		ops += s.ops
	}
	f := func(i int) float64 { return float64(k[i]) }
	n := float64(ops)
	last := r.segs[len(r.segs)-1]
	m := map[string]float64{
		"mpi.msgs_per_op":             f(cMsgs) / n,
		"mpi.match_probes_per_msg":    ratio(f(cMatchProbes), f(cMsgs)),
		"mpi.pool_hit_ratio":          ratio(f(cPoolHits), f(cPoolHits)+f(cPoolMisses)),
		"mpi.direct_delivery_share":   ratio(f(cDirect), f(cMsgs)),
		"mpi.rendezvous_share":        ratio(f(cRendezvous), f(cMsgs)),
		"mpi.allocs_per_op":           f(cMallocs) / n,
		"mpi.pack_elisions_per_op":    f(cPackElisions) / n,
		"mpi.shared_coll_per_op":      f(cSharedColl) / n,
		"mpi.two_level_per_op":        f(cTwoLevel) / n,
		"wire.frames_per_op":          f(cFrames) / n,
		"wire.bytes_per_payload_byte": f(cWireBytes) / (n * float64(r.w.payload)),
		"wire.batch_fill":             ratio(f(cBatchedFrames), f(cBatches)),
		"wire.reconnects":             f(cReconnects),
		"hls.instances":               float64(last.hlsInstances),
		"hls.shared_mb":               last.hlsSharedMB,
		"trace.events_per_op":         f(cTraceEvents) / n,
		"trace.dropped":               f(cTraceDrops),
		"go.gc_cycles":                f(cGCCycles),
		"go.gc_pause_ms":              f(cGCPauseNs) / 1e6,
		"op_samples":                  n,
	}
	minOps := r.segs[0].ops
	for _, s := range r.segs {
		minOps = min(minOps, s.ops)
	}
	pct, idx := tailPercentile(minOps)
	m["op_tail_percentile"] = pct
	m["op_tail_us"] = medianOf(r.segs, func(s *segment) float64 {
		if idx < 0 {
			return s.p50us
		}
		return s.tailsUs[idx]
	})
	return m
}

// spanValues returns the per-layer metrics that come from the traced
// segments: per-op self time of each layer call on rank 0, the median
// send and receive call, and what the benchmark's own recording costs.
func (r *result) spanValues() map[string]float64 {
	m := map[string]float64{}
	var self [numSpanNames]int64
	ops := 0
	var wall float64
	var sendUs, recvUs []float64
	for _, s := range r.traced {
		rank0 := s.spans[0]
		for name, ns := range selfTimes(rank0) {
			self[name] += ns
		}
		ops += s.ops
		wall += float64(s.wall)
		sendUs = append(sendUs, spanP50Us(rank0, spSend))
		recvUs = append(recvUs, spanP50Us(rank0, spRecv))
	}
	var sum float64
	for name, ns := range self {
		m[selfMetric[name]] = float64(ns) / 1e3 / float64(ops)
		sum += float64(ns)
	}
	m["self.sum_over_op_time"] = sum / wall
	m["mpi.send_call_us"] = median(sendUs)
	m["mpi.recv_wait_us"] = median(recvUs)
	untraced, traced := medianOf(r.segs, segValue[mOpP50]), medianOf(r.traced, segValue[mOpP50])
	m["bench_trace_overhead_pct"] = 100 * (traced/untraced - 1)
	return m
}

// spanP50Us is the median duration of one rank's spans of one name, 0
// when the workload never makes that call.
func spanP50Us(spans []span, name spanName) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(d)
	return percentile(d, 50)
}

// stackValues splits one wire ping-pong's op time into the kernel's
// share (bare net.Conn), the transport's (bare wire.NewTCP on top of it)
// and the mpi glue's (the rest). Only workloads 3 and 4 are one wire
// round trip; every other workload reports zeros.
func (r *result) stackValues(probes map[string]float64) map[string]float64 {
	m := map[string]float64{"stack.net_us": 0, "stack.wire_us": 0, "stack.mpi_us": 0}
	size, ok := map[string]string{"pingpong_wire_64B": "64B", "pingpong_wire_256KiB": "256KiB"}[r.w.name]
	if !ok {
		return m
	}
	floor, raw := probes["net.floor_rtt_"+size+"_us"], probes["wire.raw_rtt_"+size+"_us"]
	m["stack.net_us"] = floor
	m["stack.wire_us"] = raw - floor
	m["stack.mpi_us"] = medianOf(r.segs, segValue[mOpP50]) - raw
	return m
}

// attempted and failed count every op run and checked, warm-ups and
// traced segments included.
func (r *result) attempted() (attempted, failed int, failures []string) {
	for _, s := range append(append([]*segment(nil), r.segs...), r.traced...) {
		attempted += s.executed
		failed += int(s.failed)
		failures = append(failures, s.failures...)
	}
	return
}

// withUnits attaches each value's unit from its definition.
func withUnits(values map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			out[d.Name] = metric{v, d.Unit}
		}
	}
	return out
}

// merge copies src's entries into dst.
func merge(dst map[string]float64, srcs ...map[string]float64) map[string]float64 {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
	return dst
}

// printResult writes one workload's metrics by name with their units.
func printResult(w io.Writer, r *result, values map[string]metric, defs []metricDef) {
	attempted, failed, failures := r.attempted()
	fmt.Fprintf(w, "\n== %s (%d ranks, closed loop) ==\n", r.w.name, r.w.ranks)
	fmt.Fprintf(w, "  %-28s %d\n  %-28s %d\n", "ops_attempted", attempted, "ops_failed", failed)
	for _, f := range failures {
		fmt.Fprintf(w, "    FAILED: %s\n", f)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		note := ""
		if f := segValue[d.Name]; f != nil {
			vs := make([]float64, len(r.segs))
			for i, s := range r.segs {
				vs[i] = f(s)
			}
			note = fmt.Sprintf("  (median of %d segments, their quartiles %.1f%% apart)", len(vs), 100*iqrShare(vs))
		}
		fmt.Fprintf(w, "  %-28s %-14.6g %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	if v, ok := values[mOpsPerS]; ok {
		link := ""
		if strings.Contains(r.w.name, "_wire_") {
			link = " (loopback, not a real link)"
		}
		fmt.Fprintf(w, "  %-28s %-14.6g MB/s at %d B of payload per op%s\n", "payload_rate",
			v.Value*float64(r.w.payload)/1e6, r.w.payload, link)
	}
}
