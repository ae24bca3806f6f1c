package metrics

import (
	"strings"
	"sync"
	"time"

	"hls/internal/hls"
)

// HLSAdapter exports the HLS runtime's directive and memory metrics.
//
// As an hls.SyncObserver it times each directive edge into
// hls_directive_wait_ns{kind,scope}: the per-task wait inside each
// barrier/single/nowait, the histogram whose spread across ranks IS the
// task imbalance (a balanced barrier shows a tight distribution; a
// straggler pushes every other rank into the high buckets). It is the
// registry's one pushed metric. hls_directives_total{kind,scope}, the
// completed directives, is a CounterFunc over that histogram's count.
//
// Everything else is pulled from hls.Registry.Stats over the registries
// it watches, like MPIAdapter's series:
//
//   - hls_single_outcomes_total{outcome} — single executors (won) and
//     waiters or skippers (lost);
//   - hls_instance_allocs_total / hls_shared_bytes /
//     hls_duplicate_bytes_avoided — lazy module allocations (§IV-A) and
//     the bytes one shared copy serves vs what per-task duplication
//     would have added;
//   - hls_demotions_total / hls_demoted_extra_bytes /
//     hls_demotion_recovery_ns — instances degraded to private copies
//     after allocation failures, the footprint that costs, and the
//     summed first-failed-attempt-to-demotion time (divide by
//     hls_demotions_total for the mean).
//
// Use it as
//
//	a := metrics.NewHLSAdapter(reg)
//	r := hls.New(w, hls.WithObserver(a))
//	stop := a.Watch(r)
//	defer stop() // after w.Run returned
//
// Constructed over a nil registry it exports nothing and its Arrive and
// Depart are cheap no-ops.
type HLSAdapter struct {
	*pull[*hls.Registry, hls.Stats]

	reg   *Registry
	start time.Time

	// open tracks each rank's in-progress directive spans. Striped per
	// shard: Arrive and Depart for one rank come from that rank's
	// goroutine, so stripes see almost no contention.
	open []openShard

	mu   sync.RWMutex
	dirs map[string]*Histogram // full directive key -> its wait histogram
}

type openShard struct {
	mu sync.Mutex
	m  map[string]int64 // directive key -> arrival time (ns since start)
	_  [3]int64         // keep neighbouring stripes off one cache line
}

// hlsFamilies maps each pulled HLS series to its Stats source. All of
// them only grow, so a stopped registry's counts stay in the totals.
var hlsFamilies = []statFamily[hls.Stats]{
	{name: "hls_single_outcomes_total", help: "single directives by outcome: won = executed the block", label: []Label{L("outcome", "won")},
		value: func(s *hls.Stats) int64 { return s.SinglesExecuted }},
	{name: "hls_single_outcomes_total", help: "single directives by outcome: won = executed the block", label: []Label{L("outcome", "lost")},
		value: func(s *hls.Stats) int64 { return s.SinglesSkipped }},
	{name: "hls_instance_allocs_total", help: "lazy HLS module allocations (one per scope instance, §IV-A)",
		value: func(s *hls.Stats) int64 { return s.InstanceAllocs }},
	{name: "hls_shared_bytes", help: "bytes of the shared copies HLS allocated: one per scope instance",
		value: func(s *hls.Stats) int64 { return s.SharedBytes }},
	{name: "hls_duplicate_bytes_avoided", help: "bytes per-task duplication would have added beyond the shared copies",
		value: func(s *hls.Stats) int64 { return s.DuplicateBytesAvoided }},
	{name: "hls_demotions_total", help: "HLS instances demoted to private per-task copies after allocation failures",
		value: func(s *hls.Stats) int64 { return s.Demotions }},
	{name: "hls_demoted_extra_bytes", help: "extra footprint demoted instances cost over sharing",
		value: func(s *hls.Stats) int64 { return s.DemotedExtraBytes }},
	{name: "hls_demotion_recovery_ns", help: "summed latency from first failed allocation attempt to the demotion decision, ns",
		value: func(s *hls.Stats) int64 { return s.DemotionRecovery.Nanoseconds() }},
}

// NewHLSAdapter creates the adapter and registers its pulled families.
// Passing a nil registry yields a disabled adapter. Its Watch adds a
// registry to the sums; stop it once the registry's world has finished.
func NewHLSAdapter(r *Registry) *HLSAdapter {
	a := &HLSAdapter{pull: newPull(r, hlsFamilies, (*hls.Registry).Stats)}
	if r == nil {
		return a
	}
	a.reg = r
	a.start = time.Now()
	a.open = make([]openShard, r.Shards())
	for i := range a.open {
		a.open[i].m = make(map[string]int64)
	}
	a.dirs = make(map[string]*Histogram)
	return a
}

func (a *HLSAdapter) nowNs() int64 { return time.Since(a.start).Nanoseconds() }

// parseDirectiveKey splits an hls observer key "kind/scope:level/inst"
// (e.g. "barrier/node:0/0") into its kind and scope parts. Keys without
// the expected shape keep the whole string as kind.
func parseDirectiveKey(key string) (kind, scope string) {
	i := strings.IndexByte(key, '/')
	j := strings.LastIndexByte(key, '/')
	if i < 0 || j <= i {
		return key, ""
	}
	return key[:i], key[i+1 : j]
}

// waitFor resolves (creating on first use) the wait histogram of one
// directive key, so the hot path resolves labels once per distinct key
// rather than per event.
func (a *HLSAdapter) waitFor(key string) *Histogram {
	a.mu.RLock()
	h, ok := a.dirs[key]
	a.mu.RUnlock()
	if ok {
		return h
	}
	kind, scope := parseDirectiveKey(key)
	a.mu.Lock()
	defer a.mu.Unlock()
	if h, ok = a.dirs[key]; ok {
		return h
	}
	kl, sl := L("kind", kind), L("scope", scope)
	h = a.reg.Histogram("hls_directive_wait_ns", "per-task wait inside HLS synchronization directives; the spread across ranks is the task imbalance (§IV-B)", kl, sl)
	a.reg.CounterFunc("hls_directives_total", "HLS directives completed, by directive kind and scope", h.Count, kl, sl)
	a.dirs[key] = h
	return h
}

// Arrive implements hls.SyncObserver.
func (a *HLSAdapter) Arrive(key string, worldRank int) {
	if a.reg == nil {
		return
	}
	sh := &a.open[uint(worldRank)%uint(len(a.open))]
	now := a.nowNs()
	sh.mu.Lock()
	sh.m[key] = now
	sh.mu.Unlock()
}

// Depart implements hls.SyncObserver, closing the span opened by Arrive
// and recording the wait. A depart without a matching arrive (a nowait
// skipper) counts the directive with zero wait.
func (a *HLSAdapter) Depart(key string, worldRank int) {
	if a.reg == nil {
		return
	}
	sh := &a.open[uint(worldRank)%uint(len(a.open))]
	sh.mu.Lock()
	begin, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	var wait int64
	if ok {
		wait = a.nowNs() - begin
	}
	a.waitFor(key).Observe(worldRank, wait)
}
