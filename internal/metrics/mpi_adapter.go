package metrics

import "hls/internal/mpi"

// MPIAdapter exports the point-to-point and collective layer's counts:
// messages and bytes, the eager-vs-rendezvous protocol split, elided
// intra-node copies (MPC's §V-B3 optimization) and pack elisions,
// collective starts and the paths they took, the eager-buffer pool's
// traffic and the matching engine's probe counts. It pushes nothing and
// is not an mpi.Hooks: every series is a CounterFunc/GaugeFunc that sums
// mpi.World.Stats over the worlds it watches, so the runtime counts each
// event once and a world with metrics still takes every fast path a
// hook-less world takes. Use it as
//
//	a := metrics.NewMPIAdapter(reg)
//	w, _ := mpi.NewWorld(cfg)
//	stop := a.Watch(w)
//	defer stop()
//
// Constructed over a nil registry it registers nothing.
type MPIAdapter struct {
	*pull[*mpi.World, mpi.Stats]
}

// mpiFamilies maps each exported MPI series to its Stats source.
var mpiFamilies = []statFamily[mpi.Stats]{
	{name: "mpi_sends_total", help: "point-to-point messages sent",
		value: func(s *mpi.Stats) int64 { return s.Messages }},
	{name: "mpi_bytes_total", help: "payload bytes carried by point-to-point messages",
		value: func(s *mpi.Stats) int64 { return s.Bytes }},
	{name: "mpi_messages_protocol_total", help: "messages by wire protocol", label: []Label{L("protocol", "eager")},
		value: func(s *mpi.Stats) int64 { return s.Messages - s.Rendezvous }},
	{name: "mpi_messages_protocol_total", help: "messages by wire protocol", label: []Label{L("protocol", "rendezvous")},
		value: func(s *mpi.Stats) int64 { return s.Rendezvous }},
	{name: "mpi_copies_elided_total", help: "payload copies skipped: send and receive buffers were the same memory (HLS intra-node elision), or an eager message landed straight in its posted receive",
		value: func(s *mpi.Stats) int64 { return s.SameAddrSkips + s.DirectDeliveries }},
	{name: "mpi_pack_elisions_total", help: "typed transfers that moved strided-to-strided with no intermediate packed buffer",
		value: func(s *mpi.Stats) int64 { return s.PackElisions }},
	{name: "mpi_collectives_total", help: "collective operations started, per participating task",
		value: func(s *mpi.Stats) int64 { return s.Collectives }},
	{name: "mpi_shared_collectives_total", help: "collectives completed on the shared-address-space fast path, per participating task",
		value: func(s *mpi.Stats) int64 { return s.SharedCollectives }},
	{name: "mpi_two_level_collectives_total", help: "collectives completed through the topology-aware two-level decomposition, per participating task",
		value: func(s *mpi.Stats) int64 { return s.TwoLevelCollectives }},
	{name: "mpi_eager_pool_hits_total", help: "eager-payload acquisitions served by the buffer pool",
		value: func(s *mpi.Stats) int64 { return s.EagerPoolHits }},
	{name: "mpi_eager_pool_misses_total", help: "eager-payload acquisitions that had to allocate",
		value: func(s *mpi.Stats) int64 { return s.EagerPoolMisses }},
	{name: "mpi_eager_pool_recycled_bytes_total", help: "bytes of eager-buffer capacity returned to a free list for reuse",
		value: func(s *mpi.Stats) int64 { return s.EagerPoolRecycledBytes }},
	{name: "mpi_eager_pool_outstanding", help: "pooled eager buffers pinned by in-flight messages", gauge: true,
		value: func(s *mpi.Stats) int64 { return s.EagerPoolOutstanding }},
	{name: "mpi_match_probes_total", help: "matching-queue entries examined by the p2p engine",
		value: func(s *mpi.Stats) int64 { return s.MatchProbes }},
}

// NewMPIAdapter creates the adapter and registers its metric families.
// Passing a nil registry yields an adapter that exports nothing. Its
// Watch adds a world to the sums; stop it once the world's Run returned.
func NewMPIAdapter(r *Registry) *MPIAdapter {
	return &MPIAdapter{newPull(r, mpiFamilies, (*mpi.World).Stats)}
}
