package metrics

import "hls/internal/ckpt"

// CkptAdapter exports the durable recovery layer's outcomes, pulled
// from ckpt.Coordinator.Stats over the coordinators it watches:
// checkpoints and restores by result, payload bytes moved in each
// direction, summed operation time, generations skipped as corrupt or
// partial during restore scans, and the generation gauges. Use it as
//
//	co := ckpt.New(ckpt.Config{Dir: dir})
//	stop := a.Watch(co)
//	defer stop() // once the coordinator's world has finished
//
// The gauges leave the sums when their coordinator's watch stops, so a
// process that reports its last generation keeps that coordinator
// watched. Constructed over a nil registry it exports nothing.
type CkptAdapter struct {
	*pull[*ckpt.Coordinator, ckpt.Stats]
}

// ckptFamilies maps each exported series to its Stats source.
var ckptFamilies = []statFamily[ckpt.Stats]{
	{name: "ckpt_checkpoints_total", help: "coordinated checkpoints by result, one per rank", label: []Label{L("result", "ok")},
		value: func(s *ckpt.Stats) int64 { return s.Checkpoints }},
	{name: "ckpt_checkpoints_total", help: "coordinated checkpoints by result, one per rank", label: []Label{L("result", "error")},
		value: func(s *ckpt.Stats) int64 { return s.CheckpointErrors }},
	{name: "ckpt_restores_total", help: "checkpoint restores by result, one per rank", label: []Label{L("result", "ok")},
		value: func(s *ckpt.Stats) int64 { return s.Restores }},
	{name: "ckpt_restores_total", help: "checkpoint restores by result, one per rank", label: []Label{L("result", "error")},
		value: func(s *ckpt.Stats) int64 { return s.RestoreErrors }},
	{name: "ckpt_generations_skipped_total", help: "invalid (torn/partial) generations passed over by restore scans",
		value: func(s *ckpt.Stats) int64 { return s.GenerationsSkipped }},
	{name: "ckpt_bytes_total", help: "per-rank payload bytes by direction", label: []Label{L("dir", "saved")},
		value: func(s *ckpt.Stats) int64 { return s.BytesSaved }},
	{name: "ckpt_bytes_total", help: "per-rank payload bytes by direction", label: []Label{L("dir", "restored")},
		value: func(s *ckpt.Stats) int64 { return s.BytesRestored }},
	{name: "ckpt_checkpoint_ns", help: "summed per-rank wall time of successful checkpoints, ns",
		value: func(s *ckpt.Stats) int64 { return s.CheckpointNs }},
	{name: "ckpt_restore_ns", help: "summed per-rank wall time of successful restores, ns",
		value: func(s *ckpt.Stats) int64 { return s.RestoreNs }},
	{name: "ckpt_last_generation", help: "generation of the last successful checkpoint", gauge: true,
		value: func(s *ckpt.Stats) int64 { return int64(s.LastGeneration) }},
	{name: "ckpt_restored_generation", help: "generation of the last successful restore", gauge: true,
		value: func(s *ckpt.Stats) int64 { return int64(s.RestoredGeneration) }},
}

// NewCkptAdapter creates the adapter and registers its families.
// Passing a nil registry yields an adapter that exports nothing.
func NewCkptAdapter(r *Registry) *CkptAdapter {
	return &CkptAdapter{newPull(r, ckptFamilies, (*ckpt.Coordinator).Stats)}
}
