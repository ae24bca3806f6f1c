package metrics

import "hls/internal/rma"

// RMAAdapter exports one-sided communication, pulled from
// rma.Window.Stats over the windows it watches like MPIAdapter's series:
//
//   - rma_ops_total / rma_op_bytes_total{op} — Put/Get/Accumulate
//     counts and payloads;
//   - rma_epochs_total / rma_epoch_ns{kind} — closed synchronization
//     epochs (fence, PSCW access/expose, passive-target lock) and their
//     summed duration, the cost MPI-3 shared windows pay where HLS pays
//     a directive (divide for the mean);
//   - rma_open_epochs{kind} — epochs currently open;
//   - rma_lock_publishes_total / rma_lock_acquires_total —
//     passive-target lock handovers, a direct read on lock contention
//     (acquires outnumbering publishes means origins queued on a busy
//     target).
//
// Every rank holds the same *Window, so watch it once:
//
//	win := rma.WinAllocate[float64](task, nil, n)
//	if task.Rank() == 0 { stop = a.Watch(win) }
//	...
//	win.Free(task)
//	if task.Rank() == 0 { stop() }
//
// Constructed over a nil registry it exports nothing.
type RMAAdapter struct {
	*pull[rmaWindow, rma.Stats]
}

// rmaWindow is a window of any element type.
type rmaWindow interface{ Stats() rma.Stats }

// rmaFamilies maps each exported series to its Stats source, one
// family's series together so the exposition groups them.
func rmaFamilies() (fams []statFamily[rma.Stats]) {
	add := func(name, help, key string, vals []string, gauge bool, v func(s *rma.Stats, i int) int64) {
		for i, val := range vals {
			fams = append(fams, statFamily[rma.Stats]{name: name, help: help, label: []Label{L(key, val)}, gauge: gauge,
				value: func(s *rma.Stats) int64 { return v(s, i) }})
		}
	}
	ops, kinds := rma.OpNames[:], rma.EpochKinds[:]
	add("rma_ops_total", "one-sided operations issued, by op", "op", ops, false,
		func(s *rma.Stats, i int) int64 { return s.Ops[i] })
	add("rma_op_bytes_total", "bytes moved by one-sided operations, by op", "op", ops, false,
		func(s *rma.Stats, i int) int64 { return s.OpBytes[i] })
	add("rma_epochs_total", "RMA synchronization epochs closed, by kind", "kind", kinds, false,
		func(s *rma.Stats, k int) int64 { return s.EpochsClosed[k] })
	add("rma_epoch_ns", "summed duration of closed RMA synchronization epochs, by kind, ns", "kind", kinds, false,
		func(s *rma.Stats, k int) int64 { return s.EpochNs[k] })
	add("rma_open_epochs", "RMA synchronization epochs currently open, by kind", "kind", kinds, true,
		func(s *rma.Stats, k int) int64 { return s.EpochsOpened[k] - s.EpochsClosed[k] })
	return append(fams,
		statFamily[rma.Stats]{name: "rma_lock_publishes_total", help: "passive-target clock publications (Unlock, Flush)",
			value: func(s *rma.Stats) int64 { return s.LockPublishes }},
		statFamily[rma.Stats]{name: "rma_lock_acquires_total", help: "passive-target lock acquisitions",
			value: func(s *rma.Stats) int64 { return s.LockAcquires }})
}

// NewRMAAdapter creates the adapter and registers its families. Passing
// a nil registry yields an adapter that exports nothing.
func NewRMAAdapter(r *Registry) *RMAAdapter {
	return &RMAAdapter{newPull(r, rmaFamilies(), rmaWindow.Stats)}
}
