package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// The -exp sync experiment measures the PR's two synchronization layers
// head to head:
//
//   - directive barriers: the mutex+condvar baseline vs the flat padded
//     spin barrier vs the multi-level (cache-hierarchy) spin tree, across
//     task counts and scope levels;
//   - collectives: the channel (point-to-point binomial/ring) algorithms
//     vs the shared-address-space zero-copy fast path, across operations
//     and buffer sizes, with the process-wide allocation rate and message
//     count alongside the latency.
//
// The JSON snapshot (BENCH_sync.json) carries Checks, the acceptance
// booleans CI tracks against the committed baseline.

// SyncBarrierPoint is one barrier measurement.
type SyncBarrierPoint struct {
	Impl    string  `json:"impl"` // mutex | flat | tree
	Tasks   int     `json:"tasks"`
	Scope   string  `json:"scope"` // llc | numa | node
	NsPerOp float64 `json:"ns_per_op"`
}

// SyncCollPoint is one collective measurement.
type SyncCollPoint struct {
	Op          string  `json:"op"`
	Mode        string  `json:"mode"` // channels | shared
	Tasks       int     `json:"tasks"`
	Elems       int     `json:"elems"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"` // process-wide, all ranks
	Messages    int64   `json:"messages"`      // p2p messages the whole run sent
}

// SyncChecks are the experiment's acceptance criteria.
type SyncChecks struct {
	// TreeBeatsMutex16/32: the hierarchical spin-park barrier is faster
	// than the mutex baseline at node scope for >= 16 tasks.
	TreeBeatsMutex16 bool `json:"tree_beats_mutex_16"`
	TreeBeatsMutex32 bool `json:"tree_beats_mutex_32"`
	// SharedBeatsChannelsLarge: the zero-copy fast path is faster than
	// the channel algorithms for large-buffer Bcast and Allreduce.
	SharedBeatsChannelsLarge bool `json:"shared_beats_channels_large"`
	// SharedAllocFree: small shared-path collectives allocate less than
	// one object per operation process-wide (steady state is zero; the
	// budget absorbs stray runtime allocations).
	SharedAllocFree bool `json:"shared_alloc_free"`
	// SharedNoMessages: the fast path sends no point-to-point messages
	// for the timed collectives.
	SharedNoMessages bool `json:"shared_no_messages"`
}

// SyncResult is the full -exp sync output.
type SyncResult struct {
	Profile     string             `json:"profile"`
	Barriers    []SyncBarrierPoint `json:"barriers"`
	Collectives []SyncCollPoint    `json:"collectives"`
	Checks      SyncChecks         `json:"checks"`
}

func syncScope(name string) topology.Scope {
	switch name {
	case "llc":
		return topology.Cache(3)
	case "numa":
		return topology.NUMA
	default:
		return topology.Node
	}
}

func syncBarrierOpts(impl string) []hls.Option {
	switch impl {
	case "mutex":
		return []hls.Option{hls.WithMutexBarriers()}
	case "flat":
		return []hls.Option{hls.WithFlatBarriers()}
	default:
		return nil
	}
}

// syncBarrier times iters directive barriers at the given scope.
func syncBarrier(impl string, tasks int, scope string, iters int) (SyncBarrierPoint, error) {
	machine := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: tasks, Machine: machine, Pin: topology.PinCorePerTask,
		Timeout: 5 * time.Minute,
	})
	if err != nil {
		return SyncBarrierPoint{}, err
	}
	reg := hls.New(w, syncBarrierOpts(impl)...)
	s := syncScope(scope)
	var perOp float64
	err = w.Run(func(tk *mpi.Task) error {
		reg.BarrierScope(tk, s) // build the instance's barrier
		mpi.Barrier(tk, nil)
		start := time.Now()
		for i := 0; i < iters; i++ {
			reg.BarrierScope(tk, s)
		}
		if tk.Rank() == 0 {
			perOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
		}
		return nil
	})
	return SyncBarrierPoint{Impl: impl, Tasks: tasks, Scope: scope, NsPerOp: perOp}, err
}

// syncCollective times iters collectives of the given op/size under the
// given mode, along with the process-wide allocation rate and the p2p
// message count of the whole run.
func syncCollective(op string, tasks, elems, iters int, mode mpi.CollectiveMode) (SyncCollPoint, error) {
	machine := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: tasks, Machine: machine, Pin: topology.PinCorePerTask,
		Timeout: 5 * time.Minute, Collectives: mode,
	})
	if err != nil {
		return SyncCollPoint{}, err
	}
	modeName := "shared"
	if mode == mpi.CollChannels {
		modeName = "channels"
	}
	var perOp, allocs float64
	var ms0, ms1 runtime.MemStats
	err = w.Run(func(tk *mpi.Task) error {
		send := make([]float64, elems)
		recv := make([]float64, elems)
		gathered := make([]float64, elems*tasks)
		step := func() {
			switch op {
			case "barrier":
				mpi.Barrier(tk, nil)
			case "bcast":
				mpi.Bcast(tk, nil, send, 0)
			case "allreduce":
				mpi.Allreduce(tk, nil, send, recv, mpi.OpSum)
			case "allgather":
				mpi.Allgather(tk, nil, send, gathered)
			}
		}
		for i := 0; i < 3; i++ {
			step()
		}
		mpi.Barrier(tk, nil)
		if tk.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
		}
		mpi.Barrier(tk, nil)
		start := time.Now()
		for i := 0; i < iters; i++ {
			step()
		}
		mpi.Barrier(tk, nil)
		if tk.Rank() == 0 {
			perOp = float64(time.Since(start).Nanoseconds()) / float64(iters)
			runtime.ReadMemStats(&ms1)
			allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
		}
		return nil
	})
	return SyncCollPoint{
		Op: op, Mode: modeName, Tasks: tasks, Elems: elems,
		NsPerOp: perOp, AllocsPerOp: allocs,
		Messages: w.Stats().Messages,
	}, err
}

// RunSync runs the synchronization experiment.
func RunSync(p Profile) (*SyncResult, error) {
	barrierIters, smallIters, largeIters := 1200, 1200, 60
	if p == Full {
		barrierIters, smallIters, largeIters = 8000, 8000, 300
	}
	res := &SyncResult{Profile: p.String()}

	// Barriers: impl x task count at node scope, plus the narrower scope
	// levels at full width (their instances synchronize in parallel).
	for _, impl := range []string{"mutex", "flat", "tree"} {
		for _, tasks := range []int{2, 8, 16, 32} {
			pt, err := syncBarrier(impl, tasks, "node", barrierIters)
			if err != nil {
				return nil, fmt.Errorf("barrier %s/%d: %w", impl, tasks, err)
			}
			res.Barriers = append(res.Barriers, pt)
		}
		for _, scope := range []string{"llc", "numa"} {
			pt, err := syncBarrier(impl, 32, scope, barrierIters)
			if err != nil {
				return nil, fmt.Errorf("barrier %s/%s: %w", impl, scope, err)
			}
			res.Barriers = append(res.Barriers, pt)
		}
	}

	// Collectives: op x size x mode at full width. Allgather's large size
	// is smaller: its receive buffer is tasks times the send buffer.
	type cfg struct {
		op           string
		small, large int
	}
	for _, c := range []cfg{
		{"barrier", 0, -1},
		{"bcast", 8, 65536},
		{"allreduce", 8, 65536},
		{"allgather", 8, 4096},
	} {
		sizes := []int{c.small}
		if c.large > 0 {
			sizes = append(sizes, c.large)
		}
		for _, elems := range sizes {
			iters := smallIters
			if elems > 1024 {
				iters = largeIters
			}
			for _, mode := range []mpi.CollectiveMode{mpi.CollChannels, mpi.CollShared} {
				pt, err := syncCollective(c.op, 32, elems, iters, mode)
				if err != nil {
					return nil, fmt.Errorf("collective %s/%d: %w", c.op, elems, err)
				}
				res.Collectives = append(res.Collectives, pt)
			}
		}
	}

	res.Checks = computeSyncChecks(res)
	return res, nil
}

func computeSyncChecks(res *SyncResult) SyncChecks {
	barrier := func(impl string, tasks int) float64 {
		for _, b := range res.Barriers {
			if b.Impl == impl && b.Tasks == tasks && b.Scope == "node" {
				return b.NsPerOp
			}
		}
		return 0
	}
	coll := func(op, mode string, large bool) (SyncCollPoint, bool) {
		for _, c := range res.Collectives {
			if c.Op == op && c.Mode == mode && (c.Elems > 1024) == large {
				return c, true
			}
		}
		return SyncCollPoint{}, false
	}
	var ch SyncChecks
	if tree, mutex := barrier("tree", 16), barrier("mutex", 16); tree > 0 && tree < mutex {
		ch.TreeBeatsMutex16 = true
	}
	if tree, mutex := barrier("tree", 32), barrier("mutex", 32); tree > 0 && tree < mutex {
		ch.TreeBeatsMutex32 = true
	}
	bcS, ok1 := coll("bcast", "shared", true)
	bcC, ok2 := coll("bcast", "channels", true)
	arS, ok3 := coll("allreduce", "shared", true)
	arC, ok4 := coll("allreduce", "channels", true)
	if ok1 && ok2 && ok3 && ok4 && bcS.NsPerOp < bcC.NsPerOp && arS.NsPerOp < arC.NsPerOp {
		ch.SharedBeatsChannelsLarge = true
	}
	ch.SharedAllocFree = true
	ch.SharedNoMessages = true
	for _, op := range []string{"barrier", "bcast", "allreduce"} {
		c, ok := coll(op, "shared", false)
		if !ok || c.AllocsPerOp >= 1 {
			ch.SharedAllocFree = false
		}
	}
	for _, c := range res.Collectives {
		// In a shared-mode world every collective (warmups and bracketing
		// barriers included) takes the fast path, so any p2p message means
		// the fast path disengaged.
		if c.Mode == "shared" && c.Messages != 0 {
			ch.SharedNoMessages = false
		}
	}
	return ch
}

// PrintSync renders the measurements and the acceptance checks.
func PrintSync(w io.Writer, res *SyncResult) {
	fprintf(w, "Directive barriers (ns/op, 4x Nehalem-EX, node scope unless noted)\n")
	fprintf(w, "%-8s %-6s %-6s %12s\n", "impl", "tasks", "scope", "ns/op")
	for _, b := range res.Barriers {
		fprintf(w, "%-8s %-6d %-6s %12.0f\n", b.Impl, b.Tasks, b.Scope, b.NsPerOp)
	}
	fprintf(w, "\nCollectives (32 tasks; allocs are process-wide per op)\n")
	fprintf(w, "%-10s %-9s %8s %12s %12s %10s\n", "op", "mode", "elems", "ns/op", "allocs/op", "messages")
	for _, c := range res.Collectives {
		fprintf(w, "%-10s %-9s %8d %12.0f %12.2f %10d\n",
			c.Op, c.Mode, c.Elems, c.NsPerOp, c.AllocsPerOp, c.Messages)
	}
	printChecks(w, []check{
		{"tree barrier beats mutex at 16 tasks", res.Checks.TreeBeatsMutex16},
		{"tree barrier beats mutex at 32 tasks", res.Checks.TreeBeatsMutex32},
		{"zero-copy beats channels on large buffers", res.Checks.SharedBeatsChannelsLarge},
		{"shared fast path allocation-free (small ops)", res.Checks.SharedAllocFree},
		{"shared fast path sends no p2p messages", res.Checks.SharedNoMessages},
	})
}

// WriteSyncCSV writes the measurements as one flat table.
func WriteSyncCSV(w io.Writer, res *SyncResult) error {
	records := [][]string{{
		"kind", "impl_or_mode", "op", "tasks", "scope", "elems",
		"ns_per_op", "allocs_per_op", "messages",
	}}
	for _, b := range res.Barriers {
		records = append(records, []string{
			"barrier", b.Impl, "barrier", strconv.Itoa(b.Tasks), b.Scope, "",
			fmt.Sprintf("%.1f", b.NsPerOp), "", "",
		})
	}
	for _, c := range res.Collectives {
		records = append(records, []string{
			"collective", c.Mode, c.Op, strconv.Itoa(c.Tasks), "", strconv.Itoa(c.Elems),
			fmt.Sprintf("%.1f", c.NsPerOp), fmt.Sprintf("%.2f", c.AllocsPerOp),
			strconv.FormatInt(c.Messages, 10),
		})
	}
	return csv.NewWriter(w).WriteAll(records)
}

func (res *SyncResult) rows() []row {
	var out []row
	for _, b := range res.Barriers {
		out = append(out, row{fmt.Sprintf("barrier %s %d tasks %s", b.Impl, b.Tasks, b.Scope), b.NsPerOp})
	}
	for _, c := range res.Collectives {
		out = append(out, row{fmt.Sprintf("%s %s %d tasks %d elems", c.Op, c.Mode, c.Tasks, c.Elems), c.NsPerOp})
	}
	return out
}
