package bench

import (
	"io"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/omp"
	"hls/internal/topology"
)

// HybridResult compares the paper's two routes to memory reduction on one
// 8-core node (§I): pure MPI with an HLS-shared table, versus the
// master-only hybrid (1 MPI task, 8 OpenMP threads) where every
// communication phase is executed by a single thread. Both save the same
// memory; the hybrid pays Amdahl on the serial communication sections —
// the argument that motivates HLS.
//
// Both variants really execute, and each worker counts the work units it
// performs between synchronization points. The comparison metric is the
// critical path: the sum over steps of the slowest participant's work.
// (Wall time is reported for context only — on a machine with fewer
// physical CPUs than workers it reflects total work, not the critical
// path, and this harness commonly runs on small VMs.)
type HybridResult struct {
	// CriticalPath work units per variant: what an 8-core node's wall
	// clock would track.
	PureMPIHLSPath   int64
	HybridMasterPath int64
	// Wall times, context only.
	PureMPIHLSWall   time.Duration
	HybridMasterWall time.Duration
	// CommFraction is the communication share of a step's total work.
	CommFraction float64
}

// commWork simulates a communication phase: touch n buffer cells the way
// a progress engine would, returning the work units spent.
func commWork(buf []float64, n int) int64 {
	for i := 0; i < n; i++ {
		buf[i%len(buf)] = buf[i%len(buf)]*0.999 + 1e-3
	}
	return int64(n)
}

// computeWork simulates a compute phase over [lo, hi).
func computeWork(data []float64, lo, hi int) int64 {
	for i := lo; i < hi; i++ {
		x := data[i]
		data[i] = x + 0.5*(1.0-x*x)*1e-3
	}
	return int64(hi - lo)
}

// RunHybridAblation executes both variants with identical total work:
// `steps` iterations of (compute over `cells` cells + a communication
// phase of commCells units).
func RunHybridAblation(p Profile) (HybridResult, error) {
	steps := 20
	cells := 1 << 18
	commCells := 1 << 16
	if p == Full {
		steps = 100
	}
	machine := topology.HarpertownCluster(1) // 8 cores
	nCores := machine.TotalCores()

	var res HybridResult
	res.CommFraction = float64(commCells) / float64(cells+commCells)

	// Variant A: 8 MPI tasks, table shared via HLS; compute and
	// communication both spread over all tasks. Critical path per step =
	// max over tasks of (their compute + their comm).
	{
		w, err := mpi.NewWorld(mpi.Config{NumTasks: nCores, Machine: machine,
			Pin: topology.PinCorePerTask, Timeout: 10 * time.Minute})
		if err != nil {
			return res, err
		}
		reg := hls.New(w, telemetryHLSOptions()...)
		table := hls.Declare[float64](reg, "hyb_table", topology.Node, 4096)
		perTaskWork := make([]int64, nCores)
		start := time.Now()
		if err := runWorld(w, func(task *mpi.Task) error {
			table.Single(task, func(d []float64) {
				for i := range d {
					d[i] = 1
				}
			})
			local := make([]float64, cells/nCores)
			comm := make([]float64, 1024)
			for s := 0; s < steps; s++ {
				units := computeWork(local, 0, len(local))
				units += commWork(comm, commCells/nCores)
				perTaskWork[task.Rank()] += units
				mpi.Barrier(task, nil)
			}
			return nil
		}, reg); err != nil {
			return res, err
		}
		res.PureMPIHLSWall = time.Since(start)
		// Homogeneous tasks: the per-step max equals any task's share.
		for _, u := range perTaskWork {
			if u > res.PureMPIHLSPath {
				res.PureMPIHLSPath = u
			}
		}
	}

	// Variant B: master-only hybrid — one MPI task, 8 OpenMP threads;
	// compute is parallel, the whole communication phase runs on thread 0
	// while the team waits. Critical path per step = compute/8 + comm.
	{
		w, err := mpi.NewWorld(mpi.Config{NumTasks: 1, Machine: machine,
			Pin: topology.PinCorePerTask, Timeout: 10 * time.Minute})
		if err != nil {
			return res, err
		}
		perThreadWork := make([]int64, nCores)
		start := time.Now()
		if err := runWorld(w, func(task *mpi.Task) error {
			local := make([]float64, cells)
			comm := make([]float64, 1024)
			omp.Parallel(task, nCores, func(tc *omp.ThreadCtx) {
				chunk := len(local) / tc.NumThreads()
				lo := tc.ThreadNum() * chunk
				for s := 0; s < steps; s++ {
					units := computeWork(local, lo, lo+chunk)
					tc.Barrier()
					if tc.ThreadNum() == 0 {
						units += commWork(comm, commCells) // master-only: serial
					}
					perThreadWork[tc.ThreadNum()] += units
					tc.Barrier()
				}
			})
			return nil
		}); err != nil {
			return res, err
		}
		res.HybridMasterWall = time.Since(start)
		// Every step's critical path runs through the master: each
		// barrier-to-barrier segment's max is the compute chunk, then the
		// master's serial comm. With homogeneous compute, that is exactly
		// the master's total.
		res.HybridMasterPath = perThreadWork[0]
	}
	return res, nil
}

// PrintHybrid renders the comparison.
func PrintHybrid(w io.Writer, r HybridResult) {
	fprintf(w, "Hybrid ablation (one 8-core node, %.0f%% of step work is communication):\n", 100*r.CommFraction)
	fprintf(w, "  pure MPI + HLS table      : critical path %12d units   (wall %v)\n",
		r.PureMPIHLSPath, r.PureMPIHLSWall.Round(time.Microsecond))
	fprintf(w, "  master-only hybrid (1x8)  : critical path %12d units   (wall %v)\n",
		r.HybridMasterPath, r.HybridMasterWall.Round(time.Microsecond))
	fprintf(w, "  hybrid/pure ratio         : %.2fx longer critical path (Amdahl on the serial comm phase)\n",
		float64(r.HybridMasterPath)/float64(r.PureMPIHLSPath))
	fprintf(w, "(both variants hold one table copy; HLS gets the memory saving without serializing\n")
	fprintf(w, " communication, §I; wall times on machines with < 8 CPUs reflect total work instead)\n")
}
