package meshupdate

import (
	"fmt"
	"math/rand"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

// RealApp executes the mesh-update kernel for real over the MPI runtime
// and the HLS registry: the same arithmetic in every mode, so a checksum
// comparison across modes verifies that introducing HLS preserves the
// program's semantics (the paper's central correctness claim: the
// directives "keep the original parallel semantics of the code"). The
// WinShm mode runs the same kernel over an MPI-3 shared window instead,
// so the comparison extends to the standard-MPI alternative.
type RealApp struct {
	cfg   Config
	reg   *hls.Registry
	table *hls.Var[float64] // nil in NoHLS and WinShm modes
	rows  int
	cols  int
}

// NewRealApp declares the HLS table (for the HLS modes) in reg. Call once
// before the world runs.
func NewRealApp(reg *hls.Registry, cfg Config) (*RealApp, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cols := 1
	for cols*cols < cfg.TableEntries {
		cols++
	}
	a := &RealApp{cfg: cfg, reg: reg, rows: cfg.TableEntries / cols, cols: cols}
	switch cfg.Mode {
	case HLSNode:
		a.table = hls.Declare[float64](reg, "mesh_table", topology.Node, cfg.TableEntries,
			hls.WithInit(func(_ int, data []float64) { fillTable(data, 0) }))
	case HLSNuma:
		a.table = hls.Declare[float64](reg, "mesh_table", topology.NUMA, cfg.TableEntries,
			hls.WithInit(func(_ int, data []float64) { fillTable(data, 0) }))
	}
	return a, nil
}

// fillTable writes the deterministic table contents of a given step.
func fillTable(data []float64, step int) {
	for i := range data {
		data[i] = float64((i*2654435761+step*97)%1000) / 1000.0
	}
}

// Run executes the kernel as task `task` and returns the checksum of the
// task's sub-domain after all steps.
func (a *RealApp) Run(task *mpi.Task) (float64, error) {
	cfg := a.cfg
	mesh := make([]float64, cfg.CellsPerTask)
	for i := range mesh {
		mesh[i] = float64(i%17) * 0.25
	}

	var table []float64
	var win *rma.Window[float64] // WinShm mode only
	winWriter := false
	switch {
	case a.table != nil:
		table = a.table.Slice(task)
	case cfg.Mode == WinShm:
		// The shared-window version of listing 1: rank 0 of the node
		// allocates the whole table, everyone addresses it directly.
		nodeComm := mpi.SplitScope(task, topology.Node)
		winWriter = nodeComm.Rank(task) == 0
		mine := 0
		if winWriter {
			mine = cfg.TableEntries
		}
		win = rma.WinAllocateShared[float64](task, nodeComm, mine, rma.WithName("mesh_table"))
		win.Fence(task)
		if winWriter {
			fillTable(win.Local(task), 0)
		}
		win.Fence(task)
		table = rma.WinSharedQuery(task, win, 0)
	default:
		table = make([]float64, cfg.TableEntries)
		fillTable(table, 0)
	}

	rng := rand.New(rand.NewSource(cfg.Seed + int64(task.Rank())*7919))
	for step := 0; step < cfg.Steps; step++ {
		mpi.Barrier(task, nil)
		for c := range mesh {
			x := rng.Float64() * float64(a.cols-1)
			y := rng.Float64() * float64(a.rows-1)
			mesh[c] = mesh[c]*0.5 + a.interp(table, x, y)
		}
		if cfg.Update && step < cfg.Steps-1 {
			a.updateTable(task, win, winWriter, table, step+1)
		}
	}
	if win != nil {
		win.Free(task) // an unfreed window keeps its world alive
	}
	sum := 0.0
	for _, v := range mesh {
		sum += v
	}
	return sum, nil
}

// updateTable rewrites the table for the next step: through a single for
// the HLS modes (listing 1's pattern), between fences for the shared
// window, directly for private copies.
func (a *RealApp) updateTable(task *mpi.Task, win *rma.Window[float64], winWriter bool, table []float64, step int) {
	if a.table != nil {
		a.table.Single(task, func(data []float64) { fillTable(data, step) })
		return
	}
	if win != nil {
		win.Fence(task) // readers of the previous step are done
		if winWriter {
			fillTable(table, step)
		}
		win.Fence(task) // new contents visible to everyone
		return
	}
	fillTable(table, step)
	// The regular MPI program still synchronizes steps.
	mpi.Barrier(task, nil)
}

// interp performs the bilinear interpolation the kernel models.
func (a *RealApp) interp(table []float64, x, y float64) float64 {
	ix, iy := int(x), int(y)
	if ix >= a.cols-1 {
		ix = a.cols - 2
	}
	if iy >= a.rows-1 {
		iy = a.rows - 2
	}
	fx, fy := x-float64(ix), y-float64(iy)
	i := iy*a.cols + ix
	v00, v01 := table[i], table[i+1]
	v10, v11 := table[i+a.cols], table[i+a.cols+1]
	return v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy
}

// Checksum helpers for cross-mode verification.

// RunAllChecksum runs the app over a fresh world and returns the global
// checksum (sum over tasks), so tests can compare modes.
func RunAllChecksum(cfg Config) (float64, error) {
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: cfg.Tasks,
		Machine:  cfg.Machine,
		Pin:      topology.PinCorePerTask,
	})
	if err != nil {
		return 0, err
	}
	reg := hls.New(w)
	app, err := NewRealApp(reg, cfg)
	if err != nil {
		return 0, err
	}
	sums := make([]float64, cfg.Tasks)
	if err := w.Run(func(task *mpi.Task) error {
		s, err := app.Run(task)
		if err != nil {
			return err
		}
		sums[task.Rank()] = s
		return nil
	}); err != nil {
		return 0, err
	}
	total := 0.0
	for _, s := range sums {
		total += s
	}
	if total != total { // NaN guard
		return 0, fmt.Errorf("meshupdate: checksum is NaN")
	}
	return total, nil
}
