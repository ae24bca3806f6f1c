package bench

import (
	"fmt"
	"io"
	"time"

	"hls/internal/apps/eulermhd"
	"hls/internal/apps/gadget"
	"hls/internal/apps/tachyon"
	"hls/internal/hls"
	"hls/internal/memsim"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// Variant is a row of the memory tables: which runtime and whether HLS is
// on. The Open MPI variant runs the same private-copy program on the
// thread-based runtime but accounts the process-based baseline's buffer
// model (see DESIGN.md's substitution table).
type Variant int

const (
	// VariantMPCHLS is MPC with the HLS mechanism enabled.
	VariantMPCHLS Variant = iota
	// VariantMPC is plain MPC (everything duplicated per task).
	VariantMPC
	// VariantOpenMPI is the process-based baseline model.
	VariantOpenMPI
)

// String names the variant like the tables' MPI column.
func (v Variant) String() string {
	switch v {
	case VariantMPCHLS:
		return "MPC HLS"
	case VariantMPC:
		return "MPC"
	case VariantOpenMPI:
		return "Open MPI"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

func (v Variant) useHLS() bool { return v == VariantMPCHLS }

func (v Variant) model() memsim.RuntimeModel {
	if v == VariantOpenMPI {
		return memsim.ModelOpenMPI
	}
	return memsim.ModelMPC
}

// MemRow is one row of Tables II-IV.
type MemRow struct {
	Cores   int
	Variant Variant
	Seconds float64
	AvgMB   float64
	MaxMB   float64
}

// PrintMemRows renders rows in the tables' layout.
func PrintMemRows(w io.Writer, title string, rows []MemRow, paperNote string) {
	fprintf(w, "%s\n", title)
	fprintf(w, "%8s %-10s %9s %15s %15s\n", "# cores", "MPI", "time (s)", "avg. mem (MB)", "max. mem (MB)")
	for _, r := range rows {
		fprintf(w, "%8d %-10s %9.2f %15.0f %15.0f\n", r.Cores, r.Variant, r.Seconds, r.AvgMB, r.MaxMB)
	}
	if paperNote != "" {
		fprintf(w, "(paper: %s)\n", paperNote)
	}
}

// memEnv sets up machine, world, tracker and registry for one run.
type memEnv struct {
	machine *topology.Machine
	world   *mpi.World
	tracker *memsim.Tracker
	reg     *hls.Registry
}

// newMemEnv builds the cluster for `cores` tasks at 8 cores per node (the
// paper's node) and accounts the variant's runtime buffers per node.
func newMemEnv(cores int, variant Variant) (*memEnv, error) {
	if cores%8 != 0 {
		return nil, fmt.Errorf("bench: cores=%d not a multiple of 8 (cores per node)", cores)
	}
	machine := topology.HarpertownCluster(cores / 8)
	world, err := mpi.NewWorld(mpi.Config{
		NumTasks: cores,
		Machine:  machine,
		Pin:      topology.PinCorePerTask,
		Timeout:  10 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	pin := world.Pinning()
	tracker := memsim.NewTracker(machine, pin)
	for node := 0; node < machine.Nodes(); node++ {
		tracker.AllocNode(node, memsim.RuntimeBytesPerNode(variant.model(), 8, cores), memsim.KindRuntime)
	}
	reg := hls.New(world, append(telemetryHLSOptions(), hls.WithTracker(tracker))...)
	return &memEnv{machine: machine, world: world, tracker: tracker, reg: reg}, nil
}

func (e *memEnv) row(cores int, variant Variant, elapsed time.Duration) MemRow {
	rep := e.tracker.Report()
	return MemRow{
		Cores:   cores,
		Variant: variant,
		Seconds: elapsed.Seconds(),
		AvgMB:   memsim.MB(rep.AvgBytes),
		MaxMB:   memsim.MB(rep.MaxBytes),
	}
}

// TableIICores returns the Table II sweep: the paper's 256/512/736 in the
// full profile, one node-pair in quick.
func TableIICores(p Profile) []int {
	if p == Full {
		return []int{256, 512, 736}
	}
	return []int{16}
}

// RunTableII regenerates Table II (EulerMHD).
func RunTableII(p Profile) ([]MemRow, error) {
	var rows []MemRow
	for _, cores := range TableIICores(p) {
		for _, variant := range []Variant{VariantMPCHLS, VariantMPC, VariantOpenMPI} {
			env, err := newMemEnv(cores, variant)
			if err != nil {
				return nil, err
			}
			app, err := eulermhd.New(env.reg, eulermhd.Config{
				Machine:     env.machine,
				Tasks:       cores,
				NX:          32,
				RowsPerTask: 2,
				Steps:       4,
				TableN:      32,
				UseHLS:      variant.useHLS(),
				Tracker:     env.tracker,
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := runWorld(env.world, func(task *mpi.Task) error {
				_, err := app.Run(task)
				return err
			}, env.reg); err != nil {
				return nil, err
			}
			rows = append(rows, env.row(cores, variant, time.Since(start)))
		}
	}
	return rows, nil
}

// TableIIICores returns the Table III sweep.
func TableIIICores(p Profile) []int {
	if p == Full {
		return []int{256}
	}
	return []int{16}
}

// RunTableIII regenerates Table III (Gadget-2).
func RunTableIII(p Profile) ([]MemRow, error) {
	var rows []MemRow
	for _, cores := range TableIIICores(p) {
		for _, variant := range []Variant{VariantMPCHLS, VariantMPC, VariantOpenMPI} {
			env, err := newMemEnv(cores, variant)
			if err != nil {
				return nil, err
			}
			app, err := gadget.New(env.reg, gadget.Config{
				Machine:          env.machine,
				Tasks:            cores,
				ParticlesPerTask: 4,
				Steps:            3,
				EwaldN:           6,
				UseHLS:           variant.useHLS(),
				Tracker:          env.tracker,
				Seed:             17,
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := runWorld(env.world, func(task *mpi.Task) error {
				_, err := app.Run(task)
				return err
			}, env.reg); err != nil {
				return nil, err
			}
			rows = append(rows, env.row(cores, variant, time.Since(start)))
		}
	}
	return rows, nil
}

// TableIVCores returns the Table IV sweep.
func TableIVCores(p Profile) []int {
	if p == Full {
		return []int{736}
	}
	return []int{16}
}

// TableIVResult carries the rows plus the copy-elision evidence behind
// the paper's Tachyon speedup.
type TableIVResult struct {
	Rows []MemRow
	// ElidedCopies counts intra-node same-address deliveries skipped in
	// the HLS run (zero in the others).
	ElidedCopies int64
}

// RunTableIV regenerates Table IV (Tachyon).
func RunTableIV(p Profile) (TableIVResult, error) {
	var out TableIVResult
	for _, cores := range TableIVCores(p) {
		for _, variant := range []Variant{VariantMPCHLS, VariantMPC, VariantOpenMPI} {
			env, err := newMemEnv(cores, variant)
			if err != nil {
				return out, err
			}
			frames := 2
			if p == Full {
				frames = 3
			}
			app, err := tachyon.New(env.reg, tachyon.Config{
				Machine:   env.machine,
				Tasks:     cores,
				W:         24,
				H:         cores, // one scanline per task minimum
				Frames:    frames,
				Spheres:   24,
				Triangles: 8,
				UseHLS:    variant.useHLS(),
				Tracker:   env.tracker,
				Seed:      4,
			})
			if err != nil {
				return out, err
			}
			start := time.Now()
			if err := runWorld(env.world, func(task *mpi.Task) error {
				_, err := app.Run(task)
				return err
			}, env.reg); err != nil {
				return out, err
			}
			out.Rows = append(out.Rows, env.row(cores, variant, time.Since(start)))
			if variant == VariantMPCHLS {
				out.ElidedCopies += env.world.Stats().SameAddrSkips
			}
		}
	}
	return out, nil
}
