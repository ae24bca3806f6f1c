package bench

import (
	"fmt"
	"io"
	"time"

	"hls/internal/hls"
	"hls/internal/memsim"
	"hls/internal/mpi"
	"hls/internal/pagemerge"
	"hls/internal/topology"
)

// MicroResult is one micro-benchmark or ablation measurement.
type MicroResult struct {
	Name    string
	NsPerOp float64
	Note    string
}

// PrintMicro renders the measurements.
func PrintMicro(w io.Writer, results []MicroResult) {
	fprintf(w, "Micro-benchmarks and ablations (32 tasks on 4x Nehalem-EX)\n")
	for _, r := range results {
		if r.NsPerOp > 0 {
			fprintf(w, "%-42s %12.0f ns/op  %s\n", r.Name, r.NsPerOp, r.Note)
		} else {
			fprintf(w, "%-42s %12s        %s\n", r.Name, "-", r.Note)
		}
	}
}

// RunMicro measures the HLS primitives' costs and the §IV-B / related-work
// design choices:
//
//   - hls_get_addr (Var.Slice) per-access overhead;
//   - node barrier, hierarchical (shared-cache aware) vs flat (ablation 1);
//   - listing 1 (single per write) vs listing 2 (barrier + single nowait),
//     which halves the synchronizations (ablation 2);
//   - HLS vs SBLLmalloc-style page merging (ablation 4).
func RunMicro(p Profile) ([]MicroResult, error) {
	iters := 300
	if p == Full {
		iters = 2000
	}
	var out []MicroResult

	// get-addr cost.
	if r, err := microGetAddr(); err != nil {
		return nil, err
	} else {
		out = append(out, r)
	}

	// Barrier: hierarchical vs flat.
	for _, flat := range []bool{false, true} {
		r, err := microBarrier(iters, flat)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}

	// Listing 1 vs listing 2 with 4 shared variables.
	for _, listing2 := range []bool{false, true} {
		r, err := microSinglePattern(iters/2, listing2)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}

	out = append(out, microPageMerge()...)
	return out, nil
}

func microWorld(opts ...hls.Option) (*mpi.World, *hls.Registry, error) {
	machine := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: machine.TotalCores(),
		Machine:  machine,
		Pin:      topology.PinCorePerTask,
		Timeout:  5 * time.Minute,
	})
	if err != nil {
		return nil, nil, err
	}
	return w, hls.New(w, append(telemetryHLSOptions(), opts...)...), nil
}

func microGetAddr() (MicroResult, error) {
	w, reg, err := microWorld()
	if err != nil {
		return MicroResult{}, err
	}
	v := hls.Declare[float64](reg, "m_addr", topology.Node, 8)
	const n = 2_000_000
	var perOp float64
	err = runWorld(w, func(task *mpi.Task) error {
		if task.Rank() != 0 {
			return nil
		}
		start := time.Now()
		var sink float64
		for i := 0; i < n; i++ {
			sink += v.Slice(task)[0]
		}
		_ = sink
		perOp = float64(time.Since(start).Nanoseconds()) / n
		return nil
	}, reg)
	return MicroResult{Name: "hls_get_addr (Var.Slice)", NsPerOp: perOp,
		Note: "address resolution per access (§IV-A)"}, err
}

func microBarrier(iters int, flat bool) (MicroResult, error) {
	var opts []hls.Option
	name := "node barrier, hierarchical (cache-aware)"
	if flat {
		opts = append(opts, hls.WithFlatBarriers())
		name = "node barrier, flat (ablation)"
	}
	w, reg, err := microWorld(opts...)
	if err != nil {
		return MicroResult{}, err
	}
	v := hls.Declare[int](reg, "m_bar", topology.Node, 1)
	var elapsed time.Duration
	err = runWorld(w, func(task *mpi.Task) error {
		mpi.Barrier(task, nil)
		start := time.Now()
		for i := 0; i < iters; i++ {
			reg.Barrier(task, v)
		}
		if task.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	}, reg)
	return MicroResult{Name: name, NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters),
		Note: "32 tasks synchronize (§IV-B)"}, err
}

func microSinglePattern(iters int, listing2 bool) (MicroResult, error) {
	w, reg, err := microWorld()
	if err != nil {
		return MicroResult{}, err
	}
	vars := make([]*hls.Var[int], 4)
	anyVars := make([]hls.AnyVar, 4)
	for i := range vars {
		vars[i] = hls.Declare[int](reg, fmt.Sprintf("m_s%d", i), topology.Node, 1)
		anyVars[i] = vars[i]
	}
	var elapsed time.Duration
	err = runWorld(w, func(task *mpi.Task) error {
		mpi.Barrier(task, nil)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if listing2 {
				reg.Barrier(task, anyVars...)
				for _, v := range vars {
					v.SingleNowait(task, func(d []int) { d[0]++ })
				}
				reg.Barrier(task, anyVars...)
			} else {
				for _, v := range vars {
					v.Single(task, func(d []int) { d[0]++ })
				}
			}
		}
		if task.Rank() == 0 {
			elapsed = time.Since(start)
		}
		return nil
	}, reg)
	name := "4 writes via single (listing 1)"
	note := "4 barrier-equivalents per iteration"
	if listing2 {
		name = "4 writes via barrier+nowait (listing 2)"
		note = "2 barriers per iteration (half the syncs)"
	}
	return MicroResult{Name: name, NsPerOp: float64(elapsed.Nanoseconds()) / float64(iters), Note: note}, err
}

// microPageMerge contrasts directive sharing with SBLLmalloc-style page
// merging on a table that is periodically updated: same memory when idle,
// but the page merger pays scans and copy-on-write faults every cycle.
func microPageMerge() []MicroResult {
	const (
		tasks     = 8
		pageBytes = 4096
		tableMB   = 8
		pages     = tableMB << 20 / pageBytes
		cycles    = 5
	)
	m := pagemerge.NewManager(pageBytes)
	m.Register("table", tasks, tableMB<<20, func(task, page int) uint64 { return uint64(page) })
	m.Scan()
	mergedMB := memsim.MB(float64(m.PhysicalBytes()))
	privateMB := memsim.MB(float64(m.PrivateBytes()))
	// Update cycles: every task rewrites the table, then a scan remerges.
	for c := 1; c <= cycles; c++ {
		for task := 0; task < tasks; task++ {
			for pg := 0; pg < pages; pg++ {
				m.Write("table", task, pg*pageBytes, uint64(c*1_000_000+pg))
			}
		}
		m.Scan()
	}
	st := m.Stats()
	return []MicroResult{
		{Name: "page merging: idle table", Note: fmt.Sprintf(
			"%.0f MB merged vs %.0f MB private vs %.0f MB HLS (same saving, page granularity)",
			mergedMB, privateMB, float64(tableMB))},
		{Name: "page merging: updated table", Note: fmt.Sprintf(
			"%d CoW faults, %d pages scanned over %d update cycles; HLS single pays %d barriers",
			st.Faults, st.PagesScanned, cycles, cycles)},
	}
}
