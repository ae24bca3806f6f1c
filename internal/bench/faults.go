package bench

import (
	"fmt"
	"io"
	"time"

	"hls/internal/chaos"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// The faults experiment measures what the fault-tolerance layer costs
// and what it buys: the same HLS workload runs once clean and once under
// a seeded chaos plan (allocation failures forcing demotion, message
// delays, a rank stall), and the harness reports the throughput delta,
// the demotions with their footprint cost and recovery latency, and —
// the acceptance property — that degraded execution produced
// bitwise-identical results (§III sharing/duplication equivalence).

// FaultsRun is one configuration's measurements.
type FaultsRun struct {
	Mode       string
	Seconds    float64
	Throughput float64 // iterations*tasks per second
	Demotions  int
	ExtraMB    float64
	// RecoveryNs is the mean time from an instance's first failed
	// allocation attempt to its demotion (hls.Stats.DemotionRecovery
	// over Demotions); 0 without demotions.
	RecoveryNs float64
}

// FaultsResult aggregates the experiment.
type FaultsResult struct {
	Tasks, Iters int
	Seed         int64
	Clean, Chaos FaultsRun
	// Identical reports bitwise equality of the clean and degraded
	// result vectors.
	Identical bool
	// Injected counts the chaos events per kind.
	Injected map[string]int
	// Unfired lists the armed faults that never injected anything (one
	// Describe() line each) — e.g. an Nth-opportunity rule the run never
	// reached. A silently under-delivering plan is a weaker test than
	// the seed suggests, so the report must say so.
	Unfired []string
}

// RunFaults runs the clean-vs-chaos comparison. The seed fixes the whole
// chaos schedule, so a run is reproducible bit for bit.
func RunFaults(p Profile, seed int64) (*FaultsResult, error) {
	machine := topology.HarpertownCluster(2)
	tasks := machine.TotalCores()
	iters := 60
	entries := 2048
	if p == Full {
		machine = topology.NehalemEX4Scaled()
		tasks = machine.TotalCores()
		iters = 300
		entries = 8192
	}
	out := &FaultsResult{Tasks: tasks, Iters: iters, Seed: seed}

	run := func(inj *chaos.Injector) ([]float64, FaultsRun, error) {
		var hooks mpi.Hooks
		opts := append(telemetryHLSOptions(), hls.WithAllocRetry(2, 50*time.Microsecond))
		if inj != nil {
			hooks = inj
			opts = append(opts, hls.WithObserver(inj), hls.WithAllocGate(inj))
		}
		w, err := mpi.NewWorld(mpi.Config{NumTasks: tasks, Machine: machine,
			Pin: topology.PinCorePerTask, Timeout: 5 * time.Minute, Hooks: hooks})
		if err != nil {
			return nil, FaultsRun{}, err
		}
		reg := hls.New(w, opts...)
		v := hls.Declare[float64](reg, "fault_table", topology.Node, entries,
			hls.WithInit(func(inst int, data []float64) {
				for i := range data {
					data[i] = float64(i%97) * 0.5
				}
			}))
		results := make([]float64, iters)
		start := time.Now()
		runErr := runWorld(w, func(task *mpi.Task) error {
			sum := []float64{0}
			out := []float64{0}
			for i := 0; i < iters; i++ {
				v.Single(task, func(data []float64) {
					for j := range data {
						data[j] += 1
					}
				})
				s := 0.0
				for _, x := range v.Slice(task) {
					s += x
				}
				sum[0] = s
				mpi.Allreduce(task, nil, sum, out, mpi.OpSum)
				if task.Rank() == 0 {
					results[i] = out[0]
				}
				reg.BarrierScope(task, topology.Node)
			}
			return nil
		}, reg)
		elapsed := time.Since(start)
		if runErr != nil {
			return nil, FaultsRun{}, runErr
		}
		st := reg.Stats()
		fr := FaultsRun{
			Seconds:    elapsed.Seconds(),
			Throughput: float64(iters*tasks) / elapsed.Seconds(),
			Demotions:  int(st.Demotions),
			ExtraMB:    float64(st.DemotedExtraBytes) / (1 << 20),
		}
		if st.Demotions > 0 {
			fr.RecoveryNs = float64(st.DemotionRecovery.Nanoseconds()) / float64(st.Demotions)
		}
		return results, fr, nil
	}

	clean, cleanRun, err := run(nil)
	if err != nil {
		return nil, fmt.Errorf("faults: clean run: %w", err)
	}
	cleanRun.Mode = "clean"
	out.Clean = cleanRun

	inj := chaos.New(seed,
		chaos.Fault{Kind: chaos.AllocFail, Var: "fault_table", Prob: 1},
		chaos.Fault{Kind: chaos.MsgDelay, Rank: -1, Prob: 0.02, Delay: 100 * time.Microsecond},
		chaos.Fault{Kind: chaos.RankStall, Rank: 1, Nth: 5, Times: 2, Delay: time.Millisecond},
	)
	degraded, chaosRun, err := run(inj)
	if err != nil {
		return nil, fmt.Errorf("faults: chaos run: %w", err)
	}
	chaosRun.Mode = "chaos"
	out.Chaos = chaosRun
	if out.Chaos.Demotions == 0 {
		return nil, fmt.Errorf("faults: chaos run demoted nothing (alloc-fail plan did not fire)")
	}

	out.Identical = len(clean) == len(degraded)
	for i := range clean {
		if clean[i] != degraded[i] {
			out.Identical = false
			break
		}
	}

	out.Injected = make(map[string]int)
	for _, e := range inj.Events() {
		out.Injected[e.Kind.String()]++
	}
	for _, s := range inj.Unfired() {
		out.Unfired = append(out.Unfired, s.Describe())
	}
	return out, nil
}

// PrintFaults renders the experiment.
func PrintFaults(w io.Writer, r *FaultsResult) {
	fprintf(w, "Fault tolerance: clean vs chaos (%d tasks, %d iterations, seed %d)\n",
		r.Tasks, r.Iters, r.Seed)
	fprintf(w, "%-8s %10s %16s %11s %10s\n", "run", "seconds", "iters*tasks/s", "demotions", "extra MB")
	for _, row := range []FaultsRun{r.Clean, r.Chaos} {
		fprintf(w, "%-8s %10.3f %16.0f %11d %10.2f\n",
			row.Mode, row.Seconds, row.Throughput, row.Demotions, row.ExtraMB)
	}
	slow := r.Chaos.Seconds / r.Clean.Seconds
	fprintf(w, "chaos slowdown: %.2fx\n", slow)
	fprintf(w, "injected:")
	for _, k := range []string{"alloc-fail", "msg-delay", "rank-stall", "msg-drop", "msg-dup", "rank-kill", "map-fail"} {
		if n := r.Injected[k]; n > 0 {
			fprintf(w, " %s=%d", k, n)
		}
	}
	fprintf(w, "\n")
	if len(r.Unfired) == 0 {
		fprintf(w, "fault plan: every armed fault fired\n")
	} else {
		fprintf(w, "fault plan: %d armed fault(s) never fired:\n", len(r.Unfired))
		for _, line := range r.Unfired {
			fprintf(w, "  %s\n", line)
		}
	}
	if r.Chaos.RecoveryNs > 0 {
		fprintf(w, "demotion recovery latency: mean %s over %d demotions (first failed attempt -> demotion)\n",
			fmtDur(r.Chaos.RecoveryNs), r.Chaos.Demotions)
	}
	if r.Identical {
		fprintf(w, "degraded results: bitwise identical to clean run (§III sharing≡duplication)\n")
	} else {
		fprintf(w, "degraded results: DIFFER from clean run — degradation broke §III equivalence!\n")
	}
}

// WriteFaultsCSV writes the experiment as machine-readable rows.
func WriteFaultsCSV(w io.Writer, r *FaultsResult) error {
	if _, err := fmt.Fprintln(w, "mode,seconds,throughput,demotions,extra_mb,identical"); err != nil {
		return err
	}
	for _, row := range []FaultsRun{r.Clean, r.Chaos} {
		if _, err := fmt.Fprintf(w, "%s,%.4f,%.1f,%d,%.3f,%t\n",
			row.Mode, row.Seconds, row.Throughput, row.Demotions, row.ExtraMB, r.Identical); err != nil {
			return err
		}
	}
	return nil
}
