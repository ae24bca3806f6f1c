package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hls/internal/chaos"
	"hls/internal/ckpt"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

// The recover experiment is the acceptance test of the durable-recovery
// layer: the same iterative workload — a persistent RMA window, an HLS
// node-scope table, per-rank application state, checkpointed every few
// iterations — runs once clean, once chaos-killed mid-run and resumed
// from the latest checkpoint in a fresh world, and once more after the
// newest generation has been deliberately torn. The checks: the resumed
// runs produce bitwise-identical results to the clean run, the torn
// generation is detected and skipped (never silently loaded), the
// restore reports its generation/bytes/latency, and the chaos kill
// actually fired (an unfired plan would make the whole test vacuous).

// RecoverRun is one trial's outcome.
type RecoverRun struct {
	Mode    string
	Seconds float64
	// Iters is how many iterations this trial executed (the killed trial
	// stops short; resumed trials run from the restored iteration).
	Iters int
	// StartIter is the first iteration executed (restored trials resume
	// mid-sequence).
	StartIter int
}

// RecoverChecks are the acceptance properties; CompareRecover treats a
// true-in-baseline, false-now transition as a hard regression.
type RecoverChecks struct {
	// Identical: resumed results (kill path and torn path) are bitwise
	// equal to the clean run's.
	Identical bool
	// TornSkipped: the corrupted newest generation was detected, skipped
	// and reported — never silently loaded.
	TornSkipped bool
	// RestoreReported: the restore surfaced generation, payload bytes
	// and wall time.
	RestoreReported bool
	// KillFired: the chaos plan actually killed a rank mid-run.
	KillFired bool
}

// RecoverResult aggregates the experiment.
type RecoverResult struct {
	Tasks     int
	Iters     int
	CkptEvery int
	Seed      int64

	Clean       RecoverRun
	Killed      RecoverRun
	Resumed     RecoverRun
	TornResumed RecoverRun

	// RestoreGen / RestoreBytes / RestoreMs describe the post-kill
	// restore; TornGen is the generation that was corrupted and
	// TornRestoreGen the (older) one the torn-path restore fell back to,
	// with TornSkippedGens invalid generations passed over.
	RestoreGen      uint64
	RestoreBytes    int64
	RestoreMs       float64
	TornGen         uint64
	TornRestoreGen  uint64
	TornSkippedGens int

	Checks RecoverChecks
}

// RunRecover runs the crash-recovery experiment in a temporary
// checkpoint directory. The seed fixes the chaos schedule.
func RunRecover(p Profile, seed int64) (*RecoverResult, error) {
	machine := topology.HarpertownCluster(2)
	iters := 36
	entries := 512
	if p == Full {
		machine = topology.NehalemEX4Scaled()
		iters = 120
		entries = 4096
	}
	tasks := machine.TotalCores()
	every := iters / 6
	if every < 1 {
		every = 1
	}
	out := &RecoverResult{Tasks: tasks, Iters: iters, CkptEvery: every, Seed: seed}

	dir, err := os.MkdirTemp("", "hlsrecover")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ckptDir := filepath.Join(dir, "ckpt")
	winDir := filepath.Join(dir, "win")

	// trial runs the workload from whatever iteration the restore (if
	// any) hands back, checkpointing every `every` iterations. Each
	// rank's results vector rides in the checkpoint, so a resumed run
	// ends with the full history. Returns rank 0's results.
	type trialOut struct {
		results []float64
		run     RecoverRun
		info    ckpt.RestoreInfo
		stats   ckpt.Stats
	}
	trial := func(mode string, inj *chaos.Injector, restore bool) (*trialOut, error) {
		var hooks mpi.Hooks
		opts := telemetryHLSOptions()
		if inj != nil {
			hooks = inj
			opts = append(opts, hls.WithObserver(inj))
		}
		w, err := mpi.NewWorld(mpi.Config{NumTasks: tasks, Machine: machine,
			Pin: topology.PinCorePerTask, Timeout: 5 * time.Minute, Hooks: hooks})
		if err != nil {
			return nil, err
		}
		reg := hls.New(w, opts...)
		table := hls.Declare[float64](reg, "rec_table", topology.Node, entries,
			hls.WithInit(func(inst int, data []float64) {
				for i := range data {
					data[i] = float64(i % 13)
				}
			}))
		co := ckpt.New(ckpt.Config{Dir: ckptDir})

		state := make([][]float64, tasks)
		results := make([][]float64, tasks)
		iterAt := make([][]int64, tasks)
		for r := 0; r < tasks; r++ {
			state[r] = make([]float64, 64)
			for j := range state[r] {
				state[r][j] = float64(r*64 + j)
			}
			results[r] = make([]float64, iters)
			iterAt[r] = []int64{0}
		}

		to := &trialOut{run: RecoverRun{Mode: mode}}
		var regOnce sync.Once
		start := time.Now()
		runErr := runWorld(w, func(task *mpi.Task) error {
			win := rma.WinAllocate[float64](task, nil, 32,
				rma.WithName("recwin"), rma.WithPersist(winDir))
			regOnce.Do(func() {
				co.Register(ckpt.Window(win))
				co.Register(ckpt.HLSVar(table))
				co.Register(ckpt.Slice("state", func(t *mpi.Task) []float64 { return state[t.Rank()] }))
				co.Register(ckpt.Slice("results", func(t *mpi.Task) []float64 { return results[t.Rank()] }))
				co.Register(ckpt.Slice("iter", func(t *mpi.Task) []int64 { return iterAt[t.Rank()] }))
			})
			r := task.Rank()
			startIter := 0
			if restore {
				info, err := co.Restore(task)
				if err != nil {
					return err
				}
				startIter = int(iterAt[r][0])
				if r == 0 {
					to.info = info
					to.run.StartIter = startIter
				}
			}
			seg := win.Local(task)
			sum := []float64{0}
			red := []float64{0}
			for i := startIter; i < iters; i++ {
				for j := range state[r] {
					state[r][j] = state[r][j]*1.0009765625 + float64(i%7)
				}
				for j := range seg {
					seg[j] += state[r][j%len(state[r])] * 0.125
				}
				table.Single(task, func(data []float64) {
					for j := range data {
						data[j] += 1
					}
				})
				s := 0.0
				for _, x := range state[r] {
					s += x
				}
				for _, x := range seg {
					s += x
				}
				for _, x := range table.Slice(task) {
					s += x
				}
				sum[0] = s
				mpi.Allreduce(task, nil, sum, red, mpi.OpSum)
				results[r][i] = red[0]
				reg.BarrierScope(task, topology.Node)
				iterAt[r][0] = int64(i + 1)
				if (i+1)%every == 0 {
					if _, err := co.Checkpoint(task); err != nil {
						return err
					}
				}
			}
			win.Free(task)
			return nil
		}, reg)
		to.run.Seconds = time.Since(start).Seconds()
		to.stats = co.Stats()
		to.run.Iters = int(iterAt[0][0]) - to.run.StartIter
		to.results = results[0]
		if runErr != nil {
			return to, runErr
		}
		return to, nil
	}

	// Trial 1: clean baseline (fresh directories).
	clean, err := trial("clean", nil, false)
	if err != nil {
		return nil, fmt.Errorf("recover: clean run: %w", err)
	}
	out.Clean = clean.run

	// Trial 2a: chaos-killed run over fresh directories. Rank 1 dies at
	// its mid-run barrier, after several checkpoints committed.
	os.RemoveAll(ckptDir)
	os.RemoveAll(winDir)
	inj := chaos.New(seed,
		chaos.Fault{Kind: chaos.RankKill, Rank: 1, Nth: int64(iters/2) + 1},
	)
	killed, err := trial("killed", inj, false)
	if err == nil {
		return nil, fmt.Errorf("recover: chaos run survived its kill plan: %v", inj.Unfired())
	}
	if killed == nil {
		return nil, fmt.Errorf("recover: chaos run: %w", err)
	}
	out.Checks.KillFired = inj.Count(chaos.RankKill) >= 1 && len(inj.Unfired()) == 0
	out.Killed = killed.run

	// Trial 2b: respawn — a fresh world restores the latest generation
	// and finishes the run.
	resumed, err := trial("resumed", nil, true)
	if err != nil {
		return nil, fmt.Errorf("recover: resumed run: %w", err)
	}
	out.Resumed = resumed.run
	out.RestoreGen = resumed.info.Gen
	out.RestoreBytes = resumed.info.Bytes
	out.RestoreMs = float64(resumed.info.Duration.Nanoseconds()) / 1e6
	out.Checks.RestoreReported = resumed.info.Gen > 0 && resumed.info.Bytes > 0 &&
		resumed.info.Duration > 0 && resumed.stats.Restores >= 1

	identical := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	out.Checks.Identical = identical(clean.results, resumed.results)

	// Trial 3: tear the newest committed generation (flip one payload
	// byte) and resume again — the restore must skip it, report the
	// skip, and fall back to the previous generation; results must still
	// match the clean run bit for bit.
	gens, err := ckpt.Inspect(ckptDir)
	if err != nil {
		return nil, fmt.Errorf("recover: inspect: %w", err)
	}
	var newest *ckpt.GenInfo
	for i := range gens {
		if gens[i].Valid {
			newest = &gens[i]
			break
		}
	}
	if newest == nil {
		return nil, fmt.Errorf("recover: no valid generation to corrupt")
	}
	out.TornGen = newest.Gen
	pay := filepath.Join(newest.Dir, newest.Ranks[0].File)
	b, err := os.ReadFile(pay)
	if err != nil {
		return nil, err
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(pay, b, 0o644); err != nil {
		return nil, err
	}

	torn, err := trial("torn-resumed", nil, true)
	if err != nil {
		return nil, fmt.Errorf("recover: torn-resumed run: %w", err)
	}
	out.TornResumed = torn.run
	out.TornRestoreGen = torn.info.Gen
	out.TornSkippedGens = torn.info.Skipped
	out.Checks.TornSkipped = torn.info.Gen > 0 && torn.info.Gen < out.TornGen &&
		torn.info.Skipped >= 1 && torn.stats.GenerationsSkipped >= 1
	out.Checks.Identical = out.Checks.Identical && identical(clean.results, torn.results)

	return out, nil
}

// PrintRecover renders the experiment.
func PrintRecover(w io.Writer, r *RecoverResult) {
	fprintf(w, "Durable recovery: checkpoint/restart under chaos (%d tasks, %d iterations, ckpt every %d, seed %d)\n",
		r.Tasks, r.Iters, r.CkptEvery, r.Seed)
	fprintf(w, "%-14s %10s %8s %10s\n", "trial", "seconds", "iters", "from-iter")
	for _, row := range []RecoverRun{r.Clean, r.Killed, r.Resumed, r.TornResumed} {
		fprintf(w, "%-14s %10.3f %8d %10d\n", row.Mode, row.Seconds, row.Iters, row.StartIter)
	}
	fprintf(w, "restore: generation %d, %d payload bytes, %.2f ms\n",
		r.RestoreGen, r.RestoreBytes, r.RestoreMs)
	fprintf(w, "torn path: corrupted gen %d -> restored gen %d (%d generation(s) skipped)\n",
		r.TornGen, r.TornRestoreGen, r.TornSkippedGens)
	status := func(ok bool, good, bad string) string {
		if ok {
			return good
		}
		return "[FAIL] " + bad
	}
	fprintf(w, "%s\n", status(r.Checks.KillFired,
		"chaos kill fired mid-run (plan fully delivered)",
		"chaos kill never fired — the recovery path was not exercised"))
	fprintf(w, "%s\n", status(r.Checks.RestoreReported,
		"restore reported generation, bytes and latency",
		"restore did not report its outcome"))
	fprintf(w, "%s\n", status(r.Checks.TornSkipped,
		"torn generation detected and skipped, older generation restored",
		"torn generation was not skipped — a corrupt checkpoint could load silently"))
	fprintf(w, "%s\n", status(r.Checks.Identical,
		"resumed results: bitwise identical to the unfailed run",
		"resumed results DIFFER from the unfailed run"))
}

// WriteRecoverCSV writes the experiment as machine-readable rows.
func WriteRecoverCSV(w io.Writer, r *RecoverResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trial", "seconds", "iters", "start_iter", "identical", "torn_skipped", "restore_reported", "kill_fired"}); err != nil {
		return err
	}
	for _, row := range []RecoverRun{r.Clean, r.Killed, r.Resumed, r.TornResumed} {
		if err := cw.Write([]string{
			row.Mode,
			fmt.Sprintf("%.4f", row.Seconds),
			fmt.Sprintf("%d", row.Iters),
			fmt.Sprintf("%d", row.StartIter),
			fmt.Sprintf("%t", r.Checks.Identical),
			fmt.Sprintf("%t", r.Checks.TornSkipped),
			fmt.Sprintf("%t", r.Checks.RestoreReported),
			fmt.Sprintf("%t", r.Checks.KillFired),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRecoverJSON writes the full result snapshot (BENCH_recover.json).
func WriteRecoverJSON(w io.Writer, r *RecoverResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRecoverJSON parses a snapshot written by WriteRecoverJSON.
func ReadRecoverJSON(rd io.Reader) (*RecoverResult, error) {
	var r RecoverResult
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// CompareRecover prints an old/new comparison and returns an error if an
// acceptance check that held in the baseline fails now. Timings are
// informational; check regressions are hard failures.
func CompareRecover(w io.Writer, base, cur *RecoverResult) error {
	fprintf(w, "Recover comparison vs baseline (%d tasks, %d iters)\n", base.Tasks, base.Iters)
	fprintf(w, "  restore latency: %.2f -> %.2f ms\n", base.RestoreMs, cur.RestoreMs)
	return compareChecks(w, "recover", base.Checks, cur.Checks)
}
