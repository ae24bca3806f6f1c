// Command hlsbench regenerates the paper's evaluation (§V): Table I,
// Figure 3, Tables II-IV and the micro/ablation measurements, plus the
// gated experiments (sync, coll, recover, halo) whose acceptance checks
// CI compares against the committed baselines.
//
// Usage:
//
//	hlsbench -exp all            # quick profile, every experiment
//	hlsbench -exp table1 -full   # paper-shaped sweep for one experiment
//	hlsbench -exp coll -out out -compare internal/bench/testdata/BENCH_coll_baseline.json
//
// With -out DIR every file a run writes goes to DIR: <exp>.csv per
// experiment that has one, BENCH_<exp>.json per gated experiment and
// telemetry.csv. Without it nothing is written.
//
// Shapes — who wins, by what factor, where the crossovers fall — are the
// reproduction target; absolute numbers come from the scaled simulators
// (see DESIGN.md §6 and EXPERIMENTS.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hls/internal/bench"
	"hls/internal/metrics"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, strings.TrimSpace(err.Error()))
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a bad command line (exit status 2).
var errUsage = errors.New("hlsbench")

// experiment is one -exp choice. Its body runs the experiment, prints
// its tables to out and returns what a -out run writes.
type experiment struct {
	name, title string
	body        func(out io.Writer) (output, error)
}

// output is what an experiment leaves besides its printed tables.
type output struct {
	csv  func(w io.Writer) error // <exp>.csv; nil if the experiment has none
	snap bench.Snapshot          // BENCH_<exp>.json; nil unless gated
}

func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("hlsbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1|fig3|table2|table3|table4|micro|rma|faults|sync|coll|recover|halo|all")
	full := fs.Bool("full", false, "run the paper-shaped sweep instead of the quick profile")
	seed := fs.Int64("seed", 1, "chaos seed for -exp faults and -exp recover (fixes the whole fault schedule)")
	outDir := fs.String("out", "", "write <exp>.csv, BENCH_<exp>.json (gated experiments) and telemetry.csv into this directory")
	haloWidth := fs.Int("halo-width", 0, "pin -exp halo to one ghost-layer width (0 sweeps the profile's ladder)")
	compare := fs.String("compare", "", "baseline JSON snapshot to compare against, for -exp sync, coll, recover or halo run alone (error on check regressions)")
	serve := fs.String("serve", "", "serve live /metrics, /metrics.json and /debug/pprof/ on this address (e.g. :8080 or :0) while experiments run")
	linger := fs.Duration("linger", 0, "keep the -serve endpoint up this long after the experiments finish")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	profile := bench.Quick
	if *full {
		profile = bench.Full
	}
	exps := []experiment{
		{"table1", "Table I", body(profile, bench.RunTableI, bench.PrintTableI, bench.WriteTableICSV)},
		{"fig3", "Figure 3", func(out io.Writer) (output, error) {
			var pts []bench.Fig3Point
			for _, update := range []bool{false, true} {
				p, err := bench.RunFigure3(profile, update)
				if err != nil {
					return output{}, err
				}
				if update {
					fmt.Fprintln(out)
				}
				bench.PrintFigure3(out, p, update)
				pts = append(pts, p...)
			}
			return output{csv: func(w io.Writer) error { return bench.WriteFigure3CSV(w, pts) }}, nil
		}},
		{"table2", "Table II", body(profile, bench.RunTableII, func(w io.Writer, rows []bench.MemRow) {
			bench.PrintMemRows(w, "Table II: EulerMHD execution time and memory consumption", rows,
				"256 cores: HLS 651 / MPC 1570 / Open MPI 1715 MB avg; times equal")
		}, bench.WriteMemRowsCSV)},
		{"table3", "Table III", body(profile, bench.RunTableIII, func(w io.Writer, rows []bench.MemRow) {
			bench.PrintMemRows(w, "Table III: Gadget-2 execution time and memory consumption", rows,
				"256 cores: HLS 703 / MPC 938 / Open MPI 1731 MB avg; times equal")
		}, bench.WriteMemRowsCSV)},
		{"table4", "Table IV", body(profile, bench.RunTableIV, func(w io.Writer, res bench.TableIVResult) {
			bench.PrintMemRows(w, "Table IV: Tachyon execution time and memory consumption", res.Rows,
				"736 cores: HLS 748 / MPC 4786 / Open MPI 4885 MB avg; HLS faster (83 vs 88 s)")
			fmt.Fprintf(w, "intra-node copies elided by the shared image: %d\n", res.ElidedCopies)
		}, func(w io.Writer, res bench.TableIVResult) error { return bench.WriteMemRowsCSV(w, res.Rows) })},
		{"micro", "Micro-benchmarks / ablations", func(out io.Writer) (output, error) {
			results, err := bench.RunMicro(profile)
			if err != nil {
				return output{}, err
			}
			bench.PrintMicro(out, results)
			fmt.Fprintln(out)
			hres, err := bench.RunHybridAblation(profile)
			if err != nil {
				return output{}, err
			}
			bench.PrintHybrid(out, hres)
			return output{}, nil
		}},
		{"rma", "RMA ablation: HLS vs MPI-3 shared windows", body(profile, bench.RunRMA, bench.PrintRMA, nil)},
		{"faults", "Fault tolerance: clean vs chaos", body(profile, func(p bench.Profile) (*bench.FaultsResult, error) {
			return bench.RunFaults(p, *seed)
		}, bench.PrintFaults, bench.WriteFaultsCSV)},
		{"sync", "Synchronization: barrier tree + zero-copy collectives", body(profile, bench.RunSync, bench.PrintSync, bench.WriteSyncCSV)},
		{"coll", "Collectives: two-level + frame batching vs flat", body(profile, bench.RunColl, bench.PrintColl, bench.WriteCollCSV)},
		{"recover", "Durable recovery: checkpoint/restart under chaos", body(profile, func(p bench.Profile) (*bench.RecoverResult, error) {
			return bench.RunRecover(p, *seed)
		}, bench.PrintRecover, bench.WriteRecoverCSV)},
		{"halo", "Halo exchange: derived datatypes + pack elision", body(profile, func(p bench.Profile) (*bench.HaloResult, error) {
			return bench.RunHalo(p, *haloWidth)
		}, bench.PrintHalo, bench.WriteHaloCSV)},
	}

	var selected []experiment
	for _, e := range exps {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fs.Usage()
		return fmt.Errorf("%w: unknown experiment %q", errUsage, *exp)
	}

	// Telemetry is always collected (the registry is cheap and the summary
	// is part of the output); -serve additionally exposes it live.
	// 1024 shards cover every machine shape the runners build (≤736 ranks)
	// without aliasing the per-rank breakdowns.
	telemetry := bench.NewTelemetry(1024)
	bench.SetTelemetry(telemetry)
	if *serve != "" {
		addr, shutdown, err := metrics.Serve(*serve, telemetry.Registry)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Fprintf(stdout, "serving /metrics, /metrics.json and /debug/pprof/ on http://%s\n", addr)
	}

	// write stores one output file under -out; without -out it does nothing.
	write := func(name string, fn func(w io.Writer) error) error {
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintln(stdout, "wrote", path)
		}
		return err
	}

	for _, e := range selected {
		context := profile.String() + " profile"
		if e.name == "faults" || e.name == "recover" { // the seed fixes their fault schedule
			context += fmt.Sprintf(", seed %d", *seed)
		}
		fmt.Fprintf(stdout, "== %s (%s) ==\n", e.title, context)
		o, err := e.body(stdout)
		if err != nil {
			return err
		}
		if o.csv != nil {
			if err := write(e.name+".csv", o.csv); err != nil {
				return err
			}
		}
		if o.snap != nil {
			if err := write("BENCH_"+e.name+".json", func(w io.Writer) error { return bench.WriteSnapshot(w, o.snap) }); err != nil {
				return err
			}
			// -compare names one experiment's baseline, so it applies
			// only when that experiment was selected alone.
			if *compare != "" && *exp == e.name {
				if err := compareTo(stdout, *compare, e.name, o.snap); err != nil {
					return err
				}
			}
		}
		fmt.Fprintln(stdout)
	}

	bench.PrintTelemetry(stdout, telemetry)
	if err := write("telemetry.csv", func(w io.Writer) error { return bench.WriteTelemetryCSV(w, telemetry) }); err != nil {
		return err
	}
	if *serve != "" && *linger > 0 {
		fmt.Fprintf(stdout, "lingering %s so the endpoint stays scrapeable...\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// body is the common experiment body: run at profile, print the result
// and hand back its CSV writer (csv may be nil). A result that is a
// bench.Snapshot is a gated experiment's snapshot as well.
func body[R any](profile bench.Profile, run func(bench.Profile) (R, error), print func(io.Writer, R), csv func(io.Writer, R) error) func(io.Writer) (output, error) {
	return func(out io.Writer) (output, error) {
		res, err := run(profile)
		if err != nil {
			return output{}, err
		}
		print(out, res)
		var o output
		if csv != nil {
			o.csv = func(w io.Writer) error { return csv(w, res) }
		}
		o.snap, _ = any(res).(bench.Snapshot)
		return o, nil
	}
}

// compareTo reads the baseline snapshot at path and compares cur to it.
func compareTo(stdout io.Writer, path, name string, cur bench.Snapshot) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := bench.ReadSnapshot(f, cur)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return bench.Compare(stdout, name, base, cur)
}
