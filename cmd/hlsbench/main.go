// Command hlsbench regenerates the paper's evaluation (§V): Table I,
// Figure 3, Tables II-IV and the micro/ablation measurements.
//
// Usage:
//
//	hlsbench -exp all            # quick profile, every experiment
//	hlsbench -exp table1 -full   # paper-shaped sweep for one experiment
//
// Shapes — who wins, by what factor, where the crossovers fall — are the
// reproduction target; absolute numbers come from the scaled simulators
// (see DESIGN.md §6 and EXPERIMENTS.md).
package main

import (
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
	exp := flag.String("exp", "all", "experiment: table1|fig3|table2|table3|table4|micro|rma|faults|sync|coll|recover|halo|all")
	full := flag.Bool("full", false, "run the paper-shaped sweep instead of the quick profile")
	seed := flag.Int64("seed", 1, "chaos seed for -exp faults and -exp recover (fixes the whole fault schedule)")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs into this directory")
	syncOut := flag.String("out", "BENCH_sync.json", "where -exp sync writes its JSON snapshot (empty to skip)")
	collOut := flag.String("collout", "BENCH_coll.json", "where -exp coll writes its JSON snapshot (empty to skip)")
	recoverOut := flag.String("recoverout", "BENCH_recover.json", "where -exp recover writes its JSON snapshot (empty to skip)")
	haloOut := flag.String("haloout", "BENCH_halo.json", "where -exp halo writes its JSON snapshot (empty to skip)")
	haloWidth := flag.Int("halo-width", 0, "pin -exp halo to one ghost-layer width (0 sweeps the profile's ladder)")
	compare := flag.String("compare", "", "baseline JSON snapshot to compare against, for -exp sync, coll, recover or halo run alone (exit 1 on check regressions)")
	serve := flag.String("serve", "", "serve live /metrics, /metrics.json and /debug/pprof/ on this address (e.g. :8080 or :0) while experiments run")
	linger := flag.Duration("linger", 0, "keep the -serve endpoint up this long after the experiments finish")
	flag.Parse()

	// Telemetry is always collected (the registry is cheap and the summary
	// is part of the output); -serve additionally exposes it live.
	// 1024 shards cover every machine shape the runners build (≤736 ranks)
	// without aliasing the per-rank breakdowns.
	telemetry := bench.NewTelemetry(1024)
	bench.SetTelemetry(telemetry)
	if *serve != "" {
		addr, shutdown, err := metrics.Serve(*serve, telemetry.Registry)
		exitOn(err)
		defer shutdown()
		fmt.Printf("serving /metrics, /metrics.json and /debug/pprof/ on http://%s\n", addr)
	}

	writeCSV := func(name string, fn func(w io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			exitOn(err)
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		exitOn(err)
		defer f.Close()
		exitOn(fn(f))
		fmt.Println("wrote", path)
	}

	profile := bench.Quick
	if *full {
		profile = bench.Full
	}
	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		fmt.Printf("== Table I (%s profile) ==\n", profile)
		cells, err := bench.RunTableI(profile)
		exitOn(err)
		bench.PrintTableI(os.Stdout, cells)
		writeCSV("table1.csv", func(w io.Writer) error { return bench.WriteTableICSV(w, cells) })
		fmt.Println()
	}
	if want("fig3") {
		ran = true
		fmt.Printf("== Figure 3 (%s profile) ==\n", profile)
		for _, update := range []bool{false, true} {
			pts, err := bench.RunFigure3(profile, update)
			exitOn(err)
			bench.PrintFigure3(os.Stdout, pts, update)
			name := "fig3_noupdate.csv"
			if update {
				name = "fig3_update.csv"
			}
			upd := update
			writeCSV(name, func(w io.Writer) error { return bench.WriteFigure3CSV(w, pts, upd) })
			fmt.Println()
		}
	}
	if want("table2") {
		ran = true
		fmt.Printf("== Table II (%s profile) ==\n", profile)
		rows, err := bench.RunTableII(profile)
		exitOn(err)
		bench.PrintMemRows(os.Stdout, "Table II: EulerMHD execution time and memory consumption", rows,
			"256 cores: HLS 651 / MPC 1570 / Open MPI 1715 MB avg; times equal")
		writeCSV("table2.csv", func(w io.Writer) error { return bench.WriteMemRowsCSV(w, rows) })
		fmt.Println()
	}
	if want("table3") {
		ran = true
		fmt.Printf("== Table III (%s profile) ==\n", profile)
		rows, err := bench.RunTableIII(profile)
		exitOn(err)
		bench.PrintMemRows(os.Stdout, "Table III: Gadget-2 execution time and memory consumption", rows,
			"256 cores: HLS 703 / MPC 938 / Open MPI 1731 MB avg; times equal")
		writeCSV("table3.csv", func(w io.Writer) error { return bench.WriteMemRowsCSV(w, rows) })
		fmt.Println()
	}
	if want("table4") {
		ran = true
		fmt.Printf("== Table IV (%s profile) ==\n", profile)
		res, err := bench.RunTableIV(profile)
		exitOn(err)
		bench.PrintMemRows(os.Stdout, "Table IV: Tachyon execution time and memory consumption", res.Rows,
			"736 cores: HLS 748 / MPC 4786 / Open MPI 4885 MB avg; HLS faster (83 vs 88 s)")
		writeCSV("table4.csv", func(w io.Writer) error { return bench.WriteMemRowsCSV(w, res.Rows) })
		fmt.Printf("intra-node copies elided by the shared image: %d\n\n", res.ElidedCopies)
	}
	if want("micro") {
		ran = true
		fmt.Printf("== Micro-benchmarks / ablations (%s profile) ==\n", profile)
		results, err := bench.RunMicro(profile)
		exitOn(err)
		bench.PrintMicro(os.Stdout, results)
		fmt.Println()
		hres, err := bench.RunHybridAblation(profile)
		exitOn(err)
		bench.PrintHybrid(os.Stdout, hres)
		fmt.Println()
	}
	if want("rma") {
		ran = true
		fmt.Printf("== RMA ablation: HLS vs MPI-3 shared windows (%s profile) ==\n", profile)
		res, err := bench.RunRMA(profile)
		exitOn(err)
		bench.PrintRMA(os.Stdout, res)
		fmt.Println()
	}
	if want("faults") {
		ran = true
		fmt.Printf("== Fault tolerance: clean vs chaos (%s profile, seed %d) ==\n", profile, *seed)
		res, err := bench.RunFaults(profile, *seed)
		exitOn(err)
		bench.PrintFaults(os.Stdout, res)
		writeCSV("faults.csv", func(w io.Writer) error { return bench.WriteFaultsCSV(w, res) })
		fmt.Println()
	}
	if want("sync") {
		ran = true
		fmt.Printf("== Synchronization: barrier tree + zero-copy collectives (%s profile) ==\n", profile)
		res, err := bench.RunSync(profile)
		exitOn(err)
		bench.PrintSync(os.Stdout, res)
		writeCSV("sync.csv", func(w io.Writer) error { return bench.WriteSyncCSV(w, res) })
		if *syncOut != "" {
			f, err := os.Create(*syncOut)
			exitOn(err)
			err = bench.WriteSyncJSON(f, res)
			f.Close()
			exitOn(err)
			fmt.Println("wrote", *syncOut)
		}
		// -compare is per-experiment: it names a sync baseline only when
		// the sync experiment was selected explicitly.
		if *compare != "" && *exp == "sync" {
			f, err := os.Open(*compare)
			exitOn(err)
			base, err := bench.ReadSyncJSON(f)
			f.Close()
			exitOn(err)
			exitOn(bench.CompareSync(os.Stdout, base, res))
		}
		fmt.Println()
	}
	if want("coll") {
		ran = true
		fmt.Printf("== Collectives: two-level + frame batching vs flat (%s profile) ==\n", profile)
		res, err := bench.RunColl(profile)
		exitOn(err)
		bench.PrintColl(os.Stdout, res)
		writeCSV("coll.csv", func(w io.Writer) error { return bench.WriteCollCSV(w, res) })
		if *collOut != "" {
			f, err := os.Create(*collOut)
			exitOn(err)
			err = bench.WriteCollJSON(f, res)
			f.Close()
			exitOn(err)
			fmt.Println("wrote", *collOut)
		}
		if *compare != "" && *exp == "coll" {
			f, err := os.Open(*compare)
			exitOn(err)
			base, err := bench.ReadCollJSON(f)
			f.Close()
			exitOn(err)
			exitOn(bench.CompareColl(os.Stdout, base, res))
		}
		fmt.Println()
	}
	if want("recover") {
		ran = true
		fmt.Printf("== Durable recovery: checkpoint/restart under chaos (%s profile, seed %d) ==\n", profile, *seed)
		res, err := bench.RunRecover(profile, *seed)
		exitOn(err)
		bench.PrintRecover(os.Stdout, res)
		writeCSV("recover.csv", func(w io.Writer) error { return bench.WriteRecoverCSV(w, res) })
		if *recoverOut != "" {
			f, err := os.Create(*recoverOut)
			exitOn(err)
			err = bench.WriteRecoverJSON(f, res)
			f.Close()
			exitOn(err)
			fmt.Println("wrote", *recoverOut)
		}
		if *compare != "" && *exp == "recover" {
			f, err := os.Open(*compare)
			exitOn(err)
			base, err := bench.ReadRecoverJSON(f)
			f.Close()
			exitOn(err)
			exitOn(bench.CompareRecover(os.Stdout, base, res))
		}
		fmt.Println()
	}
	if want("halo") {
		ran = true
		fmt.Printf("== Halo exchange: derived datatypes + pack elision (%s profile) ==\n", profile)
		res, err := bench.RunHalo(profile, *haloWidth)
		exitOn(err)
		bench.PrintHalo(os.Stdout, res)
		writeCSV("halo.csv", func(w io.Writer) error { return bench.WriteHaloCSV(w, res) })
		if *haloOut != "" {
			f, err := os.Create(*haloOut)
			exitOn(err)
			err = bench.WriteHaloJSON(f, res)
			f.Close()
			exitOn(err)
			fmt.Println("wrote", *haloOut)
		}
		if *compare != "" && *exp == "halo" {
			f, err := os.Open(*compare)
			exitOn(err)
			base, err := bench.ReadHaloJSON(f)
			f.Close()
			exitOn(err)
			exitOn(bench.CompareHalo(os.Stdout, base, res))
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	bench.PrintTelemetry(os.Stdout, telemetry)
	writeCSV("telemetry.csv", func(w io.Writer) error { return bench.WriteTelemetryCSV(w, telemetry) })
	if *serve != "" && *linger > 0 {
		fmt.Printf("lingering %s so the endpoint stays scrapeable...\n", *linger)
		time.Sleep(*linger)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, strings.TrimSpace(err.Error()))
		os.Exit(1)
	}
}
