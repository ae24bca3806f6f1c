// Command benchmark is the repository's yardstick: eight named closed-loop
// workloads over the mpi / wire / hls stack, four gated end-to-end metrics
// per workload, and a per-layer block that says which layer a change
// moved. Every layer is measured from outside, by timing calls into its
// public functions. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1 -out results.json
//	go run ./benchmark -workload pingpong_wire_64B -trace 1
//	go run ./benchmark -selfcheck
//
// The benchmark driver runs it through run.sh as
// "--workload <name> --seed <n> --seconds <s> --trace <0|1>" and reads the
// last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// segmentsPerRun is the number of segments a metric's median is taken
// over; quickDiv divides every op count under -quick.
const (
	segmentsPerRun = 10
	quickSegments  = 2
	quickDiv       = 200
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool
	selfcheck bool
	out       string
	traceDir  string
}

func (o options) segments() int {
	if o.quick {
		return quickSegments
	}
	return segmentsPerRun
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var printManifest bool
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "timed seconds per workload, split over the segments")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run (per-layer metrics) instead of the end-to-end run")
	fs.BoolVar(&o.quick, "quick", false, "smoke run: fixed op counts at 1/200 scale, 2 segments")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two complete sets and compare them against the bounds")
	fs.StringVar(&o.out, "out", "", "write the full results as JSON to this file")
	fs.StringVar(&o.traceDir, "tracedir", ".bench_build", "directory for trace_<workload>.json span files")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if printManifest {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(buildManifest()); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	ws := workloads
	if o.workload != "all" {
		w := workloadByName(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		ws = []*workload{w}
	}
	if o.seconds <= 0 || o.seconds > 60 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be in (0, 60]")
		return 2
	}

	var err error
	ok := false
	switch {
	case o.selfcheck:
		ok, err = selfcheck(ws, o, stdout, stderr)
	case len(ws) > 1:
		ok, err = measureAll(ws, o, stdout, stderr)
	default:
		ok, err = measure(ws[0], o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload measures one workload in this process: the segments, and in
// a traced run the same segments again with the span recorder on plus the
// floor probes.
func runWorkload(w *workload, o options, durs []uint32) (*result, map[string]float64, error) {
	in := newInputs(o.seed)
	p := plan{warm: w.warm}
	switch {
	case o.quick:
		p.warm, p.ops = max(w.warm/quickDiv, 8), max(w.ops/quickDiv, 8)
	case o.trace:
		// The traced run times a tenth of the ops.
		p.target, p.maxOps = time.Duration(o.seconds/10/segmentsPerRun*float64(time.Second)), maxTracedOps
	default:
		p.target, p.maxOps = time.Duration(o.seconds/segmentsPerRun*float64(time.Second)), maxTimedOps
	}
	if w.prepare != nil {
		if err := w.prepare(in, p.warm); err != nil {
			return nil, nil, fmt.Errorf("%s: reference run: %w", w.name, err)
		}
	}
	r := &result{w: w}
	for s := 0; s < o.segments(); s++ {
		seg, err := runSegment(w, in, p, durs)
		if err != nil {
			return nil, nil, err
		}
		r.segs = append(r.segs, seg)
		if o.trace {
			// Same op count with the span recorder on, back to back.
			tp := p
			tp.ops, tp.traced = seg.ops, true
			if seg, err = runSegment(w, in, tp, durs); err != nil {
				return nil, nil, err
			}
			r.traced = append(r.traced, seg)
		}
	}
	var probes map[string]float64
	if o.trace {
		var err error
		if probes, err = runProbes(in, durs); err != nil {
			return nil, nil, err
		}
	}
	return r, probes, nil
}

func envOf(o options) envInfo {
	return envInfo{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Segments: o.segments(), Traced: o.trace,
		Link: "loopback TCP, not a real link",
	}
}

func printEnv(w io.Writer, env envInfo) {
	fmt.Fprintf(w, "benchmark: %s, nproc %d, GOMAXPROCS %d, seed %d, %g s per workload in %d segments, wire workloads on %s\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Seed, env.Seconds, env.Segments, env.Link)
}

// measure runs one workload in this process, prints every metric by name
// with its unit, writes the span file and the -out document, and ends
// standard output with the driver's JSON line. It reports whether every op
// was answered correctly.
func measure(w *workload, o options, stdout io.Writer) (bool, error) {
	durs := make([]uint32, maxTimedOps) // before any heap baseline
	r, probes, err := runWorkload(w, o, durs)
	if err != nil {
		return false, err
	}
	env := envOf(o)
	printEnv(stdout, env)

	values := r.endToEndValues()
	gated, shown := endToEnd, append(append([]metricDef(nil), endToEnd...), perLayer...)
	if o.trace {
		values = merge(r.countValues(), r.spanValues(), r.stackValues(probes), probes)
		gated, shown = perLayer, perLayer
		if err := writeTrace(o.traceDir, r); err != nil {
			return false, err
		}
	} else {
		merge(values, r.countValues())
	}
	all := withUnits(values, shown)
	printResult(stdout, r, all, shown)

	attempted, failed, failures := r.attempted()
	line := driverLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: withUnits(values, gated)}
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false, fmt.Errorf("%s: metric %s is %v", w.name, name, m.Value)
		}
	}
	if o.out != "" {
		wr := workloadReport{
			Name: w.name, Ranks: w.ranks, Attempted: attempted, Failed: failed, Failures: failures,
			MBPerS:  medianOf(r.segs, (*segment).opsPerS) * float64(w.payload) / 1e6,
			Metrics: all,
		}
		for _, s := range r.segs {
			wr.Segments = append(wr.Segments, segmentReport{s.ops, s.p50us, s.opsPerS(), s.setup.Seconds(), s.liveHeapMB})
		}
		if err := writeJSONFile(o.out, report{Env: env, Workloads: []workloadReport{wr}}); err != nil {
			return false, err
		}
	}
	return line.Correct, printLine(stdout, line)
}

func printLine(w io.Writer, line driverLine) error {
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n%s\n", b)
	return err
}

// runChildren measures each workload in a process of its own, the unit the
// benchmark driver measures, and returns their reports. One process for
// all of them would not do: every finished world stays reachable through
// package-level maps of hls and mpi (32 MB per hls_mesh_update world), and
// pingpong_wire_256KiB slows down twentyfold as that dead heap grows.
// show receives each child's printed metrics.
func runChildren(ws []*workload, o options, show, stderr io.Writer) ([]workloadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	var reports []workloadReport
	for _, w := range ws {
		out := filepath.Join(o.traceDir, "result_"+w.name+".json")
		args := []string{
			"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", trace, "-tracedir", o.traceDir, "-out", out,
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(exe, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, stderr
		runErr := cmd.Run() // waits for the child; an op failure exits 1 but still reports
		text := bytes.TrimRight(stdout.Bytes(), "\n")
		if i := bytes.LastIndexByte(text, '\n'); i >= 0 {
			text = text[:i] // drop the child's driver line
		}
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			text = text[i+1:] // and its environment line
		}
		fmt.Fprintf(show, "%s\n", bytes.TrimRight(text, "\n"))
		raw, err := os.ReadFile(out)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s: child run left no report", w.name), runErr, err)
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil || len(rep.Workloads) != 1 {
			return nil, fmt.Errorf("%s: unreadable child report %s: %v", w.name, out, err)
		}
		reports = append(reports, rep.Workloads[0])
	}
	return reports, nil
}

// measureAll is measure for every workload: one child process each, their
// metrics printed in order, one combined -out document and one combined
// driver line whose metric names carry the workload.
func measureAll(ws []*workload, o options, stdout, stderr io.Writer) (bool, error) {
	env := envOf(o)
	printEnv(stdout, env)
	reports, err := runChildren(ws, o, stdout, stderr)
	if err != nil {
		return false, err
	}
	gated := endToEnd
	if o.trace {
		gated = perLayer
	}
	line := driverLine{Metrics: map[string]metric{}}
	for _, wr := range reports {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, d := range gated {
			line.Metrics[wr.Name+"."+d.Name] = wr.Metrics[d.Name]
		}
	}
	line.Correct = line.Failed == 0
	if o.out != "" {
		if err := writeJSONFile(o.out, report{Env: env, Workloads: reports}); err != nil {
			return false, err
		}
	}
	return line.Correct, printLine(stdout, line)
}

// writeTrace writes the spans of the workload's last traced segment.
func writeTrace(dir string, r *result) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+r.w.name+".json"))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	return writeSpans(f, r.w.name, r.traced[len(r.traced)-1].spans)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfcheck runs two complete sets of the same code and fails if they
// disagree: any end-to-end metric by more than its bound, or any exact
// count at all. It prints the observed spread of every metric.
func selfcheck(ws []*workload, o options, stdout, stderr io.Writer) (bool, error) {
	o.trace = false
	var sets [2][]workloadReport
	for i := range sets {
		fmt.Fprintf(stdout, "selfcheck: set %d of 2\n", i+1)
		var err error
		if sets[i], err = runChildren(ws, o, io.Discard, stderr); err != nil {
			return false, err
		}
	}
	ok := true
	fmt.Fprintf(stdout, "\n%-28s %-14s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "spread", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, wr := range []workloadReport{a, b} {
			if wr.Failed > 0 {
				ok = false
				fmt.Fprintf(stdout, "%-28s %d ops failed: %v\n", wr.Name, wr.Failed, wr.Failures)
			}
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			spread := math.Abs(vb-va) / va
			verdict := ""
			if spread > d.Bound {
				ok, verdict = false, "  OUT OF BOUND"
			}
			fmt.Fprintf(stdout, "%-28s %-14s %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
				a.Name, d.Name, va, vb, 100*spread, 100*d.Bound, verdict)
		}
		for _, name := range exactCounts {
			if va, vb := a.Metrics[name].Value, b.Metrics[name].Value; va != vb {
				ok = false
				fmt.Fprintf(stdout, "%-28s %-28s %v != %v  COUNT DIFFERS\n", a.Name, name, va, vb)
			}
		}
	}
	if ok {
		fmt.Fprintln(stdout, "\nselfcheck: PASS (every end-to-end metric within its bound, every exact count identical)")
	} else {
		fmt.Fprintln(stdout, "\nselfcheck: FAIL")
	}
	return ok, nil
}
