// Tracing: record a run's messages and HLS directives and export a
// Chrome-trace file (chrome://tracing or https://ui.perfetto.dev).
//
// One instrumented execution, three artifacts. Messages reach the trace
// recorder through an obs.Tracer on mpi.Config.Trace, which draws each
// one as a send→deliver flow arrow, while the happens-before tracker
// (the §III eligibility analysis) is the world's only Hooks.
// hls.WithObserver feeds every directive to the recorder, the tracker
// and the metrics adapter, and the metrics registry reads the world's
// and the HLS registry's own counters.
//
// Run with: go run ./examples/tracing   (writes trace.json)
package main

import (
	"fmt"
	"log"
	"os"

	"hls/internal/hb"
	"hls/internal/hls"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/topology"
	"hls/internal/trace"
)

func main() {
	const tasks = 8
	machine := topology.HarpertownCluster(1)

	// Bound the recorder: long runs keep the most recent 4096 events and
	// count the rest (reported as otherData.droppedEvents in the file).
	rec := trace.NewRecorder(trace.WithMaxEvents(4096))
	clocks := hb.NewTracker(tasks)
	reg := metrics.New(tasks)
	mpiMetrics := metrics.NewMPIAdapter(reg)
	hlsMetrics := metrics.NewHLSAdapter(reg)

	world, err := mpi.NewWorld(mpi.Config{
		NumTasks: tasks,
		Machine:  machine,
		Pin:      topology.PinCorePerTask,
		Trace:    obs.NewTracer(rec),
		Hooks:    clocks,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The MPI adapter is not a hook: it reads the world's own Stats
	// whenever the registry is scraped, for as long as the watch lasts.
	// The HLS adapter times directive edges as an observer and reads the
	// HLS registry's Stats the same way.
	stopMetrics := mpiMetrics.Watch(world)
	reghls := hls.New(world, hls.WithObserver(&trace.SyncAdapter{R: rec}, clocks, hlsMetrics))
	stopHLSMetrics := hlsMetrics.Watch(reghls)
	table := hls.Declare[float64](reghls, "table", topology.Node, 512)

	err = world.Run(func(task *mpi.Task) error {
		defer rec.Span(task.Rank(), "task", "run")()

		table.Single(task, func(data []float64) {
			for i := range data {
				data[i] = float64(i)
			}
		})
		for step := 0; step < 3; step++ {
			end := rec.Span(task.Rank(), fmt.Sprintf("step %d", step), "compute")
			sum := 0.0
			for _, v := range table.Slice(task) {
				sum += v
			}
			end()
			out := []float64{sum}
			in := make([]float64, 1)
			mpi.Allreduce(task, nil, out, in, mpi.OpSum)
		}
		return nil
	})
	stopMetrics()
	stopHLSMetrics()
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := rec.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote trace.json with %d events, %d dropped (open in chrome://tracing)\n",
		rec.Len(), rec.Dropped())

	// The metrics registry watched the same run; its snapshot is the
	// numeric companion to the timeline.
	for _, c := range reg.Snapshot().Counters {
		if c.Value != 0 {
			fmt.Printf("%-28s %v  %d\n", c.Name, c.Labels, c.Value)
		}
	}
}
