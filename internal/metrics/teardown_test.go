//go:build go1.24

package metrics_test

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"hls/internal/hls"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

// TestFinishedWorldIsCollected: a world that Dup'd a communicator,
// created and freed an RMA window, declared an HLS variable and was
// watched by the MPI adapter is garbage once its Run returned, the
// watch stopped and the caller dropped it. No package-level map may
// keep a finished world (or its HLS registry) alive.
func TestFinishedWorldIsCollected(t *testing.T) {
	reg := metrics.New(4)
	world, registry, sends := runAndDrop(t, metrics.NewMPIAdapter(reg))
	runtime.GC()
	runtime.GC()
	if world.Value() != nil {
		t.Error("the finished *mpi.World is still reachable")
	}
	if registry.Value() != nil {
		t.Error("the finished world's *hls.Registry is still reachable")
	}
	// The stopped watch kept the world's counts, not the world.
	if sends == 0 {
		t.Fatal("the world sent no messages")
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "mpi_sends_total" && c.Value != sends {
			t.Errorf("mpi_sends_total = %d after the world was collected, want %d", c.Value, sends)
		}
	}
}

// runAndDrop builds and runs the world, stops its watch and returns
// only weak references to it, plus its final message count.
func runAndDrop(t *testing.T, a *metrics.MPIAdapter) (weak.Pointer[mpi.World], weak.Pointer[hls.Registry], int64) {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 4, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := a.Watch(w)
	reg := hls.New(w)
	v := hls.Declare[int64](reg, "teardown", topology.Node, 8)
	err = w.Run(func(task *mpi.Task) error {
		c := mpi.Dup(task, nil)
		me, n := task.Rank(), task.Size()
		mpi.Sendrecv(task, c, []int{me}, (me+1)%n, 0, make([]int, 1), (me+n-1)%n, 0)
		win := rma.WinAllocate[int64](task, c, 4)
		win.Fence(task)
		win.Fence(task)
		win.Free(task)
		v.Single(task, func(d []int64) { d[0]++ })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	return weak.Make(w), weak.Make(reg), w.Stats().Messages
}
