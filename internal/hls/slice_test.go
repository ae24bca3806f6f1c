package hls

import (
	"math/rand"
	"testing"
	"time"

	"hls/internal/mpi"
	"hls/internal/topology"
)

var sliceSink []float64

// TestSliceHitZeroAllocs: once a task has resolved its copy, Slice is a
// cache hit and allocates nothing.
func TestSliceHitZeroAllocs(t *testing.T) {
	runOn(t, topology.NehalemEX4(), 1, nil, func(r *Registry, task *mpi.Task) error {
		v := Declare[float64](r, "hit", topology.Node, 8)
		v.Slice(task)
		if a := testing.AllocsPerRun(1000, func() { sliceSink = v.Slice(task) }); a != 0 {
			t.Errorf("warm Slice: %v allocs/run, want 0", a)
		}
		return nil
	})
}

// BenchmarkSliceInLoop times the shape of a directive-lowered access:
// each op is 20000 seeded random lookups per task into a 4 Mi-entry
// node-scope table shared by 8 tasks. PerLookup resolves the table with
// Slice at every lookup, as hls_get_addr is called at every access;
// Hoisted resolves it once per op. The gap between the two is the cost
// of the call, not of the table's memory.
func BenchmarkSliceInLoop(b *testing.B) {
	const tasks, entries, lookups = 8, 4 << 20, 20000
	for _, bc := range []struct {
		name    string
		hoisted bool
	}{{"PerLookup", false}, {"Hoisted", true}} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := topology.New(topology.Spec{
				Name: "slice-bench", Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 4, ThreadsPerCore: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			w, err := mpi.NewWorld(mpi.Config{NumTasks: tasks, Machine: m, Timeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			v := Declare(New(w), "table", topology.Node, entries, WithInit(func(_ int, d []float64) {
				for i := range d {
					d[i] = float64(i)
				}
			}))
			idx := make([][]uint32, tasks)
			for rank := range idx {
				rng := rand.New(rand.NewSource(int64(rank) + 1))
				idx[rank] = make([]uint32, lookups)
				for j := range idx[rank] {
					idx[rank][j] = uint32(rng.Intn(entries))
				}
			}
			sums := make([]float64, tasks) // keeps the lookups live
			if err := w.Run(func(task *mpi.Task) error {
				ix := idx[task.Rank()]
				v.Slice(task) // allocate and initialize the table untimed
				mpi.Barrier(task, nil)
				if task.Rank() == 0 {
					b.ResetTimer()
				}
				mpi.Barrier(task, nil)
				sum := 0.0
				for i := 0; i < b.N; i++ {
					if bc.hoisted {
						data := v.Slice(task)
						for _, k := range ix {
							sum += data[k]
						}
					} else {
						for _, k := range ix {
							sum += v.Slice(task)[k]
						}
					}
				}
				sums[task.Rank()] = sum
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
