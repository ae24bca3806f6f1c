// Winshm: the quickstart's shared table, rebuilt on MPI-3 one-sided
// primitives instead of HLS directives.
//
// The same "physics constants" table exists once per node, but here the
// sharing is explicit: rank 0 of each node allocates the whole table in a
// shared window (MPI_Win_allocate_shared), every task resolves a direct
// pointer to it (MPI_Win_shared_query), and visibility is ordered by
// window fences (MPI_Win_fence). Comparing the two programs side by side
// is the point: the window needs a node communicator, asymmetric
// allocation and explicit epochs where the directives left the original
// program intact.
//
// Run with: go run ./examples/winshm
package main

import (
	"fmt"
	"log"

	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

func main() {
	// A node with 2 sockets x 4 cores; one MPI task per core.
	machine := topology.HarpertownCluster(1)
	world, err := mpi.NewWorld(mpi.Config{
		NumTasks: machine.TotalCores(),
		Machine:  machine,
		Pin:      topology.PinCorePerTask,
	})
	if err != nil {
		log.Fatal(err)
	}

	err = world.Run(func(task *mpi.Task) error {
		// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): the node communicator
		// a shared window must live on.
		nodeComm := mpi.SplitScope(task, topology.Node)

		// Rank 0 of the node allocates the whole table; everyone else
		// passes 0 and shares its slab.
		mine := 0
		if nodeComm.Rank(task) == 0 {
			mine = 1024
		}
		win := rma.WinAllocateShared[float64](task, nodeComm, mine, rma.WithName("table"))

		// One writer fills the table between fences (the single's job in
		// the HLS version). The last entry is left as a tally cell, only
		// ever touched under lock epochs below.
		win.Fence(task)
		if nodeComm.Rank(task) == 0 {
			fmt.Printf("rank %d loads the table (once per node)\n", task.Rank())
			data := win.Local(task)
			for i := range data[:1023] {
				data[i] = float64(i) * 0.5
			}
		}
		win.Fence(task)

		// Every task of the node reads the same copy through a direct
		// pointer — no Get needed on the load path.
		table := rma.WinSharedQuery(task, win, 0)
		sum := 0.0
		for _, v := range table[:1023] {
			sum += v
		}
		fmt.Printf("rank %d (node %d): sum = %.1f\n", task.Rank(), task.Place().Node, sum)

		// One-sided updates also work on the same window: everyone adds a
		// tally into the reserved entry under a lock epoch.
		win.Lock(task, rma.LockShared, 0)
		win.Accumulate(task, []float64{1}, 0, 1023, mpi.OpSum)
		win.Unlock(task, 0)

		mpi.Barrier(task, nil)
		if nodeComm.Rank(task) == 0 {
			var tally [1]float64
			win.Lock(task, rma.LockShared, 0)
			win.Get(task, tally[:], 0, 1023)
			win.Unlock(task, 0)
			fmt.Printf("rank %d: %v tasks checked in via Accumulate\n", task.Rank(), tally[0])
		}
		// Collective, like the allocation: the slab goes back and the
		// runtime forgets the window.
		win.Free(task)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
