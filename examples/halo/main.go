// 3D halo exchange with derived datatypes — the workload MPI's
// MPI_Type_create_subarray exists for, on HLS's shared address space.
//
// Eight MPI tasks own a 2x2x2 cube decomposition of a 3D grid. Each task
// holds an (N+2H)^3 block: an N^3 interior plus H ghost layers on every
// side. Per iteration a task trades boundary slabs with its neighbors
// across all 26 directions — faces, edges and corners — then relaxes its
// interior against the fresh ghosts.
//
// Every slab is a strided TypeSubarray selection of the same block;
// nothing is ever staged into a send buffer by the application. Because
// the eight tasks share one address space, the runtime moves each
// same-process slab strided-to-strided with no intermediate packed copy
// (pack elision); run with -packed to force the classic pack/unpack
// datapath and compare.
//
// Run with: go run ./examples/halo [-n 32] [-width 2] [-iters 20] [-packed]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"hls/internal/mpi"
)

func main() {
	n := flag.Int("n", 32, "interior cells per dimension, per task")
	width := flag.Int("width", 2, "halo (ghost layer) width")
	iters := flag.Int("iters", 20, "exchange+relax iterations")
	packed := flag.Bool("packed", false, "force the pack/unpack datapath (disable pack elision)")
	flag.Parse()

	const perDim = 2
	const ranks = perDim * perDim * perDim
	N, H := *n, *width
	M := N + 2*H

	world, err := mpi.NewWorld(mpi.Config{NumTasks: ranks, ForcePack: *packed})
	if err != nil {
		log.Fatal(err)
	}

	// The 26 directions with their send/receive selections, committed
	// once and shared read-only by every task: for direction d a task
	// sends its d-side interior slab to the neighbor at +d and receives
	// the -d neighbor's slab into its -d ghost region.
	type dir struct {
		d          [3]int
		tag, elems int
		send, recv *mpi.Datatype
	}
	var dirs []dir
	sizes := []int{M, M, M}
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				d := [3]int{dx, dy, dz}
				sub, sstart, rstart := make([]int, 3), make([]int, 3), make([]int, 3)
				elems := 1
				for i := 0; i < 3; i++ {
					switch d[i] {
					case 0:
						sub[i], sstart[i], rstart[i] = N, H, H
					case 1:
						sub[i], sstart[i], rstart[i] = H, N, 0
					case -1:
						sub[i], sstart[i], rstart[i] = H, H, H+N
					}
					elems *= sub[i]
				}
				dirs = append(dirs, dir{
					d: d, tag: len(dirs), elems: elems,
					send: mpi.TypeSubarray(sizes, sub, sstart).Commit(),
					recv: mpi.TypeSubarray(sizes, sub, rstart).Commit(),
				})
			}
		}
	}

	coord := func(rank int) [3]int {
		return [3]int{rank % perDim, rank / perDim % perDim, rank / (perDim * perDim)}
	}
	rankOf := func(c [3]int) (int, bool) {
		for _, v := range c {
			if v < 0 || v >= perDim {
				return 0, false
			}
		}
		return (c[2]*perDim+c[1])*perDim + c[0], true
	}

	start := time.Now()
	err = world.Run(func(task *mpi.Task) error {
		me := task.Rank()
		c := coord(me)
		grid := make([]float64, M*M*M)
		for i := range grid {
			grid[i] = float64(me+1) * float64(i%97+1)
		}

		for it := 0; it < *iters; it++ {
			// The shift exchange: blocking sendrecv per direction is
			// deadlock-free on the open (non-periodic) cube.
			for _, dr := range dirs {
				sendTo, sOK := rankOf([3]int{c[0] + dr.d[0], c[1] + dr.d[1], c[2] + dr.d[2]})
				recvFrom, rOK := rankOf([3]int{c[0] - dr.d[0], c[1] - dr.d[1], c[2] - dr.d[2]})
				switch {
				case sOK && rOK:
					mpi.SendrecvTyped(task, nil, grid, dr.send, sendTo, dr.tag, grid, dr.recv, recvFrom, dr.tag)
				case sOK:
					mpi.SendTyped(task, nil, grid, dr.send, sendTo, dr.tag)
				case rOK:
					mpi.RecvTyped(task, nil, grid, dr.recv, recvFrom, dr.tag)
				}
			}
			// Jacobi-flavored relaxation over the interior.
			idx := func(x, y, z int) int { return (z*M+y)*M + x }
			for z := H; z < H+N; z++ {
				for y := H; y < H+N; y++ {
					for x := H; x < H+N; x++ {
						i := idx(x, y, z)
						grid[i] = 0.5*grid[i] + (grid[i-1]+grid[i+1]+
							grid[i-M]+grid[i+M]+
							grid[i-M*M]+grid[i+M*M])/12
					}
				}
			}
		}

		// One representative value so runs are comparable across flags.
		if me == 0 {
			center := (H + N/2) * (M*M + M + 1)
			fmt.Printf("rank 0 center cell after %d iters: %.6f\n", *iters, grid[center])
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	st := world.Stats()
	path := "zero-copy (pack elision)"
	if *packed {
		path = "forced pack/unpack"
	}
	fmt.Printf("%d tasks, %d^3 interior, halo %d, %d iters in %v [%s]\n",
		ranks, N, H, *iters, time.Since(start).Round(time.Millisecond), path)
	fmt.Printf("pack elisions: %d, pooled buffers outstanding: %d\n",
		st.PackElisions, st.EagerPoolOutstanding)
}
