package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/topology"
	"hls/internal/trace"
)

// workload is one named set of inputs and the deployment they run on.
// Every workload is a closed loop: each rank issues its next op only
// when its previous one completed, which is what MPI callers do, and the
// client count is the rank count.
type workload struct {
	name  string
	why   string // one line, copied into BENCHMARK.json
	ranks int    // fixed: the smallest count that makes the algorithm non-degenerate
	// ops is the timed op count of one segment when a run is sized by
	// count (-quick divides it) rather than by time (-seconds): about 1 s
	// on the 2-core box the benchmark was written on.
	ops int
	// warm is the fixed warm-up op count of a segment: enough for hot pools
	// and connections, about 50 ms. It is part of setup_s, so it never
	// scales with -seconds.
	warm int
	// payload is the bytes of user data one op moves, for MB/s.
	payload int
	// prepare computes the reference answers the segments are checked
	// against, once per run and outside every timing.
	prepare func(in *inputs, warm int) error
	// build constructs the deployment: topology, listeners, transports,
	// worlds, HLS declarations.
	build func(in *inputs) (*cluster, error)
	// rank returns one rank's op body. It runs on the rank's goroutine
	// before the warm-up, so buffers and first touches land in setup_s.
	rank func(c *cluster, tk *mpi.Task, in *inputs, tr *rankTrace) rankBody
}

// rankBody is what one rank does in a segment. op(i) runs op number i
// (0-based, warm-up included) and checks its answer; warmDone and done
// run the checks that close the warm-up and the segment.
type rankBody struct {
	op       func(i int)
	warmDone func()
	done     func()
}

const (
	smallBytes = 64
	largeBytes = 256 << 10
	bcastWords = 128 // 1 KiB of int64

	haloN     = 32 // interior cells per dimension
	haloH     = 1  // halo width
	haloM     = haloN + 2*haloH
	haloRanks = 8
	// haloSweeps is the number of exchange+relax sweeps behind the digest
	// that must match the ForcePack run bit for bit.
	haloSweeps = 4

	meshTasks   = 8
	meshEntries = 4 << 20 // float64 entries: 32 MiB, one copy per node
	meshCells   = 20000   // cell updates per task per op
	meshWindow  = 4096    // table entries the single block rewrites per op

	// collBatchWindow is the -exp coll value: the flush window that turns
	// a blocking collective into a timer wait.
	collBatchWindow = 100 * time.Microsecond
)

// workloads, in the order later issues number them (1-8).
var workloads = []*workload{
	{
		name:  "pingpong_inproc_64B",
		why:   "2 ranks, one world, 64 B eager round trip: mpi match/pool/wake is all the cost; wire, datatypes and hls are bypassed",
		ranks: 2, ops: 1000000, warm: 50000, payload: 2 * smallBytes,
		build: func(*inputs) (*cluster, error) { return newInproc(mpi.Config{NumTasks: 2}) },
		rank:  pingpongRank(smallBytes),
	},
	{
		name:  "pingpong_inproc_64B_traced",
		why:   "workload 1 with Config.Trace set to an obs tracer: the same layer with its hooks on, where tracing cost must show",
		ranks: 2, ops: 800000, warm: 40000, payload: 2 * smallBytes,
		build: func(*inputs) (*cluster, error) {
			tracer := obs.NewTracer(trace.NewRecorder(trace.WithMaxEvents(1 << 16)))
			c, err := newInproc(mpi.Config{NumTasks: 2, Trace: tracer})
			if err == nil {
				c.tracer = tracer
			}
			return c, err
		},
		rank: pingpongRank(smallBytes),
	},
	{
		name:  "pingpong_wire_64B",
		why:   "the 2 ranks in two worlds over loopback TCP, batching off: per-frame cost of wire and mpi/wire.go dominates",
		ranks: 2, ops: 70000, warm: 4000, payload: 2 * smallBytes,
		build: func(*inputs) (*cluster, error) { return newWirePair(1, mpi.Config{}, 0) },
		rank:  pingpongRank(smallBytes),
	},
	{
		name:  "pingpong_wire_256KiB",
		why:   "same deployment, 256 KiB rendezvous (RTS/CTS/Data): wire moves bytes, not frames, so copies and flushes show, per-frame wins do not",
		ranks: 2, ops: 5000, warm: 300, payload: 2 * largeBytes,
		build: func(*inputs) (*cluster, error) { return newWirePair(1, mpi.Config{}, 0) },
		rank:  pingpongRank(largeBytes),
	},
	{
		name:  "coll_wire_2x2",
		why:   "2 nodes x 2 ranks, cyclic pinning, Barrier + 8 B Allreduce + 1 KiB Bcast: two-level collectives and the leaders-only path over wire",
		ranks: 4, ops: 20000, warm: 1000, payload: 8 + 8*bcastWords,
		build: func(*inputs) (*cluster, error) {
			return newWirePair(2, mpi.Config{Pin: topology.PinCyclicNodes, Collectives: mpi.CollAuto}, 0)
		},
		rank: collRank,
	},
	{
		name:  "coll_wire_2x2_batched",
		why:   "workload 5 with BatchWindow = 100us: same layers with the batching policy on, today bound by the flush timer",
		ranks: 4, ops: 420, warm: 64, payload: 8 + 8*bcastWords,
		build: func(*inputs) (*cluster, error) {
			return newWirePair(2, mpi.Config{Pin: topology.PinCyclicNodes, Collectives: mpi.CollAuto}, collBatchWindow)
		},
		rank: collRank,
	},
	{
		name:  "halo3d_inproc_n32",
		why:   "8 ranks, one world, periodic 2x2x2 cube, N=32: 26 SendrecvTyped subarray exchanges + Barrier; mpi datatypes and pack elision carry it",
		ranks: haloRanks, ops: 2000, warm: 100, payload: haloRanks * haloBytesPerRank,
		prepare: func(in *inputs, _ int) error { return haloReference(in) },
		build:   func(*inputs) (*cluster, error) { return newInproc(mpi.Config{NumTasks: haloRanks}) },
		rank:    haloRank,
	},
	{
		name:  "hls_mesh_update",
		why:   "8 tasks sharing one node-scope 32 MiB HLS table: 20000 Slice lookups each, then Single rewrites 4096 entries; hls and spin carry it",
		ranks: meshTasks, ops: 700, warm: 64, payload: meshTasks * meshCells * 8,
		prepare: meshReference,
		build:   meshBuild,
		rank:    meshRank,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything a run's seed decides: payload bytes, the Bcast
// root rotation, the halo fill and the HLS table access stream. The
// program under test sees only these values, never the seed.
type inputs struct {
	small, large []byte
	bcast        []int64
	rootBase     int
	sumBase      int64
	haloFill     float64
	meshBase     [meshTasks][]uint32 // per task, per cell: base table index
	meshStride   uint32              // per-op rotation of the access stream

	haloRef [haloRanks]uint64  // digests of the ForcePack run
	meshRef [meshTasks]float64 // serial cell checksums after the warm-up
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		small:      make([]byte, smallBytes),
		large:      make([]byte, largeBytes),
		bcast:      make([]int64, bcastWords),
		rootBase:   rng.Intn(4),
		sumBase:    int64(rng.Intn(1 << 20)),
		haloFill:   1 + float64(rng.Intn(1000))/1000,
		meshStride: uint32(rng.Intn(meshEntries))*2 + 1,
	}
	rng.Read(in.small)
	rng.Read(in.large)
	for i := range in.bcast {
		in.bcast[i] = rng.Int63()
	}
	for t := range in.meshBase {
		in.meshBase[t] = make([]uint32, meshCells)
		for j := range in.meshBase[t] {
			in.meshBase[t][j] = uint32(rng.Intn(meshEntries))
		}
	}
	return in
}

// ---- ping-pong (workloads 1-4) ----

// pingpongRank returns the rank body of an n-byte ping-pong between
// world ranks 0 and 1. Every payload carries its op number at both ends;
// rank 0 checks them on return, and the whole payload during warm-up.
func pingpongRank(n int) func(*cluster, *mpi.Task, *inputs, *rankTrace) rankBody {
	return func(c *cluster, tk *mpi.Task, in *inputs, tr *rankTrace) rankBody {
		src := in.small
		if n == largeBytes {
			src = in.large
		}
		warm := true
		if tk.Rank() == 1 {
			buf := make([]byte, n)
			return rankBody{op: func(int) {
				r := tr.begin(spRecv)
				mpi.Recv(tk, nil, buf, 0, 0)
				tr.end(r)
				s := tr.begin(spSend)
				mpi.Send(tk, nil, buf, 0, 0)
				tr.end(s)
			}}
		}
		sbuf := append([]byte(nil), src...)
		rbuf := make([]byte, n)
		return rankBody{
			op: func(i int) {
				binary.LittleEndian.PutUint64(sbuf, uint64(i))
				binary.LittleEndian.PutUint64(sbuf[n-8:], ^uint64(i))
				s := tr.begin(spSend)
				mpi.Send(tk, nil, sbuf, 1, 0)
				tr.end(s)
				r := tr.begin(spRecv)
				mpi.Recv(tk, nil, rbuf, 1, 0)
				tr.end(r)
				if binary.LittleEndian.Uint64(rbuf) != uint64(i) || binary.LittleEndian.Uint64(rbuf[n-8:]) != ^uint64(i) {
					c.failf("op %d: echoed payload carries the wrong sequence number", i)
				} else if warm && !bytes.Equal(sbuf, rbuf) {
					c.failf("op %d: echoed payload differs from what was sent", i)
				}
			},
			warmDone: func() { warm = false },
		}
	}
}

// ---- collectives (workloads 5-6) ----

// collRank: one op is Barrier, an 8 B Allreduce(OpSum) checked against
// its closed form, and a 1 KiB Bcast from a rotating root whose first
// and last words carry the op number.
func collRank(c *cluster, tk *mpi.Task, in *inputs, tr *rankTrace) rankBody {
	n, r := tk.Size(), tk.Rank()
	// Wire-up: ranks 0 and 1 sit on different nodes (cyclic pinning), and
	// one round trip started from node 0 alone opens the connection. Left
	// to the first Barrier, both leaders would dial at once and the
	// transport counts the losing connection of that race as a reconnect.
	var hello [1]byte
	switch r {
	case 0:
		mpi.Send(tk, nil, hello[:], 1, 0)
		mpi.Recv(tk, nil, hello[:], 1, 0)
	case 1:
		mpi.Recv(tk, nil, hello[:], 0, 0)
		mpi.Send(tk, nil, hello[:], 0, 0)
	}
	var send, recv [1]int64
	buf := make([]int64, bcastWords)
	warm := true
	return rankBody{
		op: func(i int) {
			b := tr.begin(spBarrier)
			mpi.Barrier(tk, nil)
			tr.end(b)

			k := int64(i) + in.sumBase
			send[0], recv[0] = int64(r+1)*k, 0
			a := tr.begin(spAllreduce)
			mpi.Allreduce(tk, nil, send[:], recv[:], mpi.OpSum)
			tr.end(a)
			if want := k * int64(n*(n+1)/2); recv[0] != want {
				c.failf("op %d rank %d: allreduce = %d, want %d", i, r, recv[0], want)
			}

			root := (i + in.rootBase) % n
			if r == root {
				copy(buf, in.bcast)
				buf[0], buf[bcastWords-1] = int64(i), ^int64(i)
			} else if warm {
				clear(buf)
			} else {
				buf[0], buf[bcastWords-1] = -1, -1
			}
			bc := tr.begin(spBcast)
			mpi.Bcast(tk, nil, buf, root)
			tr.end(bc)
			if buf[0] != int64(i) || buf[bcastWords-1] != ^int64(i) {
				c.failf("op %d rank %d: bcast from %d carries the wrong op number", i, r, root)
			} else if warm && !slices.Equal(buf[1:bcastWords-1], in.bcast[1:bcastWords-1]) {
				c.failf("op %d rank %d: bcast payload differs from the root's", i, r)
			}
		},
		warmDone: func() { warm = false },
	}
}

// ---- 3D halo exchange (workload 7) ----

// haloDir is one of the 26 exchange directions: the boundary slab of the
// interior sent toward d and the ghost slab on the -d side it lands in.
type haloDir struct {
	d          [3]int
	send, recv *mpi.Datatype
	elems      int
}

// haloDirs are committed once and shared read-only by every rank.
var haloDirs = func() []haloDir {
	sizes := []int{haloM, haloM, haloM}
	var dirs []haloDir
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				d := [3]int{dx, dy, dz}
				var sub, sstart, rstart [3]int
				elems := 1
				for i, di := range d {
					switch di {
					case 0:
						sub[i], sstart[i], rstart[i] = haloN, haloH, haloH
					case 1: // high interior slab into the receiver's low ghost
						sub[i], sstart[i], rstart[i] = haloH, haloN, 0
					case -1:
						sub[i], sstart[i], rstart[i] = haloH, haloH, haloH+haloN
					}
					elems *= sub[i]
				}
				dirs = append(dirs, haloDir{
					d: d, elems: elems,
					send: mpi.TypeSubarray(sizes, sub[:], sstart[:]).Commit(),
					recv: mpi.TypeSubarray(sizes, sub[:], rstart[:]).Commit(),
				})
			}
		}
	}
	return dirs
}()

// haloBytesPerRank is the payload one rank sends in one exchange.
var haloBytesPerRank = func() int {
	total := 0
	for _, dir := range haloDirs {
		total += dir.elems * 8
	}
	return total
}()

// haloPeer is the rank at offset d from rank in the periodic 2x2x2 cube
// (x fastest). With two ranks per dimension the +d and -d neighbours
// coincide, so every direction is one SendrecvTyped with one peer.
func haloPeer(rank int, d [3]int) int {
	peer := 0
	for i, mul := 0, 1; i < 3; i, mul = i+1, mul*2 {
		c := (rank/mul%2 + d[i] + 2) % 2
		peer += c * mul
	}
	return peer
}

func haloExchange(tk *mpi.Task, grid []float64, tr *rankTrace) {
	for tag, dir := range haloDirs {
		peer := haloPeer(tk.Rank(), dir.d)
		s := tr.begin(spSendrecvTyped)
		mpi.SendrecvTyped(tk, nil, grid, dir.send, peer, tag, grid, dir.recv, peer, tag)
		tr.end(s)
	}
}

// haloRelax is one in-place sweep over the interior folding in the
// freshly exchanged ghosts, in a fixed traversal order.
func haloRelax(grid []float64) {
	const m = haloM
	for z := haloH; z < haloH+haloN; z++ {
		for y := haloH; y < haloH+haloN; y++ {
			for x := haloH; x < haloH+haloN; x++ {
				i := (z*m+y)*m + x
				grid[i] = 0.5*grid[i] + (grid[i-1]+grid[i+1]+grid[i-m]+grid[i+m]+grid[i-m*m]+grid[i+m*m])/12
			}
		}
	}
}

// haloDigest fingerprints one rank's whole block, bit-exact.
func haloDigest(grid []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range grid {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// haloSweepDigest fills a rank's block from the inputs, runs the fixed
// exchange+relax sweeps and returns the block with its digest.
func haloSweepDigest(tk *mpi.Task, in *inputs) ([]float64, uint64) {
	grid := make([]float64, haloM*haloM*haloM)
	for i := range grid {
		grid[i] = in.haloFill * float64(tk.Rank()+1) * float64(i%97+1)
	}
	for s := 0; s < haloSweeps; s++ {
		haloExchange(tk, grid, nil)
		haloRelax(grid)
	}
	return grid, haloDigest(grid)
}

// haloReference runs the sweeps in a Config.ForcePack world: every typed
// transfer packed through a staging buffer. The measured world elides
// the pack and must still produce these digests bit for bit.
func haloReference(in *inputs) error {
	c, err := newInproc(mpi.Config{NumTasks: haloRanks, ForcePack: true})
	if err != nil {
		return err
	}
	return c.run(func(tk *mpi.Task) error {
		_, in.haloRef[tk.Rank()] = haloSweepDigest(tk, in)
		return nil
	})
}

// haloRank: one op is the 26-direction exchange plus a Barrier. After
// the digest sweeps the grid no longer changes, so every op moves the
// same bytes and the digest must still hold when the segment ends.
func haloRank(c *cluster, tk *mpi.Task, in *inputs, tr *rankTrace) rankBody {
	grid, digest := haloSweepDigest(tk, in)
	if digest != in.haloRef[tk.Rank()] {
		c.failf("rank %d: digest %016x after %d sweeps, ForcePack run gave %016x", tk.Rank(), digest, haloSweeps, in.haloRef[tk.Rank()])
	}
	haloExchange(tk, grid, nil) // bring the ghosts up to the last relax
	digest = haloDigest(grid)
	return rankBody{
		op: func(int) {
			haloExchange(tk, grid, tr)
			b := tr.begin(spBarrier)
			mpi.Barrier(tk, nil)
			tr.end(b)
		},
		done: func() {
			if got := haloDigest(grid); got != digest {
				c.failf("rank %d: digest %016x after the timed exchanges, was %016x before", tk.Rank(), got, digest)
			}
		},
	}
}

// ---- HLS mesh update (workload 8) ----

func meshTableInit(_ int, data []float64) {
	for k := range data {
		data[k] = float64(k%1021) * 0.001
	}
}

// meshValue is what op i's single block writes to the k-th entry of its
// window; meshWindowStart is where that window begins.
func meshValue(i, k int) float64 { return float64((i+k)%977) * 0.002 }
func meshWindowStart(i int) int  { return i * meshWindow % meshEntries }

func meshCellInit(task int) []float64 {
	cells := make([]float64, meshCells)
	for j := range cells {
		cells[j] = float64((task*31+j)%101) * 0.01
	}
	return cells
}

// meshUpdate is the cell kernel of op i for one task: every cell
// interpolates in the common table at its seeded index. table is called
// once per cell — the hls_get_addr the directive lowers every use to.
func meshUpdate(cells []float64, base []uint32, rot uint32, table func() []float64) {
	for j := range cells {
		cells[j] = 0.5*cells[j] + table()[(base[j]+rot)%meshEntries]
	}
}

func meshChecksum(cells []float64) float64 {
	sum := 0.0
	for _, v := range cells {
		sum += v
	}
	return sum
}

// meshReference recomputes the warm-up serially — one private table, the
// tasks one after another — and keeps each task's cell checksum.
func meshReference(in *inputs, warm int) error {
	table := make([]float64, meshEntries)
	meshTableInit(0, table)
	var cells [meshTasks][]float64
	for t := range cells {
		cells[t] = meshCellInit(t)
	}
	for i := 0; i < warm; i++ {
		for t := range cells {
			meshUpdate(cells[t], in.meshBase[t], uint32(i)*in.meshStride, func() []float64 { return table })
		}
		w0 := meshWindowStart(i)
		for k := 0; k < meshWindow; k++ {
			table[w0+k] = meshValue(i, k)
		}
	}
	for t := range cells {
		in.meshRef[t] = meshChecksum(cells[t])
	}
	return nil
}

// meshCluster: 8 tasks on one node of 2 sockets x 4 cores, and one
// node-scope table of the given size declared the way listing 3's
// directive lowers.
func meshCluster(entries int) (*cluster, error) {
	m, err := topology.New(topology.Spec{
		Name: "benchmark", Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 4, ThreadsPerCore: 1,
	})
	if err != nil {
		return nil, err
	}
	c, err := newInproc(mpi.Config{NumTasks: meshTasks, Machine: m})
	if err != nil {
		return nil, err
	}
	c.reg = hls.New(c.worlds[0])
	c.tab = hls.Declare(c.reg, "table", topology.Node, entries, hls.WithInit(meshTableInit))
	return c, nil
}

func meshBuild(*inputs) (*cluster, error) { return meshCluster(meshEntries) }

// meshRank: one op is 20000 cell updates, each resolving the table with
// Slice, then a Single that rewrites one window of it. The warm-up is
// checked against the serial recomputation; the timed ops by the number
// of single blocks executed and the contents of the last window.
func meshRank(c *cluster, tk *mpi.Task, in *inputs, tr *rankTrace) rankBody {
	task := tk.Rank()
	cells := meshCellInit(task)
	base := in.meshBase[task]
	singles := 0 // blocks this task executed; Single orders them, so the sum over tasks is exact
	last := -1
	return rankBody{
		op: func(i int) {
			s := tr.begin(spHLSSliceCompute)
			meshUpdate(cells, base, uint32(i)*in.meshStride, func() []float64 { return c.tab.Slice(tk) })
			tr.end(s)
			g := tr.begin(spHLSSingle)
			c.tab.Single(tk, func(data []float64) {
				w0 := meshWindowStart(i)
				for k := 0; k < meshWindow; k++ {
					data[w0+k] = meshValue(i, k)
				}
				singles++
			})
			tr.end(g)
			last = i
		},
		warmDone: func() {
			if got := meshChecksum(cells); got != in.meshRef[task] {
				c.failf("task %d: cell checksum %v after the warm-up, serial recomputation gives %v", task, got, in.meshRef[task])
			}
		},
		done: func() {
			c.singles.Add(int64(singles))
			if task != 0 {
				return
			}
			data, w0 := c.tab.Slice(tk), meshWindowStart(last)
			for k := 0; k < meshWindow; k++ {
				if data[w0+k] != meshValue(last, k) {
					c.failf("table entry %d holds %v after op %d, want %v", w0+k, data[w0+k], last, meshValue(last, k))
					break
				}
			}
			if n := c.tab.Instances(); n != 1 {
				c.failf("table has %d instances, want 1 shared copy", n)
			}
		},
	}
}

// meshSinglesCheck runs after the ranks have stopped: every op's single
// block must have executed exactly once.
func meshSinglesCheck(c *cluster, ops int) {
	if got := c.singles.Load(); c.tab != nil && got != int64(ops) {
		c.failf("%d single blocks executed over %d ops", got, ops)
	}
}
