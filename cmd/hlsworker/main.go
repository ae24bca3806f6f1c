// Command hlsworker runs one node of a distributed HLS world. Launch the
// same binary once per entry in the host list and the processes join
// into a single world over the wire transport:
//
//	hlsworker -hosts 127.0.0.1:9500,127.0.0.1:9501 -node 0 &
//	hlsworker -hosts 127.0.0.1:9500,127.0.0.1:9501 -node 1
//
// The host list and node index can also come from the environment
// (HLS_WIRE_HOSTS, HLS_WIRE_NODE), the format shared with the quickstart
// example's distributed mode. Each process hosts tasks-per-node ranks;
// ranks on the same node exchange messages in process and share
// node-scoped HLS storage, ranks on different nodes talk TCP.
//
// The built-in workload exercises all three layers — a node-scoped HLS
// table (one copy per process), world-spanning collectives, and
// cross-node point-to-point — and -serve exposes live wire metrics
// (/metrics, /metrics.json, pprof) while it runs.
//
// With -ckpt the run becomes durable: each rank keeps its state in a
// storage-backed RMA window, the world takes a coordinated checkpoint
// every -ckpt-every rounds, and a killed process can be replaced with
// `hlsworker -respawn` (same -node, same -ckpt). The replacement bumps
// the restart epoch file, survivors abandon the broken generation, and
// everyone rejoins a fresh wire world (the world key is salted with the
// generation so stale frames cannot cross generations), restores the
// latest valid checkpoint and resumes. All processes must see the same
// -ckpt directory (same machine or a shared filesystem).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"hls/internal/ckpt"
	"hls/internal/hls"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/rma"
	"hls/internal/topology"
	"hls/internal/trace"
	"hls/internal/wire"
)

// maxRestarts caps how many broken generations a process will abandon
// before giving up; it bounds restart loops when the failure is not a
// lost peer but something persistent.
const maxRestarts = 8

func main() {
	log.SetFlags(0)
	log.SetPrefix("hlsworker: ")
	hosts := flag.String("hosts", os.Getenv(wire.EnvHosts),
		"comma-separated listen addresses, one per node, node-id order")
	node := flag.Int("node", -1, "this process's index into -hosts (default $"+wire.EnvNode+")")
	perNode := flag.Int("tasks-per-node", 2, "MPI ranks hosted by each process")
	rounds := flag.Int("rounds", 3, "workload iterations")
	serve := flag.String("serve", "", "serve /metrics, /metrics.json and pprof on this address while running")
	collMode := flag.String("coll", "auto", "collective algorithms: auto|flat|two-level (flat = single-level channel algorithms; two-level = node-local fast path + leaders-only wire exchange)")
	batchWindow := flag.Duration("batch", 0, "wire frame batching, e.g. 200us (0 = off): small eager frames to the same peer coalesce into one Batch container, flushed once every local task is blocked and at the latest after this window")
	traceFile := flag.String("trace", "", "record a distributed trace; rank 0's process writes the world-merged Perfetto file here (plus <file>.metrics.json)")
	traceEvents := flag.Int("trace-events", 1<<16, "per-process trace ring capacity (0 = unbounded)")
	linger := flag.Duration("linger", 0, "keep the process (and -serve endpoint) up this long after the workload")
	timeout := flag.Duration("timeout", 2*time.Minute, "deadlock watchdog for the whole run")
	ckptDir := flag.String("ckpt", "", "durable recovery directory shared by all processes: persistent windows, checkpoint generations and the restart epoch live here (empty = recovery off)")
	ckptEvery := flag.Int("ckpt-every", 1, "rounds between coordinated checkpoints (with -ckpt)")
	restore := flag.Bool("restore", false, "rehydrate from the latest valid checkpoint before the first round (with -ckpt)")
	respawn := flag.Bool("respawn", false, "rejoin as the replacement for a killed process: bump the restart epoch, join the new generation and restore (implies -restore)")
	roundSleep := flag.Duration("round-sleep", 0, "pause after each round; paces the workload so external kills land mid-run")
	flag.Parse()

	if *node < 0 {
		if s := os.Getenv(wire.EnvNode); s != "" {
			fmt.Sscanf(s, "%d", node) //nolint:errcheck // validated below
		}
	}
	if *hosts == "" {
		log.Fatalf("no host list: pass -hosts or set %s", wire.EnvHosts)
	}
	addrs, err := wire.ParseHosts(*hosts)
	if err != nil {
		log.Fatal(err)
	}
	if *node < 0 || *node >= len(addrs) {
		log.Fatalf("-node %d out of range for %d hosts", *node, len(addrs))
	}
	if *perNode < 1 {
		log.Fatalf("-tasks-per-node %d, need >= 1", *perNode)
	}
	if (*restore || *respawn) && *ckptDir == "" {
		log.Fatal("-restore/-respawn need -ckpt")
	}
	if *ckptEvery < 1 {
		log.Fatalf("-ckpt-every %d, need >= 1", *ckptEvery)
	}
	if *respawn {
		*restore = true
	}
	var coll mpi.CollectiveMode
	switch *collMode {
	case "auto":
		coll = mpi.CollAuto
	case "flat":
		coll = mpi.CollChannels
	case "two-level":
		coll = mpi.CollTwoLevel
	default:
		log.Fatalf("-coll %q, want auto|flat|two-level", *collMode)
	}

	machine, err := topology.New(topology.Spec{
		Name:           "hlsworker",
		Nodes:          len(addrs),
		SocketsPerNode: 1,
		CoresPerSocket: *perNode,
		ThreadsPerCore: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	numTasks := len(addrs) * *perNode

	reg := metrics.New(numTasks)
	if *serve != "" {
		addr, shutdown, err := metrics.Serve(*serve, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
		fmt.Printf("node %d: serving telemetry on http://%s\n", *node, addr)
	}

	// One tracer for the whole process: a failed generation's events stay
	// in the ring, so the merged trace shows the recovery too.
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(trace.NewRecorder(trace.WithMaxEvents(*traceEvents)))
		reg.CounterFunc("trace_events_dropped_total", "Events overwritten in the bounded trace ring.", tracer.Dropped)
	}

	g := &genCfg{
		hosts: *hosts, addrs: addrs, node: *node, perNode: *perNode,
		numTasks: numTasks, machine: machine, reg: reg,
		mpiMetrics: metrics.NewMPIAdapter(reg), wireMetrics: metrics.NewWireAdapter(reg, len(addrs)),
		ckptMetrics: metrics.NewCkptAdapter(reg), stopCkpt: func() {},
		coll: coll, batch: *batchWindow,
		rounds: *rounds, roundSleep: *roundSleep,
		tracer: tracer, traceFile: *traceFile, timeout: *timeout,
		ckptEvery: *ckptEvery, restore: *restore,
		// A replacement process must present a higher incarnation than
		// its predecessor so peers discard the dead sequence space; the
		// start wall clock is monotone across respawns of the same node.
		incarnation: uint64(time.Now().UnixNano()),
	}
	if *ckptDir != "" {
		g.genDir = filepath.Join(*ckptDir, "gens")
		g.winDir = filepath.Join(*ckptDir, "win")
		g.epochFile = filepath.Join(*ckptDir, "epoch")
		for _, d := range []string{g.genDir, g.winDir} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				log.Fatal(err)
			}
		}
		if *respawn {
			g.gen, err = bumpEpoch(g.epochFile)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("node %d: respawning into generation %d\n", *node, g.gen)
		} else {
			g.gen = readEpoch(g.epochFile)
		}
	}

	fmt.Printf("node %d/%d: hosting ranks %v of a %d-rank world\n",
		*node, len(addrs), localRanks(*node, *perNode), numTasks)

	for restarts := 0; ; restarts++ {
		err := runGeneration(g)
		if err == nil {
			break
		}
		if g.epochFile == "" || !recoverable(err) {
			log.Fatalf("node %d: %v", *node, err)
		}
		if restarts+1 >= maxRestarts {
			log.Fatalf("node %d: giving up after %d broken generations: %v", *node, restarts+1, err)
		}
		log.Printf("node %d: generation %d failed (%s); waiting for the restart epoch to advance",
			*node, g.gen, firstLine(err))
		next, aerr := awaitEpoch(g.epochFile, g.gen, *timeout)
		if aerr != nil {
			log.Fatalf("node %d: %v (original failure: %s)", *node, aerr, firstLine(err))
		}
		g.gen = next
		g.restore = true // survivors always resume from the checkpoint
		fmt.Printf("node %d: rejoining at generation %d\n", *node, g.gen)
	}

	fmt.Printf("node %d: workload complete (%d rounds, generation %d)\n", *node, *rounds, g.gen)
	if *linger > 0 {
		fmt.Printf("node %d: lingering %s\n", *node, *linger)
		time.Sleep(*linger)
	}
}

// genCfg is everything one generation of the world needs; gen and
// restore advance as generations are abandoned and rejoined.
type genCfg struct {
	hosts    string
	addrs    []string
	node     int
	perNode  int
	numTasks int
	machine  *topology.Machine
	reg      *metrics.Registry
	// The adapters outlive the generations: each generation's world and
	// transport are watched while they run, so the series sum across
	// restarts. A generation's coordinator stays watched until the next
	// one replaces it, so the generation gauges still read while the
	// process lingers.
	mpiMetrics  *metrics.MPIAdapter
	wireMetrics *metrics.WireAdapter
	ckptMetrics *metrics.CkptAdapter
	stopCkpt    func()
	coll        mpi.CollectiveMode
	batch       time.Duration

	rounds     int
	roundSleep time.Duration

	tracer      *obs.Tracer
	traceFile   string
	timeout     time.Duration
	incarnation uint64

	genDir    string // checkpoint generations (empty = recovery off)
	winDir    string // persistent window segments
	epochFile string // restart epoch
	ckptEvery int
	restore   bool
	gen       uint64
}

// runGeneration builds one wire world (listener, transport, MPI world,
// HLS registry, checkpoint coordinator) keyed to the current restart
// generation and runs the workload to completion on this process's
// ranks. Any error — a dead peer, a cancellation from the epoch watcher
// — abandons the whole generation; the caller decides whether to rejoin.
func runGeneration(g *genCfg) error {
	ln, err := net.Listen("tcp", g.addrs[g.node])
	if err != nil {
		return err
	}
	wcfg := wire.Config{
		Addrs: g.addrs,
		Self:  g.node,
		// Salting the world key with the generation keeps frames from an
		// abandoned generation out of the new world: a peer still in the
		// old one is rejected at Hello and retries until it rejoins.
		WorldKey:    genKey(wire.WorldKeyFor(g.hosts), g.gen),
		Incarnation: g.incarnation,
		BatchWindow: g.batch,
	}
	if g.tracer != nil {
		wcfg.PingInterval = 250 * time.Millisecond
	}
	tr, err := wire.NewTCP(wcfg, ln)
	if err != nil {
		ln.Close()
		return err
	}
	defer g.wireMetrics.Watch(tr)()

	world, err := mpi.NewWorld(mpi.Config{
		NumTasks:    g.numTasks,
		Machine:     g.machine,
		Pin:         topology.PinCorePerTask,
		Wire:        &mpi.WireConfig{Transport: tr},
		Collectives: g.coll,
		Trace:       traceHooks(g.tracer),
		Timeout:     g.timeout,
	})
	if err != nil {
		tr.Close()
		return err
	}
	defer g.mpiMetrics.Watch(world)()

	// The epoch watcher turns a replacement process's arrival into a
	// prompt, deterministic teardown: the moment the restart epoch moves
	// past this generation the world is obsolete, even if the dead peer
	// has not yet been declared down (a fast respawn can reoccupy the
	// dead node's address before reconnects exhaust, and the resulting
	// handshake rejections never mark the peer down on their own).
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	if g.epochFile != "" {
		go watchEpoch(world, g.epochFile, g.gen, stopWatch)
	}

	var hlsOpts []hls.Option
	if g.tracer != nil {
		hlsOpts = append(hlsOpts, hls.WithObserver(g.tracer.Sync()))
	}
	hreg := hls.New(world, hlsOpts...)
	table := hls.Declare[int64](hreg, "node-table", topology.Node, 256)

	var coord *ckpt.Coordinator
	if g.genDir != "" {
		ccfg := ckpt.Config{Dir: g.genDir}
		if g.tracer != nil {
			ccfg.Trace = g.tracer.Recorder()
		}
		coord = ckpt.New(ccfg)
		g.stopCkpt()
		g.stopCkpt = g.ckptMetrics.Watch(coord)
	}

	// progress[r] is the next round rank r should run; it rides along in
	// every checkpoint so a restore resumes where the checkpoint was cut.
	progress := make([]int64, g.numTasks)
	var regOnce sync.Once
	firstLocal := world.LocalRanks()[0]

	err = world.Run(func(task *mpi.Task) error {
		// Each rank keeps a digest of its rounds in a storage-backed
		// window: the segment maps to <winDir>/worker-state.r<rank>.seg
		// and win.Sync before every checkpoint makes the file match the
		// checkpoint cut, so a respawned process remaps the dead rank's
		// state straight from storage.
		var win *rma.Window[int64]
		if g.winDir != "" {
			win = rma.WinAllocate[int64](task, nil, 64,
				rma.WithName("worker-state"), rma.WithPersist(g.winDir))
		}
		if coord != nil {
			regOnce.Do(func() {
				coord.Register(
					ckpt.HLSVar(table),
					ckpt.Slice("round", func(t *mpi.Task) []int64 {
						return progress[t.Rank() : t.Rank()+1]
					}),
				)
				if win != nil {
					coord.Register(ckpt.Window(win))
				}
			})
		}

		// Same-node typed exchange state: adjacent local ranks trade a
		// strided selection through a derived datatype every round. The
		// pair shares this process's address space, so the runtime moves
		// the slabs strided-to-strided with no packed staging copy —
		// visible on /metrics.json as mpi_pack_elisions_total. Committed
		// once; the rounds only reuse it.
		typedDT := mpi.TypeVector(64, 32, 64).Commit() // 16 KiB packed: rendezvous
		typedSend := make([]float64, typedDT.Extent())
		typedRecv := make([]float64, typedDT.Extent())

		startRound := 0
		if coord != nil && g.restore {
			info, err := coord.Restore(task)
			switch {
			case errors.Is(err, ckpt.ErrNoCheckpoint):
				if task.Rank() == firstLocal {
					fmt.Printf("node %d: no checkpoint yet; starting from round 0\n", g.node)
				}
			case err != nil:
				return err
			default:
				startRound = int(progress[task.Rank()])
				if task.Rank() == firstLocal {
					fmt.Printf("node %d: restored generation %d (%d bytes, %.1f ms, %d torn/partial generation(s) skipped); resuming at round %d\n",
						g.node, info.Gen, info.Bytes, float64(info.Duration)/float64(time.Millisecond),
						info.Skipped, startRound)
				}
			}
		}

		for round := startRound; round < g.rounds; round++ {
			// Node-scoped storage: one copy per process, initialized by
			// one local rank per round.
			table.Single(task, func(data []int64) {
				for i := range data {
					data[i] = int64(round*len(data) + i)
				}
			})
			local := int64(0)
			for _, v := range table.Slice(task) {
				local += v
			}

			// World-spanning collective: every rank contributes its node's
			// table sum, and the tables are identical, so the global total
			// is the local sum times the world size.
			global := []int64{0}
			mpi.Allreduce(task, nil, []int64{local}, global, mpi.OpSum)
			want := local * int64(g.numTasks)
			if global[0] != want {
				return fmt.Errorf("round %d: allreduce %d, want %d", round, global[0], want)
			}

			// Cross-node point-to-point: node 2k pairs with node 2k+1 and
			// each rank ping-pongs with its opposite (eager and rendezvous
			// sizes). With an odd node count the last node sits out.
			myNode := task.Rank() / g.perNode
			peer := -1
			if myNode%2 == 0 && myNode+1 < len(g.addrs) {
				peer = task.Rank() + g.perNode
			} else if myNode%2 == 1 {
				peer = task.Rank() - g.perNode
			}
			if peer >= 0 {
				elems := 64
				if round%2 == 1 {
					elems = 1024 // past the eager limit: rendezvous
				}
				buf := make([]int64, elems)
				if task.Rank() < peer {
					for i := range buf {
						buf[i] = int64(task.Rank())
					}
					mpi.Send(task, nil, buf, peer, round)
					mpi.Recv(task, nil, buf, peer, round)
					if buf[0] != int64(peer) {
						return fmt.Errorf("round %d: echo from %d carried %d", round, peer, buf[0])
					}
				} else {
					mpi.Recv(task, nil, buf, peer, round)
					for i := range buf {
						buf[i] = int64(task.Rank())
					}
					mpi.Send(task, nil, buf, peer, round)
				}
			}

			// Same-node typed exchange: local rank 2k pairs with 2k+1 in
			// the same process (with an odd rank count the last sits out).
			if li := task.Rank() % g.perNode; li^1 < g.perNode {
				partner := task.Rank() - li + (li ^ 1)
				for i := range typedSend {
					typedSend[i] = float64(task.Rank()*1000 + round)
				}
				mpi.SendrecvTyped(task, nil, typedSend, typedDT, partner, 1000+round,
					typedRecv, typedDT, partner, 1000+round)
				if want := float64(partner*1000 + round); typedRecv[0] != want {
					return fmt.Errorf("round %d: typed exchange from %d carried %v, want %v",
						round, partner, typedRecv[0], want)
				}
			}

			if win != nil {
				seg := win.Local(task)
				seg[round%len(seg)] += local + int64(task.Rank())
			}
			progress[task.Rank()] = int64(round + 1)
			if coord != nil && (round+1)%g.ckptEvery == 0 {
				if win != nil {
					if err := win.Sync(task); err != nil {
						return err
					}
				}
				if _, err := coord.Checkpoint(task); err != nil {
					return err
				}
			}
			if g.roundSleep > 0 {
				time.Sleep(g.roundSleep)
			}
			mpi.Barrier(task, nil)
		}

		// World-wide digest of the persistent state: every node prints
		// the same value, and a recovered run's digest matches an
		// unfailed one's (the bench recover experiment asserts the
		// bitwise version of this in-process).
		if win != nil {
			local := int64(0)
			for _, v := range win.Local(task) {
				local += v
			}
			digest := []int64{0}
			mpi.Allreduce(task, nil, []int64{local}, digest, mpi.OpSum)
			if task.Rank() == firstLocal {
				fmt.Printf("node %d: state digest %d after %d rounds\n", g.node, digest[0], g.rounds)
			}
			win.Free(task)
		}
		if g.tracer != nil {
			return gatherTrace(task, g.tracer, tr, g.reg, g.node, g.traceFile)
		}
		return nil
	})
	if err != nil {
		return err
	}

	if st, ok := world.WireStats(); ok {
		fmt.Printf("node %d: done — wire frames %d sent / %d received, %d bytes out, %d reconnects\n",
			g.node, st.FramesSent, st.FramesReceived, st.BytesSent, st.Reconnects)
		fmt.Printf("node %d: collectives — %d two-level, %d node-local fast path; %d batch containers carrying %d frames\n",
			g.node, world.Stats().TwoLevelCollectives, world.Stats().SharedCollectives,
			st.BatchesSent, st.BatchedFrames)
	}
	return nil
}

// localRanks lists the world ranks this process hosts (block layout:
// node n owns [n*perNode, (n+1)*perNode)).
func localRanks(node, perNode int) []int {
	ranks := make([]int, perNode)
	for i := range ranks {
		ranks[i] = node*perNode + i
	}
	return ranks
}

// genKey salts the wire world key with the restart generation
// (splitmix64 finalizer) so distinct generations reject each other's
// handshakes. Generation 0 keeps the unsalted key: a plain world and a
// recovery-enabled one at epoch 0 are the same world.
func genKey(base, gen uint64) uint64 {
	if gen == 0 {
		return base
	}
	z := gen + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return base ^ (z ^ (z >> 31))
}

// readEpoch returns the restart epoch, 0 if the file is missing or
// unparseable (a fresh directory is generation 0).
func readEpoch(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// bumpEpoch advances the restart epoch by one, atomically (write a
// per-process temp file, rename over). Concurrent replacements can
// collapse onto the same value — they then simply join the same
// generation, which is the behavior we want.
func bumpEpoch(path string) (uint64, error) {
	next := readEpoch(path) + 1
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(next, 10)+"\n"), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return next, nil
}

// awaitEpoch polls until the restart epoch exceeds the abandoned
// generation — i.e. until a replacement process has arrived and bumped
// it — or the budget runs out.
func awaitEpoch(path string, above uint64, budget time.Duration) (uint64, error) {
	deadline := time.Now().Add(budget)
	for {
		if v := readEpoch(path); v > above {
			return v, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("restart epoch still %d after %s: no replacement process bumped %s", above, budget, path)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// watchEpoch cancels the world as soon as the restart epoch moves past
// the generation it belongs to.
func watchEpoch(w *mpi.World, path string, gen uint64, stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if v := readEpoch(path); v > gen {
				w.Cancel(fmt.Errorf("restart epoch advanced to %d: a replacement process is waiting for generation %d", v, v))
				return
			}
		}
	}
}

// recoverable reports whether a generation's failure is the kind a
// restart can fix: a dead or failed rank, a cancellation (the epoch
// watcher), or a timed-out world. Workload logic errors are not.
func recoverable(err error) bool {
	var dead *mpi.DeadRankError
	var rf *mpi.RankFailure
	var can *mpi.CancelledError
	var to *mpi.TimeoutError
	return errors.As(err, &dead) || errors.As(err, &rf) ||
		errors.As(err, &can) || errors.As(err, &to)
}

// firstLine compresses a joined multi-rank error to its first line for
// log output; the full detail is fatal-logged if recovery gives up.
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}

// traceHooks adapts the optional tracer to the mpi.TraceHooks interface
// without smuggling a typed nil into a non-nil interface value.
func traceHooks(t *obs.Tracer) mpi.TraceHooks {
	if t == nil {
		return nil
	}
	return t
}

// gatherTrace runs the teardown gather on every rank (it communicates,
// so all ranks must call it); rank 0's process then writes the merged
// Perfetto trace and the world-wide metrics snapshot next to it.
func gatherTrace(task *mpi.Task, tracer *obs.Tracer, tr wire.Transport, reg *metrics.Registry, node int, path string) error {
	merged, err := obs.Gather(task, func() *obs.ProcDump {
		clk := tr.Clock(0)
		if node == 0 {
			clk.OffsetNs, clk.OK = 0, true // node 0 is the reference clock
		}
		return &obs.ProcDump{
			EpochUnixNano: tracer.Recorder().EpochUnixNano(),
			OffsetNs:      clk.OffsetNs, HasOffset: clk.OK,
			RTTNs:    clk.RTTNs,
			DriftPPB: clk.DriftPPB,
			Dropped:  tracer.Dropped(),
			Events:   tracer.Recorder().Events(),
			Metrics:  reg.Snapshot(),
		}
	})
	if err != nil || merged == nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := merged.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	mf, err := os.Create(path + ".metrics.json")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged.Metrics); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	fmt.Printf("node %d: wrote %s (%d events from %d processes, %d dropped, %d flows clamped)\n",
		node, path, len(merged.Events), len(merged.Procs), merged.Dropped, merged.AdjustedFlows)
	for _, p := range merged.Procs {
		if p.Node == node {
			continue
		}
		fmt.Printf("node %d: clock node %d: offset %+dns rtt %dns drift %+dppb (probe=%v)\n",
			node, p.Node, p.OffsetNs, p.RTTNs, p.DriftPPB, p.HasOffset)
	}
	return nil
}
