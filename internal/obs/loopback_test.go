package obs_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/obs"
	"hls/internal/topology"
	"hls/internal/trace"
	"hls/internal/wire"
)

// TestTwoProcessMergedTrace is the tracing plane end to end, minus only
// the OS process boundary: two Worlds joined by loopback TCP, each with
// its own Tracer, transport clock estimate and metrics registry —
// exactly two hlsworker processes' state — exchange eager and
// rendezvous messages, then
// Gather ships node 1's ring to rank 0 over the runtime itself. The
// merged view must hold the properties CI asserts on the real
// two-process run: flow events from both pids, every wire send matched
// by a flow end at or after it, zero drops, node 1's probed clock, and a
// world-wide metrics view that saw the wire traffic and a probe RTT.
func TestTwoProcessMergedTrace(t *testing.T) {
	const rounds = 15
	m, err := topology.New(topology.Spec{
		Name: "obsloop", Nodes: 2, SocketsPerNode: 1,
		CoresPerSocket: 1, ThreadsPerCore: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}

	tracers := make([]*obs.Tracer, 2)
	trs := make([]*wire.TCP, 2)
	regs := make([]*metrics.Registry, 2)
	worlds := make([]*mpi.World, 2)
	for self, ln := range []net.Listener{ln0, ln1} {
		tracers[self] = obs.NewTracer(trace.NewRecorder(trace.WithMaxEvents(4096)))
		regs[self] = metrics.New(2)
		wa := metrics.NewWireAdapter(regs[self], 2)
		tr, err := wire.NewTCP(wire.Config{
			Addrs: addrs, Self: self, WorldKey: 5,
			PingInterval: 5 * time.Millisecond,
		}, ln)
		if err != nil {
			t.Fatal(err)
		}
		defer wa.Watch(tr)()
		trs[self] = tr
		worlds[self], err = mpi.NewWorld(mpi.Config{
			NumTasks: 2, Machine: m,
			Wire:    &mpi.WireConfig{Transport: tr},
			Trace:   tracers[self],
			Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var merged *obs.Merged
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(self int, w *mpi.World) {
			defer wg.Done()
			errs[self] = w.Run(func(tk *mpi.Task) error {
				peer := tk.Rank() ^ 1
				for r := 0; r < rounds; r++ {
					elems := 16
					if r%2 == 1 {
						elems = 1024 // rendezvous
					}
					buf := make([]int64, elems)
					if tk.Rank() == 0 {
						mpi.Send(tk, nil, buf, peer, r)
						mpi.Recv(tk, nil, buf, peer, r)
					} else {
						mpi.Recv(tk, nil, buf, peer, r)
						mpi.Send(tk, nil, buf, peer, r)
					}
				}
				mpi.Barrier(tk, nil)
				mg, err := obs.Gather(tk, func() *obs.ProcDump {
					clk := trs[self].Clock(0)
					if self == 0 {
						clk.OffsetNs, clk.OK = 0, true
					}
					return &obs.ProcDump{
						EpochUnixNano: tracers[self].Recorder().EpochUnixNano(),
						OffsetNs:      clk.OffsetNs, HasOffset: clk.OK,
						RTTNs:    clk.RTTNs,
						DriftPPB: clk.DriftPPB,
						Dropped:  tracers[self].Dropped(),
						Events:   tracers[self].Recorder().Events(),
						Metrics:  regs[self].Snapshot(),
					}
				})
				if err != nil {
					return err
				}
				if mg != nil {
					merged = mg
				}
				return nil
			})
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("world %d: %v", i, err)
		}
	}
	if merged == nil {
		t.Fatal("Gather returned no merged view on rank 0")
	}
	if merged.Dropped != 0 {
		t.Errorf("merged Dropped = %d, want 0", merged.Dropped)
	}
	if len(merged.Procs) != 2 {
		t.Fatalf("merged %d procs, want 2", len(merged.Procs))
	}

	// Flow events from both pids; every send matched, in order.
	starts := map[uint64]trace.Event{}
	pidsWithFlows := map[int]bool{}
	for _, e := range merged.Events {
		if e.Ph == "s" && e.ID != 0 {
			starts[e.ID] = e
			pidsWithFlows[e.Pid] = true
		}
	}
	matched := 0
	for _, e := range merged.Events {
		if e.Ph != "f" || e.ID == 0 {
			continue
		}
		pidsWithFlows[e.Pid] = true
		s, ok := starts[e.ID]
		if !ok {
			t.Errorf("flow end %#x on pid %d has no start", e.ID, e.Pid)
			continue
		}
		if e.Ts < s.Ts {
			t.Errorf("flow %#x: end %.1fus before start %.1fus", e.ID, e.Ts, s.Ts)
		}
		delete(starts, e.ID)
		matched++
	}
	// The gather traffic itself sends after the dumps snapshot their
	// rings, so a few trailing starts may be unmatched; the workload's
	// 2*rounds round trips must all pair.
	if matched < 2*rounds {
		t.Errorf("only %d matched flow pairs, want >= %d", matched, 2*rounds)
	}
	if !pidsWithFlows[0] || !pidsWithFlows[1] {
		t.Errorf("flow events missing from a pid: %v", pidsWithFlows)
	}

	// Clock quality: node 1 measured a real offset with a loopback RTT.
	p1 := merged.Procs[1]
	if !p1.HasOffset || p1.RTTNs <= 0 {
		t.Errorf("node 1 clock: HasOffset=%v RTT=%dns, want probe data", p1.HasOffset, p1.RTTNs)
	}

	// World-wide metrics view saw wire traffic from both processes, and
	// the probe RTT the transports keep.
	var frames, rtt int64
	for _, c := range merged.Metrics.Counters {
		if c.Name == "wire_frames_total" {
			frames += c.Value
		}
	}
	for _, g := range merged.Metrics.Gauges {
		if g.Name == "wire_rtt_ns" {
			rtt += g.Value
		}
	}
	if frames == 0 {
		t.Error("merged metrics: wire_frames_total = 0")
	}
	if rtt <= 0 {
		t.Errorf("merged metrics: wire_rtt_ns sums to %d, want > 0", rtt)
	}

	// The analysis runs on the merged view and attributes some wait.
	a := obs.Analyze(merged.Events)
	if len(a.Ranks) == 0 {
		t.Fatal("analysis found no ranks")
	}
	var total float64
	for _, rw := range a.Ranks {
		total += rw.TotalUs()
	}
	if total <= 0 {
		t.Error("analysis attributed zero wait in a blocking ping-pong")
	}
}
