//go:build go1.24

package metrics_test

import (
	"net"
	"runtime"
	"testing"
	"time"
	"weak"

	"hls/internal/hls"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
	"hls/internal/wire"
)

// TestFinishedWorldIsCollected: a world that Dup'd a communicator,
// created and freed an RMA window, declared an HLS variable and was
// watched by the MPI, HLS and RMA adapters is garbage once its Run
// returned, the watches stopped and the caller dropped it. No
// package-level map may keep a finished world (or its HLS registry, or
// its window) alive.
func TestFinishedWorldIsCollected(t *testing.T) {
	reg := metrics.New(4)
	world, registry, win, sends := runAndDrop(t, metrics.NewMPIAdapter(reg), metrics.NewHLSAdapter(reg), metrics.NewRMAAdapter(reg))
	runtime.GC()
	runtime.GC()
	if world.Value() != nil {
		t.Error("the finished *mpi.World is still reachable")
	}
	if registry.Value() != nil {
		t.Error("the finished world's *hls.Registry is still reachable")
	}
	if win.Value() != nil {
		t.Error("the freed *rma.Window is still reachable")
	}
	// The stopped watch kept the world's counts, not the world.
	if sends == 0 {
		t.Fatal("the world sent no messages")
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "mpi_sends_total" && c.Value != sends {
			t.Errorf("mpi_sends_total = %d after the world was collected, want %d", c.Value, sends)
		}
		if c.Name == "hls_instance_allocs_total" && c.Value != 1 {
			t.Errorf("hls_instance_allocs_total = %d after the registry was collected, want 1", c.Value)
		}
		// Two fences per rank close one fence epoch each.
		if c.Name == "rma_epochs_total" && c.Labels["kind"] == "fence" && c.Value != 4 {
			t.Errorf(`rma_epochs_total{kind="fence"} = %d after the window was collected, want 4`, c.Value)
		}
	}
}

// runAndDrop builds and runs the world, stops its watches and returns
// only weak references to it, plus its final message count.
func runAndDrop(t *testing.T, a *metrics.MPIAdapter, h *metrics.HLSAdapter, r *metrics.RMAAdapter) (weak.Pointer[mpi.World], weak.Pointer[hls.Registry], weak.Pointer[rma.Window[int64]], int64) {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 4, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	stop := a.Watch(w)
	reg := hls.New(w)
	stopHLS := h.Watch(reg)
	v := hls.Declare[int64](reg, "teardown", topology.Node, 8)
	var win *rma.Window[int64]
	stopRMA := func() {}
	err = w.Run(func(task *mpi.Task) error {
		c := mpi.Dup(task, nil)
		me, n := task.Rank(), task.Size()
		mpi.Sendrecv(task, c, []int{me}, (me+1)%n, 0, make([]int, 1), (me+n-1)%n, 0)
		x := rma.WinAllocate[int64](task, c, 4)
		if me == 0 {
			win, stopRMA = x, r.Watch(x)
		}
		x.Fence(task)
		x.Fence(task)
		x.Free(task)
		v.Single(task, func(d []int64) { d[0]++ })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stopHLS()
	stopRMA()
	return weak.Make(w), weak.Make(reg), weak.Make(win), w.Stats().Messages
}

// TestWireAdapterWatch: transports watched one after another add up
// while they run and after each stop, an extra stop changes nothing,
// the clock gauges read the live transport's estimate, and a stopped,
// closed transport is garbage once the caller drops it.
func TestWireAdapterWatch(t *testing.T) {
	reg := metrics.New(2)
	a := metrics.NewWireAdapter(reg, 2)
	labeled := func(name, key, value string) int64 {
		t.Helper()
		for _, c := range append(reg.Snapshot().Counters, reg.Snapshot().Gauges...) {
			if c.Name == name && c.Labels[key] == value {
				return c.Value
			}
		}
		t.Fatalf("%s{%s=%q} not exposed", name, key, value)
		return 0
	}
	series := func(name, dir string) int64 { t.Helper(); return labeled(name, "dir", dir) }
	var sent, received, bytes int64
	var gone []weak.Pointer[wire.TCP]
	for _, msgs := range []int{3, 5} {
		tr, stop := watchedPair(t, a, msgs)
		if got := series("wire_frames_total", "sent"); got < sent+int64(msgs) {
			t.Fatalf("live watch: wire_frames_total{dir=sent} = %d, want at least %d", got, sent+int64(msgs))
		}
		// Without probes the estimate is the Hello's one-way sample: an
		// offset and no round trip, which the RTT gauge reads as 0.
		e := tr.Clock(1)
		if off := labeled("wire_clock_offset_ns", "peer", "1"); !e.OK || off != e.OffsetNs {
			t.Fatalf("wire_clock_offset_ns{peer=1} = %d, transport estimate %+v", off, e)
		}
		if rtt := labeled("wire_rtt_ns", "peer", "1"); e.RTTNs != -1 || rtt != 0 {
			t.Fatalf("wire_rtt_ns{peer=1} = %d, transport estimate %+v", rtt, e)
		}
		tr.Close()
		st := tr.Stats()
		sent += int64(st.FramesSent)
		received += int64(st.FramesReceived)
		bytes += int64(st.BytesSent)
		if st.FramesSent < uint64(msgs) {
			t.Fatalf("%d sends wrote %d frames", msgs, st.FramesSent)
		}
		for i := 0; i < 2; i++ { // the second stop must not fold again
			stop()
			if got := series("wire_frames_total", "sent"); got != sent {
				t.Fatalf("after stop %d: wire_frames_total{dir=sent} = %d, want %d", i+1, got, sent)
			}
		}
		gone = append(gone, weak.Make(tr))
	}
	if got := series("wire_frames_total", "received"); got != received {
		t.Errorf("wire_frames_total{dir=received} = %d, want %d", got, received)
	}
	if got := series("wire_bytes_total", "sent"); got != bytes {
		t.Errorf("wire_bytes_total{dir=sent} = %d, want %d", got, bytes)
	}
	if got := series("wire_inflight_frames", ""); got != 0 {
		t.Errorf("wire_inflight_frames = %d with no transport watched, want 0", got)
	}
	// A closed transport's goroutines wind down after Close returns.
	for i := 0; i < 100; i++ {
		runtime.GC()
		if gone[0].Value() == nil && gone[1].Value() == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("a stopped, closed transport is still reachable")
}

// watchedPair joins two transports over loopback, watches node 0's and
// sends msgs eager frames from node 0 to node 1. It returns once they
// all arrived, with node 0's transport still open and its watch's stop;
// node 1's transport closes with the test.
func watchedPair(t *testing.T, a *metrics.WireAdapter, msgs int) (*wire.TCP, func()) {
	t.Helper()
	var lns [2]net.Listener
	var addrs []string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs = ln, append(addrs, ln.Addr().String())
	}
	var trs [2]*wire.TCP
	got := make(chan struct{}, msgs)
	for i := range trs {
		tr, err := wire.NewTCP(wire.Config{Addrs: addrs, Self: i, WorldKey: 3}, lns[i])
		if err != nil {
			t.Fatal(err)
		}
		tr.Bind(countSink(got))
		trs[i] = tr
	}
	peer := trs[1] // not trs: the cleanup must not keep node 0 alive
	t.Cleanup(func() { peer.Close() })
	stop := a.Watch(trs[0])
	for i := 0; i < msgs; i++ {
		if err := trs[0].Send(1, &wire.Header{Type: wire.TypeEager, Tag: int32(i)}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		select {
		case <-got:
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d of %d never arrived", i, msgs)
		}
	}
	return trs[0], stop
}

// countSink signals each delivered frame on its channel.
type countSink chan struct{}

func (s countSink) Alloc(int, *wire.Header) ([]byte, any) { return nil, nil }
func (s countSink) Frame(int, *wire.Frame)                { s <- struct{}{} }
func (s countSink) Free(int, any)                         {}
func (s countSink) PeerDown(int, error)                   {}
