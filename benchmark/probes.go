package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"hls/internal/mpi"
	"hls/internal/spin"
	"hls/internal/topology"
	"hls/internal/wire"
)

// The floor probes time single public functions of single layers, from
// outside, with nothing else running: what a workload's op could cost at
// best if only that layer were involved. They run once per traced set.

// sampleNs calls f warm times untimed, then n times with one time.Now()
// per call, and returns the median ns of one call. durs is scratch.
func sampleNs(durs []uint32, warm, n int, f func()) float64 {
	for i := 0; i < warm; i++ {
		f()
	}
	prev := time.Now()
	for i := 0; i < n; i++ {
		f()
		now := time.Now()
		durs[i] = uint32(min(now.Sub(prev), 1<<32-1))
		prev = now
	}
	d := durs[:n]
	slices.Sort(d)
	return float64(percentile(d, 50))
}

// runProbes returns the probe metrics by name.
func runProbes(in *inputs, durs []uint32) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	for _, sz := range []struct {
		name  string
		bytes int
		iters int
	}{{"64B", smallBytes, 20000}, {"256KiB", largeBytes, 2000}} {
		if m["net.floor_rtt_"+sz.name+"_us"], err = netFloorRTT(durs, sz.bytes, sz.iters); err != nil {
			return nil, fmt.Errorf("net floor probe: %w", err)
		}
		if m["wire.raw_rtt_"+sz.name+"_us"], err = wireRawRTT(durs, sz.bytes, sz.iters); err != nil {
			return nil, fmt.Errorf("wire floor probe: %w", err)
		}
	}
	m["wire.append_frame_ns"] = appendFrameNs(durs, in.small)
	m["spin.barrier_ns"] = spinBarrierNs(durs)
	if err = hlsProbes(durs, m); err != nil {
		return nil, fmt.Errorf("hls probes: %w", err)
	}
	if m["mpi.typedcopy_ns_per_KiB"], err = typedCopyNsPerKiB(durs); err != nil {
		return nil, fmt.Errorf("typed copy probe: %w", err)
	}
	if m["hls.teardown_retained_mb"], err = teardownRetainedMB(in); err != nil {
		return nil, fmt.Errorf("teardown probe: %w", err)
	}
	m["topology.new_ms"] = topologyNewMs()
	if m["obs.traced_over_untraced"], err = tracedOverUntraced(in, durs); err != nil {
		return nil, fmt.Errorf("tracing probe: %w", err)
	}
	return m, nil
}

// netFloorRTT is an n-byte ping-pong on a bare loopback net.Conn: the
// kernel's share of every wire round trip. Loopback, not a real link.
func netFloorRTT(durs []uint32, n, iters int) (us float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoErr <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, n)
		for {
			if _, err := io.ReadFull(conn, buf); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				echoErr <- err
				return
			}
			if _, err := conn.Write(buf); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	out, back := make([]byte, n), make([]byte, n)
	var ioErr error
	ns := sampleNs(durs, 200, iters, func() {
		if _, err := conn.Write(out); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(conn, back); err != nil {
			ioErr = err
		}
	})
	conn.Close()
	return ns / 1e3, errors.Join(ioErr, <-echoErr)
}

// probeSink is the minimal wire.Sink: one reusable payload buffer (a
// ping-pong has one frame in flight) and a channel that wakes the
// goroutine waiting for the frame — the same hand-off mpi's sink makes to
// a task, with none of mpi's matching.
type probeSink struct {
	buf  []byte
	got  chan struct{}
	down chan error
}

func newProbeSink(n int) *probeSink {
	return &probeSink{buf: make([]byte, n), got: make(chan struct{}, 1), down: make(chan error, 1)}
}

func (s *probeSink) Alloc(_ int, h *wire.Header) ([]byte, any) { return s.buf[:h.PayloadLen], nil }
func (s *probeSink) Frame(int, *wire.Frame)                    { s.got <- struct{}{} }
func (s *probeSink) Free(int, any)                             {}
func (s *probeSink) PeerDown(_ int, err error) {
	select {
	case s.down <- err:
	default:
	}
}

// wireRawRTT is an n-byte ping-pong on two wire.NewTCP transports with
// probeSinks: frame codec, sequencing, acks and the progress goroutines,
// but no mpi. One frame each way, whatever the size.
func wireRawRTT(durs []uint32, n, iters int) (us float64, err error) {
	lns, addrs, err := loopbackListeners(2)
	if err != nil {
		return 0, err
	}
	var trs [2]*wire.TCP
	var sinks [2]*probeSink
	for i := range trs {
		if trs[i], err = wire.NewTCP(wire.Config{Addrs: addrs, Self: i, WorldKey: 2}, lns[i]); err != nil {
			return 0, err
		}
		defer trs[i].Close()
		sinks[i] = newProbeSink(n)
		trs[i].Bind(sinks[i])
	}
	const warm = 200
	payload := make([]byte, n)
	var wg sync.WaitGroup
	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := wire.Header{Type: wire.TypeEager}
		for i := 0; i < warm+iters; i++ {
			select {
			case <-sinks[1].got:
			case echoErr = <-sinks[1].down:
				return
			}
			if echoErr = trs[1].Send(0, &h, sinks[1].buf); echoErr != nil {
				return
			}
		}
	}()
	var sendErr error
	h := wire.Header{Type: wire.TypeEager}
	ns := sampleNs(durs, warm, iters, func() {
		if sendErr != nil {
			return
		}
		if sendErr = trs[0].Send(1, &h, payload); sendErr != nil {
			return
		}
		select {
		case <-sinks[0].got:
		case sendErr = <-sinks[0].down:
		}
	})
	if sendErr != nil {
		trs[1].Close() // unblocks the echo side
	}
	wg.Wait()
	return ns / 1e3, errors.Join(sendErr, echoErr)
}

// appendFrameNs times wire.AppendFrame alone on a 64 B eager frame.
func appendFrameNs(durs []uint32, payload []byte) float64 {
	const batch = 1000 // calls per clock reading: one call is well under the clock's cost
	h := wire.Header{Type: wire.TypeEager, Seq: 1, Ack: 1, Elems: smallBytes}
	dst := make([]byte, 0, 256)
	return sampleNs(durs, 10, 2000, func() {
		for i := 0; i < batch; i++ {
			dst = wire.AppendFrame(dst[:0], &h, payload)
		}
	}) / batch
}

// spinBarrierNs times spin.NewBarrier(8).Await alone: 8 goroutines, the
// round time seen by one of them.
func spinBarrierNs(durs []uint32) float64 {
	const parties, warm, rounds = 8, 1000, 50000
	b := spin.NewBarrier(parties)
	var wg sync.WaitGroup
	for p := 1; p < parties; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warm+rounds; i++ {
				b.Await(nil)
			}
		}()
	}
	ns := sampleNs(durs, warm, rounds, func() { b.Await(nil) })
	wg.Wait()
	return ns
}

// hlsProbes times the HLS directives alone on the mesh workload's machine
// with a small node-scope variable: barrier, single with an empty block,
// and the get-address call.
func hlsProbes(durs []uint32, m map[string]float64) error {
	const warm, rounds = 500, 20000
	const addrBatch = 1000
	c, err := meshCluster(1024)
	if err != nil {
		return err
	}
	g := newGate(c.ranks)
	return c.run(func(tk *mpi.Task) error {
		barrier := func() { c.reg.Barrier(tk, c.tab) }
		single := func() { c.tab.Single(tk, func([]float64) {}) }
		if tk.Rank() != 0 {
			for i := 0; i < warm+rounds; i++ {
				barrier()
			}
			for i := 0; i < warm+rounds; i++ {
				single()
			}
			g.wait(nil) // parked, not spinning, while rank 0 times Slice
			return nil
		}
		m["hls.barrier_us"] = sampleNs(durs, warm, rounds, barrier) / 1e3
		m["hls.single_us"] = sampleNs(durs, warm, rounds, single) / 1e3
		sum := 0.0
		m["hls.get_addr_ns"] = sampleNs(durs, 10, 2000, func() {
			for i := 0; i < addrBatch; i++ {
				sum += c.tab.Slice(tk)[i]
			}
		}) / addrBatch
		g.wait(nil)
		if sum < 0 {
			return errors.New("unreachable: keeps the Slice loop alive")
		}
		return nil
	})
}

// typedCopyNsPerKiB times mpi.TypedCopy alone on the halo workload's 26
// subarray pairs: the strided-to-strided copy pack elision reduces a
// typed transfer to.
func typedCopyNsPerKiB(durs []uint32) (float64, error) {
	c, err := newInproc(mpi.Config{NumTasks: 1})
	if err != nil {
		return 0, err
	}
	var ns float64
	err = c.run(func(tk *mpi.Task) error {
		src := make([]float64, haloM*haloM*haloM)
		dst := make([]float64, haloM*haloM*haloM)
		ns = sampleNs(durs, 20, 2000, func() {
			for _, dir := range haloDirs {
				mpi.TypedCopy(tk, dst, dir.recv, src, dir.send, "copy")
			}
		})
		return nil
	})
	return ns / (float64(haloBytesPerRank) / 1024), err
}

// teardownRetainedMB is the live heap a finished mesh world leaves
// behind once the benchmark has dropped every reference to it.
func teardownRetainedMB(in *inputs) (float64, error) {
	heap0 := liveHeap()
	err := func() error {
		c, err := meshBuild(in)
		if err != nil {
			return err
		}
		return c.run(func(tk *mpi.Task) error {
			meshRank(c, tk, in, nil).op(0)
			return nil
		})
	}()
	return (float64(liveHeap()) - float64(heap0)) / (1 << 20), err
}

// topologyNewMs times topology.New on the two-node machine of the wire
// workloads.
func topologyNewMs() float64 {
	var ms []float64
	for i := 0; i < 51; i++ {
		t := time.Now()
		topology.MustNew(topology.Spec{Name: "benchmark", Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1})
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms)
}

// tracedOverUntraced is op_p50_us of workload 2 over workload 1, from
// three short interleaved segments of each.
func tracedOverUntraced(in *inputs, durs []uint32) (float64, error) {
	var p50 [2][]float64
	for s := 0; s < 3; s++ {
		for k, w := range workloads[:2] {
			seg, err := runSegment(w, in, plan{warm: w.warm / 10, ops: w.ops / 20}, durs)
			if err != nil {
				return 0, err
			}
			p50[k] = append(p50[k], seg.p50us)
		}
	}
	return median(p50[1]) / median(p50[0]), nil
}
