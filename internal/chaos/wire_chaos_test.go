package chaos_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hls/internal/chaos"
	"hls/internal/metrics"
	"hls/internal/mpi"
	"hls/internal/wire"
)

// counterValue sums every series of one counter family that carries the
// given labels (the traffic families also split by peer node, so a
// {dir: sent} query spans all peers).
func counterValue(t *testing.T, snap metrics.Snapshot, name string, labels map[string]string) int64 {
	t.Helper()
	var sum int64
	found := false
	for _, c := range snap.Counters {
		if c.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if c.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			sum += c.Value
			found = true
		}
	}
	if !found {
		t.Fatalf("counter %s%v not found in snapshot", name, labels)
	}
	return sum
}

// TestChaosWireFaultsRecovered runs a two-node world over real loopback
// TCP with wire faults armed on node 0's transport: a severed
// connection, a partial frame, and a failed dial attempt. Every message
// must still arrive in order — the faults test the reliability layer
// (resume retransmission, reconnect backoff), not message loss — and
// the reconnects must show up both in the transport stats and in the
// metrics registry via the wire adapter.
func TestChaosWireFaultsRecovered(t *testing.T) {
	const eagerMsgs = 30
	m := machine(t, 2, 1)
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}

	// Nth-based firing rules are deterministic regardless of seed: the
	// 1st dial attempt from node 0 fails, the 2nd and 9th sequenced
	// frame writes are severed (fully and partially, respectively).
	inj := chaos.New(envSeed(11),
		chaos.Fault{Kind: chaos.WireDialFail, Rank: -1, Node: -1, Nth: 1, Times: 1},
		chaos.Fault{Kind: chaos.WireDrop, Rank: -1, Node: -1, Nth: 2, Times: 1},
		chaos.Fault{Kind: chaos.WireTrunc, Rank: -1, Node: -1, Nth: 9, Times: 1},
	)
	reg := metrics.New(2)

	mk := func(self int, ln net.Listener, cfg wire.Config) (*mpi.World, wire.Transport) {
		cfg.Addrs = addrs
		cfg.Self = self
		cfg.WorldKey = 7
		tr, err := wire.NewTCP(cfg, ln)
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(mpi.Config{
			NumTasks: 2,
			Machine:  m,
			Wire:     &mpi.WireConfig{Transport: tr},
			Timeout:  30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w, tr
	}
	w0, tr0 := mk(0, ln0, wire.Config{Fault: inj})
	w1, _ := mk(1, ln1, wire.Config{})
	defer metrics.NewWireAdapter(reg, 2).Watch(tr0)()

	fn := func(task *mpi.Task) error {
		switch task.Rank() {
		case 0:
			for i := 0; i < eagerMsgs; i++ {
				mpi.Send(task, nil, []int32{int32(i)}, 1, i)
			}
			big := make([]int64, 1024) // past the eager limit: rendezvous
			for j := range big {
				big[j] = int64(j)
			}
			mpi.Send(task, nil, big, 1, eagerMsgs)
		case 1:
			for i := 0; i < eagerMsgs; i++ {
				var v [1]int32
				if st := mpi.Recv(task, nil, v[:], 0, i); int(v[0]) != i || st.Tag != i {
					return fmt.Errorf("eager %d: got %d (tag %d)", i, v[0], st.Tag)
				}
			}
			big := make([]int64, 1024)
			mpi.Recv(task, nil, big, 0, eagerMsgs)
			for j, v := range big {
				if v != int64(j) {
					return fmt.Errorf("rendezvous: big[%d] = %d", j, v)
				}
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	var err0, err1 error
	wg.Add(2)
	go func() { defer wg.Done(); err0 = w0.Run(fn) }()
	go func() { defer wg.Done(); err1 = w1.Run(fn) }()
	wg.Wait()
	if err0 != nil || err1 != nil {
		t.Fatalf("Run failed under wire faults: err0=%v err1=%v", err0, err1)
	}

	for _, k := range []chaos.Kind{chaos.WireDialFail, chaos.WireDrop, chaos.WireTrunc} {
		if got := inj.Count(k); got != 1 {
			t.Errorf("Count(%v) = %d, want 1", k, got)
		}
	}
	st, ok := w0.WireStats()
	if !ok {
		t.Fatal("world 0 has no wire stats")
	}
	if st.Reconnects == 0 {
		t.Errorf("two severed connections but Stats().Reconnects = 0")
	}
	snap := reg.Snapshot()
	if got := counterValue(t, snap, "wire_frames_total", map[string]string{"dir": "sent"}); got == 0 {
		t.Error("wire_frames_total{dir=sent} = 0")
	}
	if got := counterValue(t, snap, "wire_frames_total", map[string]string{"dir": "received"}); got == 0 {
		t.Error("wire_frames_total{dir=received} = 0")
	}
	if got := counterValue(t, snap, "wire_reconnects_total", nil); got == 0 {
		t.Error("wire_reconnects_total = 0 after injected connection drops")
	}
}
