package mpi

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"hls/internal/topology"
	"hls/internal/wire"
)

// The distributed-world tests run two Worlds in this process — one per
// simulated node — connected by real loopback TCP, so they exercise the
// full frame path (encode, socket, decode, claim, inject) exactly as two
// OS processes would, while staying runnable under -race in one test
// binary.

// runWirePair runs fn as a single logical world of 2*perNode ranks split
// across two Worlds connected over loopback TCP: ranks [0,perNode) live
// in world 0, the rest in world 1. It returns both worlds and their Run
// errors.
func runWirePair(t *testing.T, perNode int, fn func(*Task) error) (w0, w1 *World, err0, err1 error) {
	t.Helper()
	return runWirePairMode(t, perNode, CollAuto, fn)
}

// runWirePairMode is runWirePair with an explicit collective-mode
// selection, so tests can pin the flat channel algorithms or the
// two-level decomposition. hooks[i], when given, is world i's
// Config.Hooks.
func runWirePairMode(t *testing.T, perNode int, mode CollectiveMode, fn func(*Task) error, hooks ...Hooks) (w0, w1 *World, err0, err1 error) {
	t.Helper()
	return runWirePairWindow(t, perNode, mode, 0, fn, hooks...)
}

// runWirePairWindow is runWirePairMode with the transports' BatchWindow
// set to window (0 = batching off).
func runWirePairWindow(t *testing.T, perNode int, mode CollectiveMode, window time.Duration, fn func(*Task) error, hooks ...Hooks) (w0, w1 *World, err0, err1 error) {
	t.Helper()
	m, err := topology.New(topology.Spec{
		Name:           "wiretest",
		Nodes:          2,
		SocketsPerNode: 1,
		CoresPerSocket: perNode,
		ThreadsPerCore: 1,
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
	mk := func(self int, ln net.Listener) *World {
		tr, err := wire.NewTCP(wire.Config{Addrs: addrs, Self: self, WorldKey: 42, BatchWindow: window}, ln)
		if err != nil {
			t.Fatal(err)
		}
		var h Hooks
		if self < len(hooks) {
			h = hooks[self]
		}
		w, err := NewWorld(Config{
			NumTasks:    2 * perNode,
			Machine:     m,
			Wire:        &WireConfig{Transport: tr},
			Collectives: mode,
			Hooks:       h,
			Timeout:     20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w0 = mk(0, ln0)
	w1 = mk(1, ln1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); err0 = w0.Run(fn) }()
	go func() { defer wg.Done(); err1 = w1.Run(fn) }()
	wg.Wait()
	return w0, w1, err0, err1
}

func TestWireEagerAndRendezvousRoundTrip(t *testing.T) {
	const bigElems = 1024 // 8 KiB of int64 — past DefaultEagerLimit
	fn := func(task *Task) error {
		switch task.Rank() {
		case 0:
			Send(task, nil, []int32{1, 2, 3}, 2, 7) // eager, over the wire
			big := make([]int64, bigElems)
			for i := range big {
				big[i] = int64(i)
			}
			Send(task, nil, big, 2, 8)        // rendezvous, over the wire
			Send(task, nil, []int32{9}, 1, 1) // eager, in process
			var reply [1]int64
			st := Recv(task, nil, reply[:], 2, 9)
			if reply[0] != 77 || st.Source != 2 {
				return fmt.Errorf("rank 0: reply %d from %d", reply[0], st.Source)
			}
		case 1:
			var v [1]int32
			if st := Recv(task, nil, v[:], 0, 1); v[0] != 9 || st.Bytes != 4 {
				return fmt.Errorf("rank 1: got %d (%d bytes)", v[0], st.Bytes)
			}
		case 2:
			got := make([]int32, 3)
			st := Recv(task, nil, got, 0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Count != 3 || got[2] != 3 {
				return fmt.Errorf("rank 2: eager status %+v, data %v", st, got)
			}
			big := make([]int64, bigElems)
			st = Recv(task, nil, big, 0, 8)
			if st.Count != bigElems || st.Bytes != 8*bigElems {
				return fmt.Errorf("rank 2: rendezvous status %+v", st)
			}
			for i, v := range big {
				if v != int64(i) {
					return fmt.Errorf("rank 2: big[%d] = %d", i, v)
				}
			}
			Send(task, nil, []int64{77}, 0, 9)
		}
		return nil
	}
	w0, w1, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		st, ok := w.WireStats()
		if !ok || st.FramesSent == 0 || st.FramesReceived == 0 {
			t.Fatalf("world %d: wire stats %+v ok=%v", i, st, ok)
		}
		if out := w.Stats().EagerPoolOutstanding; out != 0 {
			t.Fatalf("world %d: %d eager buffers leaked", i, out)
		}
	}
	// The same-process message (0→1) must not have crossed the wire: one
	// eager frame each way for the 0↔2 exchanges, one RTS/CTS/Data
	// handshake, acks and hello — but no frame for tag 1.
	if st, _ := w0.WireStats(); st.FramesSent > 16 {
		t.Fatalf("world 0 sent %d frames; local traffic leaked onto the wire?", st.FramesSent)
	}
}

func TestWireWildcardNonOvertaking(t *testing.T) {
	const per = 25
	fn := func(task *Task) error {
		switch task.Rank() {
		case 0, 2: // one wire source, one local source
			for i := 0; i < per; i++ {
				Send(task, nil, []int32{int32(task.Rank()), int32(i)}, 3, i)
			}
		case 3:
			seen := map[int]int{}
			for k := 0; k < 2*per; k++ {
				var v [2]int32
				st := Recv(task, nil, v[:], AnySource, AnyTag)
				src, i := int(v[0]), int(v[1])
				if st.Source != src || st.Tag != i {
					return fmt.Errorf("status %+v disagrees with payload %v", st, v)
				}
				if seen[src] != i {
					return fmt.Errorf("source %d: message %d arrived after %d", src, i, seen[src])
				}
				seen[src]++
			}
		}
		return nil
	}
	_, _, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
}

func TestWireCollectivesAndSplit(t *testing.T) {
	fn := func(task *Task) error {
		n := task.Size()
		// Allreduce spans both nodes through the channel algorithms.
		out := []int64{0}
		Allreduce(task, nil, []int64{int64(task.Rank() + 1)}, out, OpSum)
		if want := int64(n * (n + 1) / 2); out[0] != want {
			return fmt.Errorf("rank %d: allreduce %d, want %d", task.Rank(), out[0], want)
		}
		// Bcast from a rank on node 1.
		buf := []int32{0}
		if task.Rank() == 2 {
			buf[0] = 123
		}
		Bcast(task, nil, buf, 2)
		if buf[0] != 123 {
			return fmt.Errorf("rank %d: bcast got %d", task.Rank(), buf[0])
		}
		// Split by parity: both resulting comms span both nodes, and their
		// contexts must be derived identically in both processes for any
		// traffic to match.
		c := Split(task, nil, task.Rank()%2, task.Rank())
		got := make([]int, c.Size())
		Allgather(task, c, []int{task.Rank()}, got)
		for i, r := range got {
			if r%2 != task.Rank()%2 || (i > 0 && got[i-1] >= r) {
				return fmt.Errorf("rank %d: split gathered %v", task.Rank(), got)
			}
		}
		Barrier(task, nil)
		return nil
	}
	_, _, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
}

func TestWirePeerKillMidRendezvousFailsSender(t *testing.T) {
	fn := func(task *Task) error {
		switch task.Rank() {
		case 0:
			big := make([]int64, 2048)
			Send(task, nil, big, 2, 1) // peer dies; Send must not hang
			return errors.New("send to dead rank completed")
		case 2:
			panic("killed by test")
		}
		return nil
	}
	_, _, err0, err1 := runWirePair(t, 2, fn)
	var dead *DeadRankError
	if !errors.As(err0, &dead) || dead.Dead != 2 {
		t.Fatalf("world 0: want DeadRankError{Dead: 2}, got %v", err0)
	}
	var rf *RankFailure
	if !errors.As(err1, &rf) || rf.Rank != 2 {
		t.Fatalf("world 1: want RankFailure{Rank: 2}, got %v", err1)
	}
}

// TestRankExitAfterCancelReportsCauseOverWire is
// TestRankExitAfterCancelReportsCause for a receive parked in the wire
// transaction table: world 0 is cancelled only as far as recording the
// cause, then the remote source exits. The exit reaches world 0 as a
// failure frame and fails the transaction, which must report the cancel
// cause, not the exit.
func TestRankExitAfterCancelReportsCauseOverWire(t *testing.T) {
	cause := errors.New("test cancel")
	exit := make(chan struct{})
	w0, _, err0, _ := runWirePair(t, 1, func(tk *Task) error {
		if tk.Rank() == 1 {
			<-exit
			panic("exits after the cancel")
		}
		w := tk.world
		go func() {
			for w.taskStates()[0].BlockedOn == "" {
				time.Sleep(time.Millisecond)
			}
			// Rank 1's RTS, matched by the posted receive: the
			// transaction parks waiting for data that never comes (world
			// 1 knows no such send, so it ignores the CTS).
			w.net.onRTS(1, &wire.Frame{Header: wire.Header{
				Type: wire.TypeRTS, Kind: uint8(reflect.Int64), Xid: 2<<48 | 1,
				Ctx: w.world.ctxUser, SrcComm: 1, SrcWorld: 1, DstWorld: 0, Elems: 8,
			}})
			// cancel's first half: the cause is recorded, nothing swept.
			w.fail.mu.Lock()
			w.fail.cancelled = cause
			w.fail.mu.Unlock()
			w.fail.failed.Store(true)
			close(exit)
		}()
		Recv(tk, nil, make([]int64, 8), 1, 0)
		return errors.New("receive from an exited rank completed")
	})
	if !errors.Is(err0, cause) {
		t.Fatalf("world 0 error = %v, want the cancel cause", err0)
	}
	var ce *CancelledError
	if re := w0.RankErrors()[0]; !errors.As(re, &ce) || ce.Rank != 0 || !errors.Is(re, cause) {
		t.Fatalf("rank 0 error = %v, want *CancelledError{Rank: 0} with the cancel cause", re)
	}
}

// TestCrossProcessRootCause: rank 3 is killed, and rank 2, on the same
// node, dies re-raising that failure in Recv(…, 3, …). Both deaths reach
// node 0 as failure frames. There FailureIn must still name rank 3, the
// root, and not rank 2, the lower dead rank.
func TestCrossProcessRootCause(t *testing.T) {
	w0, _, _, _ := runWirePairMode(t, 2, CollChannels, func(tk *Task) error {
		switch tk.Rank() {
		case 3:
			panic("rank 3 killed")
		case 2:
			Recv(tk, nil, make([]int64, 1), 3, 0)
			return errors.New("receive from a killed rank completed")
		}
		for deadline := time.Now().Add(10 * time.Second); !tk.world.RankDead(2) || !tk.world.RankDead(3); {
			if time.Now().After(deadline) {
				return errors.New("node 0 did not learn of both deaths")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	var dre *DeadRankError
	if err := w0.FailureIn(nil); !errors.As(err, &dre) || dre.Dead != 3 {
		t.Fatalf("node 0: FailureIn(nil) = %v, want a *DeadRankError naming rank 3", err)
	}
}

func TestWireConcurrentCrossTraffic(t *testing.T) {
	const msgs = 120
	fn := func(task *Task) error {
		partner := (task.Rank() + 2) % 4 // cross-node pairing: 0↔2, 1↔3
		reqs := make([]*Request, 0, msgs)
		bufs := make([][]int64, msgs)
		for i := 0; i < msgs; i++ {
			elems := 16
			if i%5 == 0 {
				elems = 1024 // force rendezvous every fifth message
			}
			out := make([]int64, elems)
			for j := range out {
				out[j] = int64(task.Rank()*1_000_000 + i)
			}
			reqs = append(reqs, Isend(task, nil, out, partner, i))
			bufs[i] = make([]int64, elems)
			reqs = append(reqs, Irecv(task, nil, bufs[i], partner, i))
		}
		Waitall(reqs)
		for i, b := range bufs {
			if want := int64(partner*1_000_000 + i); b[0] != want || b[len(b)-1] != want {
				return fmt.Errorf("rank %d msg %d: got %d/%d want %d", task.Rank(), i, b[0], b[len(b)-1], want)
			}
		}
		return nil
	}
	_, _, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
}

// TestWireShortMessageIntoStridedRecv sends rendezvous-size messages
// shorter than a strided receive's selection across the wire, once as a
// contiguous Data frame (unpacked whole by onData) and once as a typed
// send streamed in segments (onDataSeg). Exactly the message's elements
// must land, in selection order, and every other byte of the receive
// buffer must stay untouched.
func TestWireShortMessageIntoStridedRecv(t *testing.T) {
	// 3000 float64s pack to 24 000 B, past the eager limit; the receive
	// selects 4000, so unpacking the full selection would read past the
	// payload.
	const k, sel = 3000, 4000
	rdt := TypeVector(sel, 1, 2).Commit()
	sdt := TypeVector(k, 1, 3).Commit()
	fn := func(task *Task) error {
		switch task.Rank() {
		case 0:
			msg := make([]float64, k)
			for i := range msg {
				msg[i] = float64(i + 1)
			}
			Send(task, nil, msg, 2, 1)
			strided := make([]float64, 3*k)
			for i := range k {
				strided[3*i] = float64(i + 1)
			}
			SendTyped(task, nil, strided, sdt, 2, 2)
		case 2:
			for tag := 1; tag <= 2; tag++ {
				buf := make([]float64, 2*sel)
				for i := range buf {
					buf[i] = -1
				}
				st := RecvTyped(task, nil, buf, rdt, 0, tag)
				if st.Count != k {
					return fmt.Errorf("tag %d: status count %d, want %d", tag, st.Count, k)
				}
				for i, v := range buf {
					want := -1.0
					if i%2 == 0 && i/2 < k {
						want = float64(i/2 + 1)
					}
					if v != want {
						return fmt.Errorf("tag %d: buf[%d] = %v, want %v", tag, i, v, want)
					}
				}
			}
		}
		return nil
	}
	w0, w1, err0, err1 := runWirePair(t, 2, fn)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		if out := w.Stats().EagerPoolOutstanding; out != 0 {
			t.Fatalf("world %d: %d eager buffers leaked", i, out)
		}
	}
}
