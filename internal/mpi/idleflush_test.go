package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The idle-flush tests run batched wire worlds under a BatchWindow no
// test outlives, so every small frame waits in a batch until the world
// flushes it because all its local tasks are blocked (or a cap fills).
// Without that flush each hop would wait out the window, and the
// world's 20 s Timeout would fail the test instead.
const neverWindow = time.Hour

// TestIdleFlushBatchedOps: 200 rounds of a cross-node ping-pong, a
// Barrier, an 8 B Allreduce and a small Bcast over two-level collectives
// finish in seconds with batching on, and the frames really went out in
// batches.
func TestIdleFlushBatchedOps(t *testing.T) {
	const rounds = 200
	start := time.Now()
	w0, w1, err0, err1 := runWirePairWindow(t, 2, CollAuto, neverWindow, func(task *Task) error {
		n, r := task.Size(), task.Rank()
		peer := (r + n/2) % n // on the other node
		ping := make([]int64, 1)
		bc := make([]int64, 8)
		for i := 0; i < rounds; i++ {
			if r < n/2 {
				ping[0] = int64(i)
				Send(task, nil, ping, peer, i)
				Recv(task, nil, ping, peer, i)
			} else {
				Recv(task, nil, ping, peer, i)
				Send(task, nil, ping, peer, i)
			}
			if ping[0] != int64(i) {
				return fmt.Errorf("round %d: ping-pong carried %d", i, ping[0])
			}
			Barrier(task, nil)
			sum := []int64{0}
			Allreduce(task, nil, []int64{int64(r + 1)}, sum, OpSum)
			if want := int64(n * (n + 1) / 2); sum[0] != want {
				return fmt.Errorf("round %d: allreduce = %d, want %d", i, sum[0], want)
			}
			root := i % n
			if r == root {
				bc[0] = int64(i)
			}
			Bcast(task, nil, bc, root)
			if bc[0] != int64(i) {
				return fmt.Errorf("round %d: bcast from %d carried %d", i, root, bc[0])
			}
		}
		return nil
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("world errors after %v: %v / %v", time.Since(start), err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		st, _ := w.WireStats()
		if st.BatchesSent == 0 {
			t.Errorf("world %d sent no batches: %+v", i, st)
		}
	}
}

// TestIdleFlushBatchFill: when every local task posts its frame of a
// burst before any of them blocks, the idle flush finds the whole burst
// pending, so batches carry several frames each instead of one.
//
// Each round, all 16 ranks send one message to their peer on the other
// node. A task spins (it never parks) until its node's other 7 tasks
// have posted the round, and only then waits. So the busy count can
// reach zero only when all 8 tasks wait in the same round, after all 8
// posted it: a batch carries at least one round's 8 frames (the 64-frame
// cap is a whole number of rounds). An idle flush that missed a woken
// task, or a wake-up count that leaked, would strand a frame in the
// hour-long window, and the world's Timeout would fail the test.
//
// The collective loop afterwards is the correctness half: flat channel
// collectives over 8 ranks per node, in a batched world. Its fill
// depends on how the reader's wake-ups interleave with the woken tasks,
// so it is not gated.
func TestIdleFlushBatchFill(t *testing.T) {
	const rounds = 50
	var posted [2]atomic.Int32 // per node: round frames posted so far
	w0, w1, err0, err1 := runWirePairWindow(t, 8, CollChannels, neverWindow, func(task *Task) error {
		n, r := task.Size(), task.Rank()
		node, peer := r/(n/2), (r+n/2)%n
		in, out := []int64{0}, []int64{0}
		for i := 0; i < rounds; i++ {
			out[0] = int64(r*rounds + i)
			reqs := []*Request{Irecv(task, nil, in, peer, i), Isend(task, nil, out, peer, i)}
			posted[node].Add(1)
			for posted[node].Load() < int32((i+1)*n/2) {
				runtime.Gosched()
			}
			Waitall(reqs)
			if in[0] != int64(peer*rounds+i) {
				return fmt.Errorf("round %d: from %d got %d", i, peer, in[0])
			}
		}
		return nil
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("world errors: %v / %v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		st, _ := w.WireStats()
		t.Logf("world %d: %d frames in %d batches", i, st.BatchedFrames, st.BatchesSent)
		if st.BatchesSent == 0 || st.BatchedFrames < 2*st.BatchesSent {
			t.Errorf("world %d: batch fill %d/%d, want >= 2", i, st.BatchedFrames, st.BatchesSent)
		}
	}

	w0, w1, err0, err1 = runWirePairWindow(t, 8, CollChannels, neverWindow, func(task *Task) error {
		n := task.Size()
		for i := 0; i < rounds; i++ {
			buf := []int64{0}
			if task.Rank() == i%n {
				buf[0] = int64(i)
			}
			Bcast(task, nil, buf, i%n)
			if buf[0] != int64(i) {
				return fmt.Errorf("round %d: bcast carried %d", i, buf[0])
			}
			sum := []int64{0}
			Allreduce(task, nil, []int64{1}, sum, OpSum)
			if sum[0] != int64(n) {
				return fmt.Errorf("round %d: allreduce = %d, want %d", i, sum[0], n)
			}
		}
		return nil
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("collective world errors: %v / %v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		if st, _ := w.WireStats(); st.BatchesSent == 0 {
			t.Errorf("collective world %d sent no batches: %+v", i, st)
		}
	}
}

// TestIdleFlushCountNoDrift runs Waitall/Waitany completion races in a
// batched wire world — receives completed by the transport's reader and
// by the other local task, in every interleaving the scheduler finds —
// and checks the busy count afterwards: exactly the local task count
// while both tasks run outside the runtime, and zero once they returned.
// A leaked or doubled wake-up count would show as drift.
func TestIdleFlushCountNoDrift(t *testing.T) {
	const rounds = 300
	var mu sync.Mutex
	var inGate []int32
	var done, arrive, leave [2]sync.WaitGroup // two-task meetings, one set per world
	for i := range arrive {
		done[i].Add(2)
		arrive[i].Add(2)
		leave[i].Add(2)
	}
	w0, w1, err0, err1 := runWirePairWindow(t, 2, CollAuto, neverWindow, func(task *Task) error {
		err := driftRounds(task, rounds)
		g := task.Rank() / 2
		// Meet inside a Block bracket first. A task that waited for
		// its sibling outside the runtime would hold the idle flush
		// back, stranding a frame the sibling just batched for the
		// other node (its last Ssend, say); the second task to block
		// here flushes it.
		task.Block("test: drift rounds done", nil)
		done[g].Done()
		done[g].Wait()
		task.Unblock()
		// Both tasks of this world meet outside the runtime: neither is
		// parked, so the count must read exactly 2.
		arrive[g].Done()
		arrive[g].Wait()
		mu.Lock()
		inGate = append(inGate, task.world.idle.busy.Load())
		mu.Unlock()
		leave[g].Done()
		leave[g].Wait()
		return err
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("world errors: %v / %v", err0, err1)
	}
	for _, b := range inGate {
		if b != 2 {
			t.Errorf("busy count with both local tasks running = %v, want 2", inGate)
			break
		}
	}
	for i, w := range []*World{w0, w1} {
		if b := w.idle.busy.Load(); b != 0 {
			t.Errorf("world %d: busy count after Run = %d, want 0", i, b)
		}
	}
}

// TestIdleFlushNoDriftOnRaise: rank 3 is killed between two Barriers of
// a batched two-level world, so the survivors' second Barrier raises
// from inside its wait bracket (the node-local shm phase). The bracket
// is closed before the raise, so each world's busy count still reads 0
// after Run: a raising task is taken off it once, at its exit.
func TestIdleFlushNoDriftOnRaise(t *testing.T) {
	w0, w1, err0, err1 := runWirePairWindow(t, 2, CollTwoLevel, neverWindow, func(task *Task) error {
		Barrier(task, nil)
		if task.Rank() == 3 {
			panic("rank 3 killed")
		}
		Barrier(task, nil)
		return errors.New("barrier with a killed member completed")
	})
	if err0 == nil || err1 == nil {
		t.Fatalf("world errors: %v / %v, want both to report the failure", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		if b := w.idle.busy.Load(); b != 0 {
			t.Errorf("world %d: busy count after Run = %d, want 0", i, b)
		}
	}
}

// driftRounds exchanges one message with every other rank per round and
// completes the round alternately with Waitall and a Waitany loop. Each
// round then passes one message around the ring, received by a blocking
// Probe and then a Recv, and makes one Ssend/RecvSsend exchange with the
// peer on the other node: so the request waits (park) and Probe's cond
// wait (enter/leave) are all under the count check.
func driftRounds(task *Task, rounds int) error {
	n, r := task.Size(), task.Rank()
	reqs := make([]*Request, 0, 2*(n-1))
	bufs := make([][]int64, n)
	for i := range bufs {
		bufs[i] = make([]int64, 1)
	}
	for i := 0; i < rounds; i++ {
		reqs = reqs[:0]
		for p := 0; p < n; p++ {
			if p != r {
				reqs = append(reqs, Irecv(task, nil, bufs[p], p, i))
			}
		}
		for p := 0; p < n; p++ {
			if p != r {
				reqs = append(reqs, Isend(task, nil, []int64{int64(r*rounds + i)}, p, i))
			}
		}
		if i%2 == 0 {
			Waitall(reqs)
		} else {
			for pending := reqs; len(pending) > 0; {
				j, _ := Waitany(pending)
				pending = append(pending[:j], pending[j+1:]...)
			}
		}
		for p := 0; p < n; p++ {
			if p != r && bufs[p][0] != int64(p*rounds+i) {
				return fmt.Errorf("round %d: from %d got %d", i, p, bufs[p][0])
			}
		}

		next, prev := (r+1)%n, (r-1+n)%n
		Send(task, nil, []int64{int64(r*rounds + i)}, next, rounds+i)
		if st := Probe(task, nil, prev, rounds+i); st.Source != prev || st.Count != 1 {
			return fmt.Errorf("round %d: probe status %+v, want one element from %d", i, st, prev)
		}
		Recv(task, nil, bufs[prev], prev, rounds+i)
		if bufs[prev][0] != int64(prev*rounds+i) {
			return fmt.Errorf("round %d: probed message from %d carried %d", i, prev, bufs[prev][0])
		}

		far := (r + n/2) % n
		out := []int64{int64(r*rounds + i)}
		if r < n/2 {
			Ssend(task, nil, out, far, 2*rounds+i)
			RecvSsend(task, nil, bufs[far], far, 2*rounds+i)
		} else {
			RecvSsend(task, nil, bufs[far], far, 2*rounds+i)
			Ssend(task, nil, out, far, 2*rounds+i)
		}
		if bufs[far][0] != int64(far*rounds+i) {
			return fmt.Errorf("round %d: Ssend from %d carried %d", i, far, bufs[far][0])
		}
	}
	return nil
}

// TestIdleFlushCountsBlockOn: a task waiting in a Block/Unblock
// bracket counts as blocked, so it does not hold a batched world's
// flush back. Rank 0 sends 8 B to rank 2 on the other node and then
// waits, bracketed, on a channel that closes only once rank 2's reply
// has reached rank 1. Rank 1 is parked in Recv, so rank 0's bracket is
// what brings node 0's busy count to zero: if the bracket were not
// counted, the 8 B frame would sit in its batch for the whole window.
func TestIdleFlushCountsBlockOn(t *testing.T) {
	const window = 2 * time.Second
	replied := make(chan struct{})
	var waited time.Duration
	_, _, err0, err1 := runWirePairWindow(t, 2, CollAuto, window, func(task *Task) error {
		// The first frames to a peer go out when its connection comes
		// up, batched or not; the Barrier makes sure both are up.
		Barrier(task, nil)
		buf := []int64{0}
		switch task.Rank() {
		case 0:
			start := time.Now()
			Send(task, nil, []int64{7}, 2, 0)
			task.Block("test: reply reached rank 1", nil)
			<-replied
			task.Unblock()
			waited = time.Since(start)
		case 1:
			Recv(task, nil, buf, 2, 1)
			close(replied)
		case 2:
			Recv(task, nil, buf, 0, 0)
			Send(task, nil, buf, 1, 1)
		}
		if task.Rank() == 1 && buf[0] != 7 {
			return fmt.Errorf("rank 1: reply carried %d, want 7", buf[0])
		}
		return nil
	})
	if err0 != nil || err1 != nil {
		t.Fatalf("world errors: %v / %v", err0, err1)
	}
	if waited >= window/4 {
		t.Fatalf("rank 0 waited %v for the round trip, want well under the %v window", waited, window)
	}
}
