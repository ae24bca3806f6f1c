package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierOrdering(t *testing.T) {
	// No task may leave the barrier before every task has entered it.
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16} {
		var entered atomic.Int32
		run(t, n, func(task *Task) error {
			entered.Add(1)
			Barrier(task, nil)
			if got := entered.Load(); got != int32(n) {
				return fmt.Errorf("n=%d: left barrier with %d entered", n, got)
			}
			return nil
		})
	}
}

func TestBarrierRepeated(t *testing.T) {
	// Phase counter: every task must observe every phase completely.
	const n, phases = 5, 20
	counts := make([]atomic.Int32, phases)
	run(t, n, func(task *Task) error {
		for p := 0; p < phases; p++ {
			counts[p].Add(1)
			Barrier(task, nil)
			if got := counts[p].Load(); got != int32(n) {
				return fmt.Errorf("phase %d: %d/%d", p, got, n)
			}
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root += max(1, n/3) {
			run(t, n, func(task *Task) error {
				buf := make([]float64, 10)
				if task.Rank() == root {
					for i := range buf {
						buf[i] = float64(root*100 + i)
					}
				}
				Bcast(task, nil, buf, root)
				for i := range buf {
					if buf[i] != float64(root*100+i) {
						return fmt.Errorf("n=%d root=%d rank=%d: buf[%d]=%v", n, root, task.Rank(), i, buf[i])
					}
				}
				return nil
			})
		}
	}
}

func TestBcastLarge(t *testing.T) {
	// Rendezvous-sized broadcast payload.
	const k = 10000
	run(t, 6, func(task *Task) error {
		buf := make([]float64, k)
		if task.Rank() == 2 {
			for i := range buf {
				buf[i] = float64(i)
			}
		}
		Bcast(task, nil, buf, 2)
		if buf[k-1] != float64(k-1) {
			return fmt.Errorf("rank %d: tail %v", task.Rank(), buf[k-1])
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 9} {
		run(t, n, func(task *Task) error {
			send := []int{task.Rank() + 1, task.Rank() * 2}
			recv := make([]int, 2)
			Reduce(task, nil, send, recv, OpSum, 0)
			if task.Rank() == 0 {
				wantA := n * (n + 1) / 2
				wantB := n * (n - 1) // sum of 2r
				if recv[0] != wantA || recv[1] != wantB {
					return fmt.Errorf("n=%d: reduce = %v, want [%d %d]", n, recv, wantA, wantB)
				}
			}
			return nil
		})
	}
}

func TestReduceOps(t *testing.T) {
	const n = 6
	cases := []struct {
		op   Op
		want float64
	}{
		{OpSum, 15}, // 0+1+..+5
		{OpProd, 0}, // contains 0
		{OpMax, 5},
		{OpMin, 0},
	}
	for _, c := range cases {
		run(t, n, func(task *Task) error {
			recv := make([]float64, 1)
			Reduce(task, nil, []float64{float64(task.Rank())}, recv, c.op, n-1)
			if task.Rank() == n-1 && recv[0] != c.want {
				return fmt.Errorf("op %v = %v, want %v", c.op, recv[0], c.want)
			}
			return nil
		})
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		run(t, n, func(task *Task) error {
			recv := make([]float64, 1)
			Allreduce(task, nil, []float64{1}, recv, OpSum)
			if recv[0] != float64(n) {
				return fmt.Errorf("n=%d rank=%d: allreduce = %v", n, task.Rank(), recv[0])
			}
			return nil
		})
	}
}

func TestGatherScatter(t *testing.T) {
	const n, k = 5, 3
	run(t, n, func(task *Task) error {
		r := task.Rank()
		send := make([]int, k)
		for i := range send {
			send[i] = r*10 + i
		}
		recv := make([]int, n*k)
		Gather(task, nil, send, recv, 1)
		if r == 1 {
			for src := 0; src < n; src++ {
				for i := 0; i < k; i++ {
					if recv[src*k+i] != src*10+i {
						return fmt.Errorf("gather[%d][%d] = %d", src, i, recv[src*k+i])
					}
				}
			}
			// Scatter it back doubled.
			for i := range recv {
				recv[i] *= 2
			}
		}
		back := make([]int, k)
		Scatter(task, nil, recv, back, 1)
		for i := 0; i < k; i++ {
			if back[i] != 2*(r*10+i) {
				return fmt.Errorf("scatter rank %d: %v", r, back)
			}
		}
		return nil
	})
}

func TestGathervScatterv(t *testing.T) {
	const n = 4
	run(t, n, func(task *Task) error {
		r := task.Rank()
		// Rank r contributes r+1 elements.
		send := make([]float64, r+1)
		for i := range send {
			send[i] = float64(r)
		}
		counts := make([]int, n)
		displs := make([]int, n)
		total := 0
		for i := 0; i < n; i++ {
			counts[i] = i + 1
			displs[i] = total
			total += counts[i]
		}
		recv := make([]float64, total)
		Gatherv(task, nil, send, recv, counts, displs, 0)
		if r == 0 {
			idx := 0
			for src := 0; src < n; src++ {
				for i := 0; i < counts[src]; i++ {
					if recv[idx] != float64(src) {
						return fmt.Errorf("gatherv[%d] = %v, want %d", idx, recv[idx], src)
					}
					idx++
				}
			}
		}
		out := make([]float64, counts[r])
		Scatterv(task, nil, recv, counts, displs, out, 0)
		for _, v := range out {
			if v != float64(r) {
				return fmt.Errorf("scatterv rank %d got %v", r, out)
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		run(t, n, func(task *Task) error {
			r := task.Rank()
			recv := make([]int, n*2)
			Allgather(task, nil, []int{r, r * r}, recv)
			for src := 0; src < n; src++ {
				if recv[2*src] != src || recv[2*src+1] != src*src {
					return fmt.Errorf("n=%d rank=%d: allgather = %v", n, r, recv)
				}
			}
			return nil
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6} {
		run(t, n, func(task *Task) error {
			r := task.Rank()
			send := make([]int, n)
			for j := range send {
				send[j] = r*100 + j // destined to rank j
			}
			recv := make([]int, n)
			Alltoall(task, nil, send, recv)
			for src := 0; src < n; src++ {
				if recv[src] != src*100+r {
					return fmt.Errorf("n=%d rank=%d: alltoall = %v", n, r, recv)
				}
			}
			return nil
		})
	}
}

func TestScan(t *testing.T) {
	const n = 7
	run(t, n, func(task *Task) error {
		r := task.Rank()
		recv := make([]int, 1)
		Scan(task, nil, []int{r + 1}, recv, OpSum)
		want := (r + 1) * (r + 2) / 2
		if recv[0] != want {
			return fmt.Errorf("rank %d: scan = %d, want %d", r, recv[0], want)
		}
		return nil
	})
}

func TestCollectiveSequencePipelining(t *testing.T) {
	// Back-to-back collectives must not confuse each other's traffic even
	// when some ranks race ahead.
	const n = 4
	run(t, n, func(task *Task) error {
		for i := 0; i < 25; i++ {
			buf := []int{0}
			if task.Rank() == i%n {
				buf[0] = i
			}
			Bcast(task, nil, buf, i%n)
			if buf[0] != i {
				return fmt.Errorf("iteration %d: got %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestReduceRandomized(t *testing.T) {
	// Property: Reduce(OpSum) equals the serial sum for random inputs.
	rng := rand.New(rand.NewSource(7))
	const n, k = 6, 17
	inputs := make([][]float64, n)
	want := make([]float64, k)
	for r := range inputs {
		inputs[r] = make([]float64, k)
		for i := range inputs[r] {
			inputs[r][i] = float64(rng.Intn(1000))
			want[i] += inputs[r][i]
		}
	}
	run(t, n, func(task *Task) error {
		recv := make([]float64, k)
		Allreduce(task, nil, inputs[task.Rank()], recv, OpSum)
		for i := range recv {
			if recv[i] != want[i] {
				return fmt.Errorf("allreduce[%d] = %v, want %v", i, recv[i], want[i])
			}
		}
		return nil
	})
}

func TestCommDup(t *testing.T) {
	run(t, 4, func(task *Task) error {
		dup := Dup(task, nil)
		if dup.Size() != 4 || dup.Rank(task) != task.Rank() {
			return fmt.Errorf("dup size/rank wrong")
		}
		// Traffic on dup must not match traffic on world.
		if task.Rank() == 0 {
			Send(task, dup, []int{1}, 1, 0)
			Send(task, nil, []int{2}, 1, 0)
		} else if task.Rank() == 1 {
			buf := make([]int, 1)
			Recv(task, nil, buf, 0, 0)
			if buf[0] != 2 {
				return fmt.Errorf("world recv got dup message: %d", buf[0])
			}
			Recv(task, dup, buf, 0, 0)
			if buf[0] != 1 {
				return fmt.Errorf("dup recv got %d", buf[0])
			}
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	const n = 6
	run(t, n, func(task *Task) error {
		r := task.Rank()
		// Even/odd split, reverse rank order via key.
		sub := Split(task, nil, r%2, -r)
		if sub.Size() != 3 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		// key=-r means higher world rank first.
		wantRank := map[int]int{0: 2, 2: 1, 4: 0, 1: 2, 3: 1, 5: 0}[r]
		if got := sub.Rank(task); got != wantRank {
			return fmt.Errorf("world rank %d has sub rank %d, want %d", r, got, wantRank)
		}
		// Collectives work inside the sub-communicator.
		recv := make([]int, 1)
		Allreduce(task, sub, []int{r}, recv, OpSum)
		want := 0 + 2 + 4
		if r%2 == 1 {
			want = 1 + 3 + 5
		}
		if recv[0] != want {
			return fmt.Errorf("sub allreduce = %d, want %d", recv[0], want)
		}
		return nil
	})
}

func TestCommSplitUndefined(t *testing.T) {
	run(t, 4, func(task *Task) error {
		color := 0
		if task.Rank() == 3 {
			color = Undefined
		}
		sub := Split(task, nil, color, 0)
		if task.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("undefined rank got a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			return fmt.Errorf("sub = %v", sub)
		}
		return nil
	})
}

func TestInvalidRootFatal(t *testing.T) {
	err := runErr(2, func(task *Task) error {
		Bcast(task, nil, []int{1}, 7)
		return nil
	})
	if err == nil {
		t.Error("invalid root accepted")
	}
}

func TestOpString(t *testing.T) {
	for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
		if op.String() == "" {
			t.Errorf("empty name for op %d", op)
		}
	}
}

// TestCollectiveWaitNamesOpAndPeer: a rank stuck in a channel
// collective's hop is reported by the deadlock watchdog with the
// collective's name, the direction and the peer, for a receive and for
// a rendezvous send.
func TestCollectiveWaitNamesOpAndPeer(t *testing.T) {
	big := make([]int64, DefaultEagerLimit) // 8x the eager limit in bytes: rendezvous
	for _, tc := range []struct {
		name  string
		stuck int // the rank blocked in the collective
		want  string
	}{
		{"recv", 0, "Bcast recv(src=1, tag="},
		{"rendezvous send", 1, "Bcast rendezvous send(dst=0, tag="},
	} {
		_, err := Run(Config{NumTasks: 2, Collectives: CollChannels, Watchdog: 10 * time.Millisecond, Timeout: 10 * time.Second},
			func(tk *Task) error {
				if tk.Rank() == tc.stuck {
					Bcast(tk, nil, big, 1)
				} else {
					Recv(tk, nil, big[:1], tc.stuck, 5) // never sent
				}
				return nil
			})
		var de *DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err = %v, want *DeadlockError", tc.name, err)
		}
		if got := de.Tasks[tc.stuck].BlockedOn; !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: rank %d blocked on %q, want prefix %q", tc.name, tc.stuck, got, tc.want)
		}
	}
}
