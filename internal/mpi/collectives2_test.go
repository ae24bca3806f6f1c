package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestSsendSynchronizes(t *testing.T) {
	// A small Ssend must not complete before the receiver matches it.
	var order []string
	done := make(chan struct{})
	_, err := Run(Config{NumTasks: 2, Timeout: 30 * time.Second}, func(task *Task) error {
		if task.Rank() == 0 {
			Ssend(task, nil, []int{7}, 1, 0)
			order = append(order, "send-complete")
			close(done)
		} else {
			time.Sleep(50 * time.Millisecond)
			select {
			case <-done:
				return fmt.Errorf("small Ssend completed before the receive was posted")
			default:
			}
			buf := make([]int, 1)
			RecvSsend(task, nil, buf, 0, 0)
			if buf[0] != 7 {
				return fmt.Errorf("payload %d", buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSsendLargeUsesRendezvous(t *testing.T) {
	_, err := Run(Config{NumTasks: 2, Timeout: 30 * time.Second}, func(task *Task) error {
		big := make([]float64, 4096)
		if task.Rank() == 0 {
			Ssend(task, nil, big, 1, 0)
		} else {
			RecvSsend(task, nil, big, 0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherv(t *testing.T) {
	const n = 5
	run(t, n, func(task *Task) error {
		r := task.Rank()
		counts := make([]int, n)
		displs := make([]int, n)
		total := 0
		for i := 0; i < n; i++ {
			counts[i] = i + 1
			displs[i] = total
			total += counts[i]
		}
		send := make([]int, counts[r])
		for i := range send {
			send[i] = r*10 + i
		}
		recv := make([]int, total)
		Allgatherv(task, nil, send, recv, counts, displs)
		for src := 0; src < n; src++ {
			for i := 0; i < counts[src]; i++ {
				if recv[displs[src]+i] != src*10+i {
					return fmt.Errorf("rank %d: recv[%d] = %d", r, displs[src]+i, recv[displs[src]+i])
				}
			}
		}
		return nil
	})
}

func TestAllgathervValidation(t *testing.T) {
	if err := runErr(2, func(task *Task) error {
		Allgatherv(task, nil, []int{1}, make([]int, 2), []int{1}, []int{0, 1})
		return nil
	}); err == nil {
		t.Error("bad counts length accepted")
	}
	if err := runErr(2, func(task *Task) error {
		Allgatherv(task, nil, []int{1, 2}, make([]int, 2), []int{1, 1}, []int{0, 1})
		return nil
	}); err == nil {
		t.Error("send length != counts[rank] accepted")
	}
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	run(t, n, func(task *Task) error {
		r := task.Rank()
		// Rank r sends (dst+1) elements of value r*100+dst to each dst.
		sendCounts := make([]int, n)
		sendDispls := make([]int, n)
		total := 0
		for dst := 0; dst < n; dst++ {
			sendCounts[dst] = dst + 1
			sendDispls[dst] = total
			total += dst + 1
		}
		send := make([]int, total)
		for dst := 0; dst < n; dst++ {
			for i := 0; i < sendCounts[dst]; i++ {
				send[sendDispls[dst]+i] = r*100 + dst
			}
		}
		// Everyone sends me (r+1) elements.
		recvCounts := make([]int, n)
		recvDispls := make([]int, n)
		total = 0
		for src := 0; src < n; src++ {
			recvCounts[src] = r + 1
			recvDispls[src] = total
			total += r + 1
		}
		recv := make([]int, total)
		Alltoallv(task, nil, send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
		for src := 0; src < n; src++ {
			for i := 0; i < recvCounts[src]; i++ {
				if got := recv[recvDispls[src]+i]; got != src*100+r {
					return fmt.Errorf("rank %d: from %d got %d", r, src, got)
				}
			}
		}
		return nil
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const n, block = 4, 3
	run(t, n, func(task *Task) error {
		r := task.Rank()
		send := make([]float64, n*block)
		for i := range send {
			send[i] = float64(r + 1) // sum over ranks = n(n+1)/2
		}
		recv := make([]float64, block)
		ReduceScatterBlock(task, nil, send, recv, OpSum)
		want := float64(n * (n + 1) / 2)
		for i, v := range recv {
			if v != want {
				return fmt.Errorf("rank %d: recv[%d] = %v, want %v", r, i, v, want)
			}
		}
		return nil
	})
}

func TestReduceScatterBlockValidation(t *testing.T) {
	if err := runErr(2, func(task *Task) error {
		ReduceScatterBlock(task, nil, make([]float64, 3), make([]float64, 2), OpSum)
		return nil
	}); err == nil {
		t.Error("indivisible send buffer accepted")
	}
}

func TestAllreduceRDAllSizes(t *testing.T) {
	// Recursive doubling must agree with the straightforward algorithm
	// for power-of-two and non-power-of-two sizes alike, and hand every
	// pooled receive buffer back.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16} {
		w := run(t, n, func(task *Task) error {
			send := []float64{float64(task.Rank() + 1), float64(task.Rank() * task.Rank())}
			rd := make([]float64, 2)
			plain := make([]float64, 2)
			AllreduceRD(task, nil, send, rd, OpSum)
			Allreduce(task, nil, send, plain, OpSum)
			if rd[0] != plain[0] || rd[1] != plain[1] {
				return fmt.Errorf("n=%d rank=%d: RD %v != plain %v", n, task.Rank(), rd, plain)
			}
			return nil
		})
		if out := w.Stats().EagerPoolOutstanding; out != 0 {
			t.Errorf("n=%d: %d eager buffers outstanding after Run, want 0", n, out)
		}
	}
}

func TestAllreduceRDOps(t *testing.T) {
	for _, op := range []Op{OpSum, OpMax, OpMin, OpProd} {
		run(t, 6, func(task *Task) error {
			send := []float64{float64(task.Rank() + 1)}
			rd := make([]float64, 1)
			plain := make([]float64, 1)
			AllreduceRD(task, nil, send, rd, op)
			Allreduce(task, nil, send, plain, op)
			if rd[0] != plain[0] {
				return fmt.Errorf("op %v: RD %v != plain %v", op, rd[0], plain[0])
			}
			return nil
		})
	}
}

func TestAllreduceRDRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, k = 7, 9
	inputs := make([][]float64, n)
	want := make([]float64, k)
	for r := range inputs {
		inputs[r] = make([]float64, k)
		for i := range inputs[r] {
			inputs[r][i] = float64(rng.Intn(100))
			want[i] += inputs[r][i]
		}
	}
	run(t, n, func(task *Task) error {
		recv := make([]float64, k)
		AllreduceRD(task, nil, inputs[task.Rank()], recv, OpSum)
		for i := range recv {
			if recv[i] != want[i] {
				return fmt.Errorf("recv[%d] = %v, want %v", i, recv[i], want[i])
			}
		}
		return nil
	})
}
