package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestPersistentHaloPattern(t *testing.T) {
	// The canonical use: a ring halo exchange re-armed every step.
	const n, steps = 4, 10
	run(t, n, func(task *Task) error {
		r := task.Rank()
		right := (r + 1) % n
		left := (r - 1 + n) % n
		out := make([]int, 1)
		in := make([]int, 1)
		reqs := []*Persistent{
			SendInit(task, nil, out, right, 7),
			RecvInit(task, nil, in, left, 7),
		}
		for s := 0; s < steps; s++ {
			out[0] = r*1000 + s // buffer re-read at each Start
			StartAll(reqs)
			WaitAllPersistent(reqs)
			if in[0] != left*1000+s {
				return fmt.Errorf("step %d rank %d: got %d, want %d", s, r, in[0], left*1000+s)
			}
		}
		return nil
	})
}

func TestPersistentValidationAtInit(t *testing.T) {
	err := runErr(2, func(task *Task) error {
		SendInit(task, nil, []int{1}, 9, 0)
		return nil
	})
	if err == nil {
		t.Error("bad destination accepted at init")
	}
	err = runErr(2, func(task *Task) error {
		SendInit(task, nil, []int{1}, 1, -2)
		return nil
	})
	if err == nil {
		t.Error("negative tag accepted at init")
	}
	err = runErr(2, func(task *Task) error {
		RecvInit(task, nil, []int{1}, 9, 0)
		return nil
	})
	if err == nil {
		t.Error("bad source accepted at init")
	}
}

func TestPersistentDoubleStartPanics(t *testing.T) {
	err := runErr(2, func(task *Task) error {
		if task.Rank() == 0 {
			// A receive that never matches stays active.
			p := RecvInit(task, nil, make([]int, 1), 1, 5)
			p.Start()
			p.Start() // must panic
		}
		return nil
	})
	if err == nil {
		t.Error("double Start accepted")
	}
}

func TestPersistentWaitBeforeStartPanics(t *testing.T) {
	err := runErr(1, func(task *Task) error {
		p := RecvInit(task, nil, make([]int, 1), 0, 0)
		p.Wait()
		return nil
	})
	if err == nil {
		t.Error("Wait before Start accepted")
	}
}

// TestPersistentWaitNamesPeer: a persistent receive stuck in Wait is
// attributed to its bound source and tag in the watchdog's report.
func TestPersistentWaitNamesPeer(t *testing.T) {
	_, err := Run(Config{NumTasks: 2, Watchdog: 10 * time.Millisecond, Timeout: 10 * time.Second},
		func(tk *Task) error {
			if tk.Rank() == 0 {
				p := RecvInit(tk, nil, make([]int, 1), 1, 3) // never sent
				p.Start()
				p.Wait()
			} else {
				Recv(tk, nil, make([]int, 1), 0, 9) // never sent
			}
			return nil
		})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if got, want := de.Tasks[0].BlockedOn, "persistent recv(src=1, tag=3)"; got != want {
		t.Errorf("rank 0 blocked on %q, want %q", got, want)
	}
}

func TestPersistentTest(t *testing.T) {
	run(t, 2, func(task *Task) error {
		if task.Rank() == 0 {
			p := RecvInit(task, nil, make([]int, 1), 1, 0)
			if _, done := p.Test(); done {
				return fmt.Errorf("unstarted request reports done")
			}
			p.Start()
			Send(task, nil, []int{1}, 0, 99) // unrelated
			st := p.Wait()
			if st.Source != 1 {
				return fmt.Errorf("status %+v", st)
			}
			buf := make([]int, 1)
			Recv(task, nil, buf, 0, 99)
			// Restart works after completion.
			p.Start()
			p.Wait()
		} else {
			Send(task, nil, []int{5}, 0, 0)
			Send(task, nil, []int{6}, 0, 0)
		}
		return nil
	})
}

func TestWaitany(t *testing.T) {
	run(t, 3, func(task *Task) error {
		if task.Rank() == 0 {
			bufs := [][]int{make([]int, 1), make([]int, 1)}
			reqs := []*Request{
				Irecv(task, nil, bufs[0], 1, 0),
				Irecv(task, nil, bufs[1], 2, 0),
			}
			first, st := Waitany(reqs)
			if st.Source != first+1 {
				return fmt.Errorf("Waitany index %d but status source %d", first, st.Source)
			}
			// Drain the other one.
			reqs[1-first].Wait()
			if bufs[0][0] != 100 || bufs[1][0] != 200 {
				return fmt.Errorf("payloads %v %v", bufs[0], bufs[1])
			}
		} else {
			Send(task, nil, []int{task.Rank() * 100}, 0, 0)
		}
		return nil
	})
}

func TestWaitanyFastPath(t *testing.T) {
	run(t, 2, func(task *Task) error {
		if task.Rank() == 0 {
			done := Isend(task, nil, []int{1}, 1, 0) // eager: already complete
			pending := Irecv(task, nil, make([]int, 1), 1, 1)
			idx, _ := Waitany([]*Request{pending, done})
			if idx != 1 {
				return fmt.Errorf("Waitany picked %d, want the completed send (1)", idx)
			}
			Send(task, nil, []int{2}, 1, 2)
			pending.Wait()
		} else {
			buf := make([]int, 1)
			Recv(task, nil, buf, 0, 0)
			Recv(task, nil, buf, 0, 2)
			Send(task, nil, []int{3}, 0, 1)
		}
		return nil
	})
}

func TestWaitanyEmptyPanics(t *testing.T) {
	err := runErr(1, func(task *Task) error {
		Waitany(nil)
		return nil
	})
	if err == nil {
		t.Error("empty Waitany accepted")
	}
}
