package rma

import (
	"strings"
	"testing"

	"hls/internal/mpi"
	"hls/internal/trace"
)

// TestRecorderRecordsEpochsAndOps: a window built WithRecorder writes
// one "rma-epoch" slice per closed epoch and one "rma" slice per
// operation, named after the window.
func TestRecorderRecordsEpochsAndOps(t *testing.T) {
	rec := trace.NewRecorder()
	w := testWorld(t, 4)
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocate[float64](task, nil, 4, WithName("tw"), WithRecorder(rec))
		win.Fence(task)
		win.Put(task, []float64{1, 2}, (task.Rank()+1)%4, 0)
		win.Fence(task)
		win.Lock(task, LockShared, 0)
		win.Accumulate(task, []float64{1}, 0, 0, mpi.OpSum)
		win.Unlock(task, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rec.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"cat":"rma-epoch"`, `"cat":"rma"`, `"name":"tw/put"`, `"name":"tw/accumulate"`, `"name":"tw/lock:0"`, `"bytes":16`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %s", want)
		}
	}
	// 4 closed fence epochs + 4 puts + 4 lock epochs + 4 accumulates, plus
	// the 4 still-open second fence epochs which emit nothing.
	if got := rec.Len(); got != 16 {
		t.Errorf("events = %d, want 16", got)
	}
}

// TestStats: every operation, epoch and lock handover is counted once,
// on its origin, whether or not the window records a trace.
func TestStats(t *testing.T) {
	const n = 4
	w := testWorld(t, n)
	var win *Window[int64]
	if err := w.Run(func(task *mpi.Task) error {
		me := task.Rank()
		x := WinAllocate[int64](task, nil, 4)
		if me == 0 {
			win = x
		}
		x.Fence(task)
		x.Put(task, []int64{1, 2}, (me+1)%n, 0)
		x.Get(task, make([]int64, 1), (me+1)%n, 0)
		x.Fence(task)
		x.Lock(task, LockExclusive, 0)
		x.Accumulate(task, []int64{1, 1, 1}, 0, 0, mpi.OpSum)
		x.Flush(task, 0)
		x.Unlock(task, 0)
		// PSCW ring: expose to the left neighbour, access the right one.
		x.Post(task, (me+n-1)%n)
		x.Start(task, (me+1)%n)
		x.Complete(task)
		x.Wait(task)
		x.Free(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s := win.Stats()
	if want := [3]int64{n, n, n}; s.Ops != want {
		t.Errorf("Ops = %v, want %v", s.Ops, want)
	}
	if want := [3]int64{n * 16, n * 8, n * 24}; s.OpBytes != want {
		t.Errorf("OpBytes = %v, want %v", s.OpBytes, want)
	}
	// Two fences open two fence epochs per rank and close one; every
	// access, expose and lock epoch closed.
	if want := [4]int64{2 * n, n, n, n}; s.EpochsOpened != want {
		t.Errorf("EpochsOpened = %v, want %v", s.EpochsOpened, want)
	}
	if want := [4]int64{n, n, n, n}; s.EpochsClosed != want {
		t.Errorf("EpochsClosed = %v, want %v", s.EpochsClosed, want)
	}
	for k, ns := range s.EpochNs {
		if ns <= 0 {
			t.Errorf("EpochNs[%s] = %d, want > 0", EpochKinds[k], ns)
		}
	}
	if s.LockPublishes != 2*n || s.LockAcquires != n {
		t.Errorf("lock publishes/acquires = %d/%d, want %d/%d", s.LockPublishes, s.LockAcquires, 2*n, n)
	}
}
