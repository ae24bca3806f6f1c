package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// killRank panics the given rank with an application error, modelling a
// task crash (what internal/chaos' RankKill fault injects).
func killErr(r int) error { return fmt.Errorf("injected kill of rank %d", r) }

func TestFaultRankKillUnblocksRecv(t *testing.T) {
	w, err := Run(Config{NumTasks: 4, Timeout: 10 * time.Second}, func(tk *Task) error {
		switch tk.Rank() {
		case 1:
			time.Sleep(10 * time.Millisecond)
			panic(killErr(1))
		case 0:
			var buf [4]int
			Recv(tk, nil, buf[:], 1, 0) // blocks, then fails when 1 dies
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error after a rank kill")
	}
	var rf *RankFailure
	if !errors.As(w.RankErrors()[1], &rf) || rf.Rank != 1 {
		t.Fatalf("rank 1 error = %v, want *RankFailure for rank 1", w.RankErrors()[1])
	}
	var dre *DeadRankError
	if !errors.As(w.RankErrors()[0], &dre) || dre.Dead != 1 || dre.Op != "Recv" {
		t.Fatalf("rank 0 error = %v, want *DeadRankError{Op: Recv, Dead: 1}", w.RankErrors()[0])
	}
	if !w.RankDead(1) {
		t.Error("RankDead(1) = false after kill")
	}
	if got := w.FailedRanks(); len(got) == 0 || got[0] != 0 && got[0] != 1 {
		t.Errorf("FailedRanks() = %v", got)
	}
}

func TestFaultRecvPostedAfterDeathFailsFast(t *testing.T) {
	w, err := Run(Config{NumTasks: 2, Timeout: 10 * time.Second}, func(tk *Task) error {
		switch tk.Rank() {
		case 1:
			panic(killErr(1))
		case 0:
			time.Sleep(50 * time.Millisecond) // rank 1 is long dead
			var buf [1]int
			Recv(tk, nil, buf[:], 1, 0)
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error")
	}
	var dre *DeadRankError
	if !errors.As(w.RankErrors()[0], &dre) || dre.Dead != 1 {
		t.Fatalf("rank 0 error = %v, want *DeadRankError{Dead: 1}", w.RankErrors()[0])
	}
}

func TestFaultSendToDeadRank(t *testing.T) {
	w, err := Run(Config{NumTasks: 2, Timeout: 10 * time.Second}, func(tk *Task) error {
		switch tk.Rank() {
		case 1:
			panic(killErr(1))
		case 0:
			time.Sleep(50 * time.Millisecond)
			buf := make([]int, 4)
			Send(tk, nil, buf, 1, 0)
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error")
	}
	var dre *DeadRankError
	if !errors.As(w.RankErrors()[0], &dre) || dre.Dead != 1 || dre.Op != "Send" {
		t.Fatalf("rank 0 error = %v, want *DeadRankError{Op: Send, Dead: 1}", w.RankErrors()[0])
	}
}

func TestFaultRendezvousSenderUnblocked(t *testing.T) {
	// A rendezvous send parked in the receiver's unexpected queue must
	// fail when the receiver dies without matching it.
	w, err := Run(Config{NumTasks: 2, EagerLimit: 16, Timeout: 10 * time.Second}, func(tk *Task) error {
		switch tk.Rank() {
		case 0:
			buf := make([]int64, 64) // > eager limit: rendezvous
			Send(tk, nil, buf, 1, 0)
		case 1:
			time.Sleep(30 * time.Millisecond) // let the send park
			panic(killErr(1))
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error")
	}
	var dre *DeadRankError
	if !errors.As(w.RankErrors()[0], &dre) || dre.Dead != 1 {
		t.Fatalf("rank 0 error = %v, want *DeadRankError{Dead: 1}", w.RankErrors()[0])
	}
}

func TestFaultCollectiveFailsFastOnDeadRank(t *testing.T) {
	w, err := Run(Config{NumTasks: 8, Timeout: 10 * time.Second}, func(tk *Task) error {
		if tk.Rank() == 2 {
			panic(killErr(2))
		}
		for i := 0; i < 100; i++ {
			Barrier(tk, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error")
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Fatalf("run timed out instead of failing fast: %v", err)
	}
	for r, re := range w.RankErrors() {
		if r == 2 {
			var rf *RankFailure
			if !errors.As(re, &rf) {
				t.Errorf("rank 2 error = %v, want *RankFailure", re)
			}
			continue
		}
		var dre *DeadRankError
		if !errors.As(re, &dre) {
			t.Errorf("rank %d error = %v, want *DeadRankError", r, re)
			continue
		}
		if dre.Op != "Barrier" {
			t.Errorf("rank %d error op = %q, want Barrier", r, dre.Op)
		}
	}
}

func TestFaultProbeUnblocksOnDeadRank(t *testing.T) {
	w, err := Run(Config{NumTasks: 2, Timeout: 10 * time.Second}, func(tk *Task) error {
		switch tk.Rank() {
		case 1:
			time.Sleep(20 * time.Millisecond)
			panic(killErr(1))
		case 0:
			Probe(tk, nil, 1, 0) // no message will ever come
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error")
	}
	var dre *DeadRankError
	if !errors.As(w.RankErrors()[0], &dre) || dre.Op != "Probe" {
		t.Fatalf("rank 0 error = %v, want *DeadRankError{Op: Probe}", w.RankErrors()[0])
	}
}

func TestFault32TaskRankKillTerminates(t *testing.T) {
	// Acceptance shape: 32 tasks iterating a collective, one killed
	// mid-run. Every surviving rank must unwind with a typed error — the
	// run must not reach the timeout backstop.
	const n, victim = 32, 7
	w, err := Run(Config{NumTasks: n, Timeout: 30 * time.Second}, func(tk *Task) error {
		in := []float64{float64(tk.Rank())}
		out := []float64{0}
		for i := 0; i < 50; i++ {
			if i == 3 && tk.Rank() == victim {
				panic(killErr(victim))
			}
			Allreduce(tk, nil, in, out, OpSum)
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil error")
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Fatalf("run hit the timeout backstop instead of failing fast: %v", err)
	}
	for r, re := range w.RankErrors() {
		if re == nil {
			t.Errorf("rank %d finished without error despite the kill", r)
			continue
		}
		if r == victim {
			var rf *RankFailure
			if !errors.As(re, &rf) || rf.Rank != victim {
				t.Errorf("victim error = %v, want *RankFailure", re)
			}
			continue
		}
		var dre *DeadRankError
		var ce *CancelledError
		if !errors.As(re, &dre) && !errors.As(re, &ce) {
			t.Errorf("rank %d error = %T %v, want typed failure", r, re, re)
		}
	}
}

func TestTimeoutCancelsAndDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Run(Config{NumTasks: 4, Timeout: 100 * time.Millisecond}, func(tk *Task) error {
		var buf [1]int
		Recv(tk, nil, buf[:], (tk.Rank()+1)%4, 99) // nobody sends: stuck
		return nil
	})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if len(te.Tasks) != 4 {
		t.Errorf("TimeoutError.Tasks has %d entries, want 4", len(te.Tasks))
	}
	// The cancellation must have unwound the blocked tasks: poll until the
	// goroutine count settles back to (about) the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDeadlockWatchdogDetectsRecvCycle(t *testing.T) {
	w, err := Run(Config{NumTasks: 2, Watchdog: 10 * time.Millisecond, Timeout: 10 * time.Second},
		func(tk *Task) error {
			var buf [1]int
			// Both ranks receive first: a classic exchange deadlock.
			Recv(tk, nil, buf[:], (tk.Rank()+1)%2, 0)
			Send(tk, nil, buf[:], (tk.Rank()+1)%2, 0)
			return nil
		})
	if err == nil {
		t.Fatal("Run returned nil error for a deadlocked program")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(de.Tasks) != 2 {
		t.Fatalf("DeadlockError.Tasks has %d entries, want 2", len(de.Tasks))
	}
	for _, ts := range de.Tasks {
		if ts.BlockedOn == "" {
			t.Errorf("rank %d has empty BlockedOn in deadlock report", ts.Rank)
		}
	}
	for r, re := range w.RankErrors() {
		var ce *CancelledError
		if !errors.As(re, &ce) {
			t.Errorf("rank %d error = %v, want *CancelledError", r, re)
		}
	}
}

// TestRankExitAfterCancelReportsCause stops a cancel between recording
// its cause and reaching the endpoints (the window in which the watchdog
// test's rank 0 can exit first): rank 0 exits cancelled while rank 1
// still waits on it. Rank 1 must report the cancel cause, not a failure
// of rank 0.
func TestRankExitAfterCancelReportsCause(t *testing.T) {
	cause := errors.New("test cancel")
	w, err := Run(Config{NumTasks: 2, Timeout: 10 * time.Second}, func(tk *Task) error {
		var buf [1]int
		if tk.Rank() == 1 {
			Recv(tk, nil, buf[:], 0, 0)
			return nil
		}
		w := tk.world
		for w.taskStates()[1].BlockedOn == "" {
			time.Sleep(time.Millisecond)
		}
		// cancel's first half: the cause is recorded, no endpoint swept.
		w.fail.mu.Lock()
		w.fail.cancelled = cause
		w.fail.mu.Unlock()
		w.fail.failed.Store(true)
		panic(&CancelledError{Rank: 0, Op: "Recv", Cause: cause})
	})
	if !errors.Is(err, cause) {
		t.Fatalf("Run error = %v, want the cancel cause", err)
	}
	for r, re := range w.RankErrors() {
		var ce *CancelledError
		if !errors.As(re, &ce) || !errors.Is(re, cause) {
			t.Errorf("rank %d error = %v, want *CancelledError with the cancel cause", r, re)
		}
	}
}

func TestDeadlockWatchdogNoFalsePositive(t *testing.T) {
	// A healthy ping-pong across many iterations with an aggressive
	// watchdog interval: progress bumps must suppress detection.
	_, err := Run(Config{NumTasks: 2, Watchdog: 2 * time.Millisecond, Timeout: 30 * time.Second},
		func(tk *Task) error {
			buf := []int{0}
			for i := 0; i < 300; i++ {
				if tk.Rank() == 0 {
					Send(tk, nil, buf, 1, 0)
					Recv(tk, nil, buf, 1, 0)
				} else {
					Recv(tk, nil, buf, 0, 0)
					Send(tk, nil, buf, 0, 0)
				}
				if i%50 == 0 {
					time.Sleep(3 * time.Millisecond) // spans several scans
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("healthy program reported error: %v", err)
	}
}

func TestDeadlockWatchdogIgnoresBusyTasks(t *testing.T) {
	// One rank blocked, one busy in user code (BlockedOn == ""): not a
	// deadlock, must run to the real completion.
	_, err := Run(Config{NumTasks: 2, Watchdog: 5 * time.Millisecond, Timeout: 30 * time.Second},
		func(tk *Task) error {
			buf := []int{0}
			if tk.Rank() == 0 {
				Recv(tk, nil, buf, 1, 0)
				return nil
			}
			time.Sleep(100 * time.Millisecond) // "computing"
			Send(tk, nil, buf, 0, 0)
			return nil
		})
	if err != nil {
		t.Fatalf("healthy program reported error: %v", err)
	}
}

func TestCancelFromOutside(t *testing.T) {
	var w *World
	w, _ = NewWorld(Config{NumTasks: 2})
	go func() {
		time.Sleep(30 * time.Millisecond)
		w.Cancel(errors.New("operator abort"))
	}()
	err := w.Run(func(tk *Task) error {
		var buf [1]int
		Recv(tk, nil, buf[:], (tk.Rank()+1)%2, 0)
		return nil
	})
	if err == nil {
		t.Fatal("Run returned nil after external Cancel")
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want to contain *CancelledError", err)
	}
}

func TestRequestErrSurfacesTypedFailure(t *testing.T) {
	w, err := Run(Config{NumTasks: 2, Timeout: 10 * time.Second}, func(tk *Task) error {
		switch tk.Rank() {
		case 1:
			panic(killErr(1))
		case 0:
			var buf [1]int
			req := Irecv(tk, nil, buf[:], 1, 0)
			req.Wait()
			if e := req.Err(); e == nil {
				return errors.New("Err() = nil for a failed request")
			}
			var dre *DeadRankError
			if e := req.Err(); !errors.As(e, &dre) {
				return fmt.Errorf("Err() = %v, want *DeadRankError", e)
			}
			return nil
		}
		return nil
	})
	if w.RankErrors()[0] != nil {
		t.Fatalf("rank 0: %v", w.RankErrors()[0])
	}
	_ = err
}
