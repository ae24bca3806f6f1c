package chaos_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
)

// TestFaultRootCause holds every layer a survivor can block in to the
// world's one failure rule. Rank 0 of a 4-rank world is the victim:
//
//   - killed: it panics while the survivors are blocked;
//   - cancelled: it exits while the world is half-cancelled (the cancel
//     cause is recorded, but the cancel has not yet woken anyone);
//   - arrive-after-kill: it panics and the survivors start the row's
//     operation only once it is dead, so only the operation's arrival
//     check can fail them (a missing one hangs until the short Timeout,
//     which fails the row with the wrong error type).
//
// Every survivor must fail with its own error value naming itself: a
// *DeadRankError naming rank 0 after the kill, and a *CancelledError
// wrapping the cancel cause after the cancel, whichever layer wakes it.
//
// The half-cancel is staged with a waker the victim publishes with
// Task.Block. World.Cancel records the cause, fails queued requests,
// then calls the published wakers in world rank order, so the victim's,
// at rank 0, is the first it reaches. That waker holds the cancel until
// every survivor has unwound: a survivor blocked outside the queues
// must have been woken by the victim's exit, which runs meanwhile.
func TestFaultRootCause(t *testing.T) {
	const victim, lockTarget, survivors = 0, 1, 3
	type op func(tk *mpi.Task, win *rma.Window[int64], v *hls.Var[int64])
	rows := []struct {
		name string
		// hold runs on the victim and prep on each survivor, both before
		// the victim fails; block runs on each survivor.
		hold  func(tk *mpi.Task, win *rma.Window[int64])
		prep  op
		block op
		// late adds the arrive-after-kill variant (bracketed waits).
		late bool
	}{
		{"Recv", nil, nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			mpi.Recv(tk, nil, make([]int64, 1), victim, 0)
		}, false},
		{"RendezvousSend", nil, nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			mpi.Send(tk, nil, make([]int64, 2*mpi.DefaultEagerLimit), victim, 0)
		}, false},
		{"Waitany", nil, nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			reqs := []*mpi.Request{
				mpi.Irecv(tk, nil, make([]int64, 1), victim, 0),
				mpi.Irecv(tk, nil, make([]int64, 1), victim, 1),
			}
			i, _ := mpi.Waitany(reqs)
			if err := reqs[i].Err(); err != nil {
				panic(err)
			}
		}, false},
		{"SharedBarrier", nil, nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			mpi.Barrier(tk, nil)
		}, true},
		{"HLSSingle", nil, nil, func(tk *mpi.Task, _ *rma.Window[int64], v *hls.Var[int64]) {
			v.Single(tk, func([]int64) {})
		}, true},
		{"RMALock", func(tk *mpi.Task, win *rma.Window[int64]) {
			win.Lock(tk, rma.LockExclusive, lockTarget)
		}, nil, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Lock(tk, rma.LockExclusive, lockTarget)
		}, true},
		{"RMAStart", nil, nil, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Start(tk, victim)
		}, true},
		{"RMAWait", nil, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Post(tk, victim)
		}, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Wait(tk) // the victim never Completes
		}, true},
		{"RMAFence", nil, nil, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Fence(tk)
		}, false},
	}
	for _, mode := range []string{"killed", "cancelled", "arrive-after-kill"} {
		for _, row := range rows {
			if mode == "arrive-after-kill" && !row.late {
				continue
			}
			t.Run(mode+"/"+row.name, func(t *testing.T) {
				cancelled, late := mode == "cancelled", mode == "arrive-after-kill"
				cause := errors.New("root cause")
				timeout := 20 * time.Second
				if late {
					timeout = 2 * time.Second
				}
				w, err := mpi.NewWorld(mpi.Config{
					NumTasks: 4, Machine: machine(t, 1, 4),
					Collectives: mpi.CollShared, Timeout: timeout,
				})
				if err != nil {
					t.Fatal(err)
				}
				halted, cancelDone := make(chan struct{}), make(chan struct{})
				unwound := make(chan struct{}, survivors)
				held := true // every survivor unwound while the cancel was held
				reg := hls.New(w)
				v := hls.Declare[int64](reg, "x", topology.Node, 1)
				runErr := w.Run(func(tk *mpi.Task) error {
					win := rma.WinAllocate[int64](tk, nil, 1)
					if tk.Rank() != victim {
						defer func() { unwound <- struct{}{} }()
						if row.prep != nil {
							row.prep(tk, win, v)
						}
						mpi.Barrier(tk, nil)
						for late && !w.RankDead(victim) {
							time.Sleep(time.Millisecond)
						}
						row.block(tk, win, v)
						return errors.New("survivor's operation completed")
					}
					if row.hold != nil {
						row.hold(tk, win)
					}
					mpi.Barrier(tk, nil)
					// Let the survivors block, or in the late variant leave
					// the Barrier's bracket: a waker published there would
					// abort the world tree before they arrive again.
					time.Sleep(10 * time.Millisecond)
					if !cancelled {
						panic(fmt.Errorf("rank %d killed", victim))
					}
					tk.Block("test: holds the cancel", func(rank int) {
						if rank >= 0 {
							return
						}
						close(halted)
						for range survivors {
							select {
							case <-unwound:
							case <-time.After(5 * time.Second):
								held = false
								return
							}
						}
					})
					go func() { w.Cancel(cause); close(cancelDone) }()
					<-halted
					tk.Unblock()
					panic("exits after the cancel")
				})
				if cancelled {
					<-cancelDone
					if !held {
						t.Error("a survivor was still blocked 5 s after the victim's exit")
					}
				}
				if runErr == nil {
					t.Fatal("Run returned nil")
				}
				seen := make(map[error]int)
				for r, re := range w.RankErrors() {
					if r == victim {
						continue
					}
					var got error
					if cancelled {
						var ce *mpi.CancelledError
						if !errors.As(re, &ce) || ce.Rank != r || !errors.Is(re, cause) {
							t.Errorf("rank %d error = %v, want *mpi.CancelledError{Rank: %d} with the cancel cause", r, re, r)
							continue
						}
						got = ce
					} else {
						var dre *mpi.DeadRankError
						if !errors.As(re, &dre) || dre.Rank != r || dre.Dead != victim {
							t.Errorf("rank %d error = %v, want *mpi.DeadRankError{Rank: %d, Dead: %d}", r, re, r, victim)
							continue
						}
						got = dre
					}
					if prev, ok := seen[got]; ok {
						t.Errorf("ranks %d and %d share one error value", prev, r)
					}
					seen[got] = r
				}
			})
		}
	}
}
