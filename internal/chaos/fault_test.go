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
// world's one failure rule. Rank 2 of a 4-rank world either is killed or
// exits while the world is half-cancelled (the cancel cause is recorded,
// but its handlers have not yet woken anyone). Every survivor, blocked
// in (or arriving at) the row's operation, must fail with its own error
// value naming itself: a *DeadRankError naming rank 2 after the kill,
// and a *CancelledError wrapping the cancel cause after the cancel,
// whichever layer wakes it.
func TestFaultRootCause(t *testing.T) {
	const victim = 2
	rows := []struct {
		name string
		// hold runs on the victim before the survivors start.
		hold func(tk *mpi.Task, win *rma.Window[int64])
		// block runs on each survivor.
		block func(tk *mpi.Task, win *rma.Window[int64], v *hls.Var[int64])
	}{
		{"Recv", nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			mpi.Recv(tk, nil, make([]int64, 1), victim, 0)
		}},
		{"RendezvousSend", nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			mpi.Send(tk, nil, make([]int64, 2*mpi.DefaultEagerLimit), victim, 0)
		}},
		{"SharedBarrier", nil, func(tk *mpi.Task, _ *rma.Window[int64], _ *hls.Var[int64]) {
			mpi.Barrier(tk, nil)
		}},
		{"HLSSingle", nil, func(tk *mpi.Task, _ *rma.Window[int64], v *hls.Var[int64]) {
			v.Single(tk, func([]int64) {})
		}},
		{"RMALock", func(tk *mpi.Task, win *rma.Window[int64]) {
			win.Lock(tk, rma.LockExclusive, 0)
		}, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Lock(tk, rma.LockExclusive, 0)
		}},
		{"RMAStart", nil, func(tk *mpi.Task, win *rma.Window[int64], _ *hls.Var[int64]) {
			win.Start(tk, victim)
		}},
	}
	for _, cancelled := range []bool{false, true} {
		for _, row := range rows {
			name := "killed/" + row.name
			if cancelled {
				name = "cancelled/" + row.name
			}
			t.Run(name, func(t *testing.T) {
				cause := errors.New("root cause")
				w, err := mpi.NewWorld(mpi.Config{
					NumTasks: 4, Machine: machine(t, 1, 4),
					Collectives: mpi.CollShared, Timeout: 20 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				// The half-cancel: registered before the HLS registry's
				// and the window's handlers, this one holds the cancel
				// until the victim's exit has run every handler (exited
				// is closed by the last one, registered in the run).
				halted, exited, cancelDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
				w.OnFailure(func(rank int) {
					if rank < 0 && cancelled {
						close(halted)
						<-exited
					}
				})
				reg := hls.New(w)
				v := hls.Declare[int64](reg, "x", topology.Node, 1)
				runErr := w.Run(func(tk *mpi.Task) error {
					win := rma.WinAllocate[int64](tk, nil, 1)
					if tk.Rank() == 0 {
						w.OnFailure(func(rank int) {
							if rank == victim {
								close(exited)
							}
						})
					}
					if tk.Rank() == victim && row.hold != nil {
						row.hold(tk, win)
					}
					mpi.Barrier(tk, nil)
					if tk.Rank() != victim {
						row.block(tk, win, v)
						return errors.New("survivor's operation completed")
					}
					time.Sleep(10 * time.Millisecond) // let the survivors block
					if cancelled {
						go func() { w.Cancel(cause); close(cancelDone) }()
						<-halted
						panic("exits after the cancel")
					}
					panic(fmt.Errorf("rank %d killed", victim))
				})
				if cancelled {
					<-cancelDone
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
