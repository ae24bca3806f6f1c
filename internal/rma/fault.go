package rma

import (
	"time"

	"hls/internal/mpi"
)

// This file is the RMA side of the fault-tolerance layer. A task waiting
// on the window (Lock, Start, Wait) publishes wake through block. When a
// member rank dies (or the world is cancelled) while a task waits, wake
//
//   - poisons the PSCW token channels of the dead rank, unblocking
//     origins stuck in Start (target died before Post) and targets stuck
//     in Wait (origin died before Complete), and
//   - releases the passive-target locks the dead rank still held, so
//     survivors blocked in Lock acquire, observe the failure, and unwind
//     with a typed error.
//
// The window keeps no failure state: every synchronization call, and
// every waiter wake releases, asks the world (checkFailed, block) and
// raises the world's error for the window's members. Fence needs no
// handling of its own: it rides on mpi.Barrier.

// failToken is the poison value injected into PSCW channels when a rank
// dies; Start and Wait raise the world's failure on receiving it.
type failToken struct{}

// wake runs on the world's failure path (from the dying rank's
// goroutine, after its stack unwound), once for each task waiting on the
// window, so it is idempotent. rank is a world rank, or -1 for world
// cancellation.
func (w *Window[T]) wake(rank int) {
	d := -1 // dead comm rank, if a member
	if rank >= 0 {
		if d = w.commRank(rank); d < 0 {
			return // not a member of this window's communicator
		}
	}

	// Poison the dead rank's PSCW channels (all of them on cancellation).
	// Capacity-1 channels: a non-blocking send either lands the token or
	// finds a real unconsumed token already there — in the latter case the
	// receiver consumes it normally and the next sync call fails fast via
	// checkFailed.
	poison := func(r int) {
		for x := 0; x < w.comm.Size(); x++ {
			select {
			case w.st[r].post[x] <- failToken{}:
			default:
			}
			select {
			case w.st[x].done[r] <- failToken{}:
			default:
			}
		}
	}
	if d >= 0 {
		poison(d)
	} else {
		for r := 0; r < w.comm.Size(); r++ {
			poison(r)
		}
	}

	// Release the locks the dead rank still held. Its goroutine has
	// unwound, so its epochState is quiesced; survivors blocked in Lock
	// acquire, re-check the window, and unwind typed.
	if d >= 0 {
		ep := w.eps[d]
		for target, le := range ep.locked {
			if le.typ == LockExclusive {
				w.st[target].lock.Unlock()
			} else {
				w.st[target].lock.RUnlock()
			}
			delete(ep.locked, target)
		}
	}
}

// commRank returns world rank wr's rank in the window's communicator, or
// -1 for a non-member.
func (w *Window[T]) commRank(wr int) int {
	for r := 0; r < w.comm.Size(); r++ {
		if w.comm.WorldRank(r) == wr {
			return r
		}
	}
	return -1
}

// member reports whether world rank wr belongs to the window.
func (w *Window[T]) member(wr int) bool { return w.commRank(wr) >= 0 }

// checkFailed raises the world's failure for the window's members, if
// any, as op on t.
func (w *Window[T]) checkFailed(t *mpi.Task, op string) {
	if err := w.world.FailureIn(w.member); err != nil {
		t.Raise("rma."+op, err)
	}
}

// block opens t's wait bracket on the window and raises the world's
// failure for the window's members, if any, before t waits. label is
// the operation name ("rma.Lock"), a constant, so boxing it allocates
// nothing.
func (w *Window[T]) block(t *mpi.Task, label any) {
	t.Block(label, w.waker)
	if err := w.world.FailureIn(w.member); err != nil {
		t.Unblock()
		t.Raise(label.(string), err)
	}
}

// faultDelay gives the chaos layer (any mpi.FaultHooks installed on the
// world) a chance to delay a synchronization call the way it delays
// point-to-point messages. Drop/duplicate verdicts are meaningless for
// synchronization and are ignored.
func (w *Window[T]) faultDelay(t *mpi.Task, target int) {
	fh, ok := w.world.Hooks().(mpi.FaultHooks)
	if !ok {
		return
	}
	act := fh.FaultP2P(t.Rank(), w.comm.WorldRank(target), 0, false)
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
}

// Flush completes all RMA operations this task issued to target within
// an open passive-target epoch (MPI_Win_flush), without closing the
// epoch. Operations apply eagerly in this runtime, so what Flush adds is
// the visibility point: the task's clock is published to the target's
// lock accumulator (Observer.Arrive), ordering the flushed operations
// before any subsequent Lock of the same target.
func (w *Window[T]) Flush(t *mpi.Task, target int) {
	me := w.rankOf(t, "Flush")
	w.checkFailed(t, "Flush")
	if target < 0 || target >= w.comm.Size() {
		raise(t.Rank(), "Flush", "target rank %d out of range [0,%d)", target, w.comm.Size())
	}
	ep := w.eps[me]
	if _, ok := ep.locked[target]; !ok {
		raise(t.Rank(), "Flush", "no lock epoch to target %d open on window %q", target, w.name)
	}
	w.faultDelay(t, target)
	if rec := w.cfg.rec; rec != nil {
		w.endOp(t, "flush", rec.NowNs(), target, 0)
	}
	if o := w.cfg.observer; o != nil {
		o.Arrive(w.lockKey(target), t.Rank())
	}
	ep.publishes.Add(1)
}

// FlushAll flushes every target this task currently holds a lock epoch
// to (MPI_Win_flush_all over the open epochs).
func (w *Window[T]) FlushAll(t *mpi.Task) {
	me := w.rankOf(t, "FlushAll")
	w.checkFailed(t, "FlushAll")
	ep := w.eps[me]
	if len(ep.locked) == 0 {
		raise(t.Rank(), "FlushAll", "no lock epochs open on window %q", w.name)
	}
	for target := range ep.locked {
		w.Flush(t, target)
	}
}
