package rma

import (
	"fmt"

	"hls/internal/mpi"
)

// LockType selects the passive-target lock mode.
type LockType int

const (
	// LockShared admits concurrent epochs from several origins
	// (MPI_LOCK_SHARED) — safe for Get and for Accumulate, whose
	// per-target serialization keeps updates atomic.
	LockShared LockType = iota
	// LockExclusive admits one origin at a time (MPI_LOCK_EXCLUSIVE).
	LockExclusive
)

// String names the lock type like the MPI constants.
func (lt LockType) String() string {
	switch lt {
	case LockShared:
		return "shared"
	case LockExclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("LockType(%d)", int(lt))
	}
}

// Lock opens a passive-target epoch on target (MPI_Win_lock): the
// target does not participate. A shared lock maps to the read side of
// the target's readers-writer lock, an exclusive lock to the write
// side. The clocks published by earlier Unlocks of the same target are
// acquired through the window's Observer, giving the epoch its
// happens-before edge.
func (w *Window[T]) Lock(t *mpi.Task, typ LockType, target int) {
	me := w.rankOf(t, "Lock")
	if target < 0 || target >= w.comm.Size() {
		raise(t.Rank(), "Lock", "target rank %d out of range [0,%d)", target, w.comm.Size())
	}
	if typ != LockShared && typ != LockExclusive {
		raise(t.Rank(), "Lock", "invalid lock type %d", int(typ))
	}
	ep := w.eps[me]
	if _, ok := ep.locked[target]; ok {
		raise(t.Rank(), "Lock", "lock epoch to target %d already open on window %q", target, w.name)
	}
	w.block(t, "rma.Lock")
	if typ == LockExclusive {
		w.st[target].lock.Lock()
	} else {
		w.st[target].lock.RLock()
	}
	t.Unblock()
	// A failure while we were blocked may be the very thing that released
	// the lock (wake frees a dead holder's locks): give it back and
	// unwind typed instead of entering a poisoned epoch.
	if err := w.world.FailureIn(w.member); err != nil {
		if typ == LockExclusive {
			w.st[target].lock.Unlock()
		} else {
			w.st[target].lock.RUnlock()
		}
		t.Raise("rma.Lock", err)
	}
	if o := w.cfg.observer; o != nil {
		o.Depart(w.lockKey(target), t.Rank())
	}
	ep.acquires.Add(1)
	ep.locked[target] = lockEpoch{typ, w.openEpoch(ep, epochLock)}
}

// Unlock closes the passive-target epoch on target (MPI_Win_unlock):
// this task's RMA operations on target are complete and visible to the
// next epoch. The task's clock is published (Observer.Arrive) before
// the lock is released, so later lockers order after it.
func (w *Window[T]) Unlock(t *mpi.Task, target int) {
	me := w.rankOf(t, "Unlock")
	if target < 0 || target >= w.comm.Size() {
		raise(t.Rank(), "Unlock", "target rank %d out of range [0,%d)", target, w.comm.Size())
	}
	ep := w.eps[me]
	le, ok := ep.locked[target]
	if !ok {
		raise(t.Rank(), "Unlock", "no lock epoch to target %d open on window %q", target, w.name)
	}
	w.closeEpoch(t, ep, epochLock, le.begin, target)
	if o := w.cfg.observer; o != nil {
		o.Arrive(w.lockKey(target), t.Rank())
	}
	ep.publishes.Add(1)
	if le.typ == LockExclusive {
		w.st[target].lock.Unlock()
	} else {
		w.st[target].lock.RUnlock()
	}
	delete(ep.locked, target)
}

// lockKey is the Observer accumulator key of one target's lock.
func (w *Window[T]) lockKey(target int) string {
	return fmt.Sprintf("rma/%s/lock:%d", w.name, target)
}
