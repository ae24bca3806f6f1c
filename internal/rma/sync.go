package rma

import (
	"sort"

	"hls/internal/mpi"
)

// Fence closes the previous fence epoch (if any) and opens the next one
// (MPI_Win_fence): a barrier over the window's communicator, after which
// every RMA operation issued before the fence — by anyone — is visible
// to everyone. The happens-before edges come for free: the barrier runs
// over the hooked point-to-point layer, so internal/hb orders the epochs
// exactly as it orders collectives.
func (w *Window[T]) Fence(t *mpi.Task) {
	me := w.rankOf(t, "Fence")
	ep := w.eps[me]
	if ep.exposed || len(ep.started) > 0 || len(ep.locked) > 0 {
		raise(t.Rank(), "Fence", "fence inside an open PSCW or lock epoch on window %q", w.name)
	}
	if ep.fence {
		w.closeEpoch(t, ep, epochFence, ep.begin[epochFence], 0)
	}
	mpi.Barrier(t, w.comm)
	ep.fence = true
	ep.begin[epochFence] = w.openEpoch(ep, epochFence)
}

// Post opens an exposure epoch towards the given origin ranks
// (MPI_Win_post): they may access this task's segment once their Start
// matches. Post does not block; close the epoch with Wait.
func (w *Window[T]) Post(t *mpi.Task, origins ...int) {
	me := w.rankOf(t, "Post")
	ep := w.eps[me]
	if ep.exposed {
		raise(t.Rank(), "Post", "exposure epoch already open on window %q", w.name)
	}
	if len(origins) == 0 {
		raise(t.Rank(), "Post", "empty origin group")
	}
	w.checkFailed(t, "Post")
	hooks := w.world.Hooks()
	seen := make(map[int]bool, len(origins))
	for _, o := range origins {
		if o < 0 || o >= w.comm.Size() {
			raise(t.Rank(), "Post", "origin rank %d out of range [0,%d)", o, w.comm.Size())
		}
		if seen[o] {
			raise(t.Rank(), "Post", "duplicate origin rank %d", o)
		}
		seen[o] = true
		var meta any
		if hooks != nil {
			meta = hooks.OnSend(t.Rank(), w.comm.WorldRank(o))
		}
		select {
		case w.st[me].post[o] <- meta:
		default:
			raise(t.Rank(), "Post", "origin %d has an unconsumed post on window %q", o, w.name)
		}
	}
	ep.exposed = true
	ep.postedTo = append([]int(nil), origins...)
	ep.begin[epochExpose] = w.openEpoch(ep, epochExpose)
}

// Start opens an access epoch towards the given target ranks
// (MPI_Win_start), blocking until each of them has Posted to this task.
// The matched Post happens-before the return of Start.
func (w *Window[T]) Start(t *mpi.Task, targets ...int) {
	me := w.rankOf(t, "Start")
	ep := w.eps[me]
	if len(ep.started) > 0 {
		raise(t.Rank(), "Start", "access epoch already open on window %q", w.name)
	}
	if len(targets) == 0 {
		raise(t.Rank(), "Start", "empty target group")
	}
	hooks := w.world.Hooks()
	for _, g := range targets {
		if g < 0 || g >= w.comm.Size() {
			raise(t.Rank(), "Start", "target rank %d out of range [0,%d)", g, w.comm.Size())
		}
		if ep.started[g] {
			raise(t.Rank(), "Start", "duplicate target rank %d", g)
		}
		w.block(t, "rma.Start")
		meta := <-w.st[g].post[me]
		t.Unblock()
		if _, ok := meta.(failToken); ok {
			w.checkFailed(t, "Start")
		}
		if hooks != nil {
			hooks.OnDeliver(t.Rank(), meta)
		}
		ep.started[g] = true
	}
	ep.begin[epochAccess] = w.openEpoch(ep, epochAccess)
}

// Complete closes the access epoch opened by Start
// (MPI_Win_complete): all of this task's RMA operations on the epoch's
// targets are complete, and the completion token (with the origin's
// clock) is handed to each target's Wait.
func (w *Window[T]) Complete(t *mpi.Task) {
	me := w.rankOf(t, "Complete")
	ep := w.eps[me]
	if len(ep.started) == 0 {
		raise(t.Rank(), "Complete", "no access epoch open on window %q", w.name)
	}
	w.checkFailed(t, "Complete")
	w.closeEpoch(t, ep, epochAccess, ep.begin[epochAccess], 0)
	hooks := w.world.Hooks()
	targets := make([]int, 0, len(ep.started))
	for g := range ep.started {
		targets = append(targets, g)
	}
	sort.Ints(targets)
	for _, g := range targets {
		var meta any
		if hooks != nil {
			meta = hooks.OnSend(t.Rank(), w.comm.WorldRank(g))
		}
		w.st[g].done[me] <- meta
		delete(ep.started, g)
	}
}

// Wait closes the exposure epoch opened by Post (MPI_Win_wait),
// blocking until every origin of the epoch has called Complete. Each
// origin's Complete happens-before the return of Wait, so the task may
// read its segment directly afterwards.
func (w *Window[T]) Wait(t *mpi.Task) {
	me := w.rankOf(t, "Wait")
	ep := w.eps[me]
	if !ep.exposed {
		raise(t.Rank(), "Wait", "no exposure epoch open on window %q", w.name)
	}
	hooks := w.world.Hooks()
	for _, o := range ep.postedTo {
		w.block(t, "rma.Wait")
		meta := <-w.st[me].done[o]
		t.Unblock()
		if _, ok := meta.(failToken); ok {
			w.checkFailed(t, "Wait")
		}
		if hooks != nil {
			hooks.OnDeliver(t.Rank(), meta)
		}
	}
	ep.exposed = false
	ep.postedTo = nil
	w.closeEpoch(t, ep, epochExpose, ep.begin[epochExpose], 0)
}
