package mpi

import (
	"maps"
	"sync"
	"sync/atomic"
)

// failureState is the world's per-rank failure bookkeeping. The fast
// paths only ever touch the atomics; the mutex guards the slow path
// taken when a rank actually dies or the world is cancelled.
type failureState struct {
	dead     []atomic.Bool // rank failed (panicked or was killed)
	finished []atomic.Bool // task body returned (normally or not)

	// failed is the lock-free fast path of FailureIn and Cancelled: it is
	// set, before anyone is woken, once a rank died or the world was
	// cancelled.
	failed atomic.Bool

	mu        sync.Mutex
	causes    map[int]error // rank -> what killed it
	reporters []func() string
	cancelled error // non-nil once the world has been cancelled
}

func (w *World) initFailure() {
	w.fail.dead = make([]atomic.Bool, w.cfg.NumTasks)
	w.fail.finished = make([]atomic.Bool, w.cfg.NumTasks)
	w.fail.causes = make(map[int]error)
}

// AddBlockReporter registers a callback whose output is appended to
// deadlock diagnostics (e.g. the HLS registry's per-rank directive
// counters). Callbacks run off the critical path, on the watchdog
// goroutine.
func (w *World) AddBlockReporter(f func() string) {
	w.fail.mu.Lock()
	w.fail.reporters = append(w.fail.reporters, f)
	w.fail.mu.Unlock()
}

// rankDead reports whether world rank r has failed. Valid rank required.
func (w *World) rankDead(r int) bool { return w.fail.dead[r].Load() }

// RankDead reports whether world rank r has failed.
func (w *World) RankDead(r int) bool {
	return r >= 0 && r < len(w.fail.dead) && w.fail.dead[r].Load()
}

// FailedRanks returns the world ranks that died, in rank order.
func (w *World) FailedRanks() []int {
	var out []int
	for r := range w.fail.dead {
		if w.fail.dead[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// FailureCause returns what killed rank r, or nil if it is alive.
func (w *World) FailureCause(r int) error {
	w.fail.mu.Lock()
	defer w.fail.mu.Unlock()
	return w.fail.causes[r]
}

// Cancelled returns the cancellation cause, or nil while the world runs
// normally. The nil path is a single atomic load.
func (w *World) Cancelled() error {
	if !w.fail.failed.Load() {
		return nil
	}
	w.fail.mu.Lock()
	defer w.fail.mu.Unlock()
	return w.fail.cancelled
}

// FailureIn is the runtime's one failure rule. It returns the error an
// operation among the world ranks for which member reports true (nil
// member: every rank) must fail with, or nil while it can complete:
//
//   - a cancelled world reports a *CancelledError carrying the cancel
//     cause, whatever else failed: a rank that exits after the cancel
//     most likely exited because of it;
//   - otherwise a *DeadRankError naming the lowest dead member that
//     failed on its own, or, when every dead member died re-raising a
//     peer's failure, the lowest dead member. A survivor that unwinds
//     with the root's error never becomes a new root.
//
// The error carries Rank -1 and no Op; Task.Raise attributes it. A
// healthy world answers with one atomic load.
func (w *World) FailureIn(member func(worldRank int) bool) error {
	if !w.fail.failed.Load() {
		return nil
	}
	// member is the caller's code: it runs on a snapshot, not under mu.
	w.fail.mu.Lock()
	cancelled, causes := w.fail.cancelled, maps.Clone(w.fail.causes)
	w.fail.mu.Unlock()
	return failure(cancelled, causes, member)
}

// failureLocked is FailureIn for the runtime's own member funcs. Caller
// holds w.fail.mu.
func (w *World) failureLocked(member func(worldRank int) bool) error {
	return failure(w.fail.cancelled, w.fail.causes, member)
}

// failure is FailureIn's rule over a cancel cause and the dead ranks'
// causes.
func failure(cancelled error, causes map[int]error, member func(worldRank int) bool) error {
	if cancelled != nil {
		return &CancelledError{Rank: -1, Cause: cancelled}
	}
	dead, root := -1, -1
	for r, cause := range causes {
		if member != nil && !member(r) {
			continue
		}
		if dead < 0 || r < dead {
			dead = r
		}
		if !reraised(cause) && (root < 0 || r < root) {
			root = r
		}
	}
	if root >= 0 {
		dead = root
	}
	if dead < 0 {
		return nil
	}
	return &DeadRankError{Rank: -1, Dead: dead}
}

// reraised reports whether a rank died of another rank's failure: it
// re-raised the runtime's failure error instead of failing itself.
func reraised(cause error) bool {
	switch cause.(type) {
	case *DeadRankError, *CancelledError, remoteReraise:
		return true
	}
	return false
}

// remoteReraise is the cause recorded for a rank of another process that
// died re-raising a peer's failure: its failure frame says so and
// carries the text of its error.
type remoteReraise struct{ error }

// Raise panics with err attributed to this task and op, and returns at
// once for a nil err. It is the one way the runtime re-raises a failure
// — from FailureIn, a failed request or an aborted barrier — so every
// rank reports its own error value, naming itself.
func (t *Task) Raise(op string, err error) {
	if err != nil {
		panic(attribute(err, t.rank, op))
	}
}

// attribute copies a failure error for world rank (-1 if unknown) and
// op. Other errors pass through unchanged.
func attribute(err error, rank int, op string) error {
	switch e := err.(type) {
	case *DeadRankError:
		return &DeadRankError{Rank: rank, Op: op, Dead: e.Dead}
	case *CancelledError:
		return &CancelledError{Rank: rank, Op: op, Cause: e.Cause}
	}
	return err
}

// rankFailed records the death of rank r and unblocks every operation
// that can no longer complete, each with the error FailureIn gives for
// r (the cancel cause in a cancelled world):
//
//   - posted receives (and probes) whose specific source is r fail;
//   - rendezvous senders whose message sits unmatched in r's queue have
//     their requests failed, so their blocking Send unwinds;
//   - the wakers blocked tasks published (see wake) run with r.
//
// It runs on the dying rank's goroutine, from Run's recover.
func (w *World) rankFailed(r int, cause error) {
	w.fail.mu.Lock()
	if w.fail.dead[r].Load() {
		w.fail.mu.Unlock()
		return // already recorded
	}
	w.fail.causes[r] = cause
	w.fail.dead[r].Store(true)
	w.fail.failed.Store(true)
	err := w.failureLocked(func(x int) bool { return x == r })
	w.fail.mu.Unlock()

	// Fail the rendezvous senders parked on messages r will never match.
	// The dead flag is already set, so sends racing with this scan either
	// observe it in isend or are failed here (both orderings are covered
	// by ep.mu).
	epDead := w.eps[r]
	epDead.mu.Lock()
	epDead.eachUnexpectedLocked(func(msg *message) {
		if msg.rendezvous && msg.sreq != nil {
			msg.sreq.fail(attribute(err, -1, "Send"))
		}
	})
	epDead.mu.Unlock()

	// Fail every pending receive that names r as its source, and wake the
	// probes so they re-check the dead set.
	for dst, ep := range w.eps {
		if dst == r {
			continue
		}
		ep.mu.Lock()
		ep.failRecvsLocked(func(pr *postedRecv) error {
			if pr.worldSrc != r {
				return nil
			}
			return attribute(err, pr.recvRank, "Recv")
		})
		ep.wakeAllLocked()
		ep.mu.Unlock()
	}

	w.wake(r)

	// A distributed world also fails the wire transactions naming r and,
	// when r died here, tells the other processes so they cascade too.
	if w.net != nil {
		w.net.onRankFailed(r, err, cause)
	}
}

// cancel abandons the world: every pending receive and rendezvous send
// fails with a CancelledError wrapping cause, probes wake, and the
// published wakers run with rank -1, so the objects tasks wait on outside
// the queues (shm trees, HLS barriers, RMA epochs) release them. Tasks
// blocked in runtime operations unwind with typed errors; tasks blocked
// outside the runtime (user code) are beyond reach and reported as
// leaked by Run.
func (w *World) cancel(cause error) {
	w.fail.mu.Lock()
	if w.fail.cancelled != nil {
		w.fail.mu.Unlock()
		return
	}
	w.fail.cancelled = cause
	w.fail.failed.Store(true)
	err := w.failureLocked(nil)
	w.fail.mu.Unlock()

	for _, ep := range w.eps {
		ep.mu.Lock()
		ep.failRecvsLocked(func(pr *postedRecv) error {
			return attribute(err, pr.recvRank, "Recv")
		})
		ep.eachUnexpectedLocked(func(msg *message) {
			if msg.rendezvous && msg.sreq != nil {
				msg.sreq.fail(attribute(err, -1, "Send"))
			}
		})
		ep.wakeAllLocked()
		ep.mu.Unlock()
	}

	w.wake(-1)

	if w.net != nil {
		w.net.failAll(err)
	}
}

// wake calls, in world rank order, the waker each task in a Block
// bracket published, with the failed rank (-1: cancel). failed is set
// before this walk, and a bracketed wait checks FailureIn after it
// publishes, so either the check sees the failure or the walk the waker.
func (w *World) wake(rank int) {
	for _, ep := range w.eps {
		if wk, _ := ep.waker.Load().(func(int)); wk != nil {
			wk(rank)
		}
	}
}

// Cancel aborts a running world with the given cause (nil is replaced by
// a generic cancellation error). Exposed for harnesses that need to tear
// a world down from outside (e.g. on SIGINT).
func (w *World) Cancel(cause error) {
	if cause == nil {
		cause = &Error{Rank: -1, Op: "Cancel", Msg: "world cancelled"}
	}
	w.cancel(cause)
}

// checkReq re-raises the request's failure, if any, attributed to this
// rank and op. Called by every blocking wrapper after Wait returns.
func (t *Task) checkReq(op string, r *Request) { t.Raise(op, r.err) }

// checkPeer raises the world's failure for an operation with the peer
// world rank (-1: none, so only a cancel counts) — the fail-fast path for
// operations started after a failure.
func (t *Task) checkPeer(op string, worldPeer int) {
	t.Raise(op, t.world.FailureIn(func(r int) bool { return r == worldPeer }))
}

// taskStates snapshots every rank's blocking state for diagnostics.
func (w *World) taskStates() []TaskState {
	out := make([]TaskState, len(w.eps))
	for r, ep := range w.eps {
		st := ep.blockedDesc()
		out[r] = TaskState{
			Rank:      r,
			BlockedOn: st,
			Finished:  w.fail.finished[r].Load(),
			Dead:      w.fail.dead[r].Load(),
			Progress:  ep.progress.Load(),
		}
	}
	return out
}

// blockReports runs the registered diagnostic callbacks.
func (w *World) blockReports() []string {
	w.fail.mu.Lock()
	reporters := append([]func() string(nil), w.fail.reporters...)
	w.fail.mu.Unlock()
	var out []string
	for _, f := range reporters {
		if s := f(); s != "" {
			out = append(out, s)
		}
	}
	return out
}
