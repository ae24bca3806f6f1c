package mpi

import (
	"sync"
	"sync/atomic"
)

// failureState is the world's per-rank failure bookkeeping. The fast
// paths only ever touch the dead/finished atomics; the mutex guards the
// slow path taken when a rank actually dies or the world is cancelled.
type failureState struct {
	dead     []atomic.Bool // rank failed (panicked or was killed)
	finished []atomic.Bool // task body returned (normally or not)

	// cancelFlag is the lock-free fast path of Cancelled, checked on
	// every posted receive.
	cancelFlag atomic.Bool

	mu        sync.Mutex
	causes    map[int]error // rank -> what killed it
	handlers  []func(rank int, cause error)
	reporters []func() string
	cancelled error      // non-nil once the world has been cancelled
	shm       []*shmColl // fast-path collective state, aborted on failure
}

func (w *World) initFailure() {
	w.fail.dead = make([]atomic.Bool, w.cfg.NumTasks)
	w.fail.finished = make([]atomic.Bool, w.cfg.NumTasks)
	w.fail.causes = make(map[int]error)
}

// OnFailure registers a handler invoked when a rank dies (rank >= 0) or
// the world is cancelled (rank == -1, e.g. by the deadlock watchdog or
// the Run timeout). Layers holding their own synchronization state (the
// HLS registry's barriers, RMA windows' epoch channels and passive
// locks) register here so their blocked tasks fail fast alongside the
// message layer's. Register before Run; handlers must not block.
func (w *World) OnFailure(h func(rank int, cause error)) {
	w.fail.mu.Lock()
	w.fail.handlers = append(w.fail.handlers, h)
	w.fail.mu.Unlock()
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
	if !w.fail.cancelFlag.Load() {
		return nil
	}
	w.fail.mu.Lock()
	defer w.fail.mu.Unlock()
	return w.fail.cancelled
}

// rankFailed records the death of rank r and unblocks every operation
// that can no longer complete:
//
//   - posted receives (and probes) whose specific source is r complete
//     with a DeadRankError;
//   - rendezvous senders whose message sits unmatched in r's queue have
//     their requests failed, so their blocking Send unwinds;
//   - registered failure handlers run, aborting HLS barriers whose
//     instance contains r and poisoning RMA epochs towards r.
//
// In a cancelled world the receives and senders fail with a
// CancelledError carrying the cancel cause instead: r most likely exited
// because cancel reached it first, and a rank that cancel has not yet
// reached must still report the root cause, not r's exit.
//
// It runs on the dying rank's goroutine, from Run's recover.
func (w *World) rankFailed(r int, cause error) {
	if w.fail.dead[r].Swap(true) {
		return // already recorded
	}
	w.fail.mu.Lock()
	w.fail.causes[r] = cause
	handlers := append([]func(rank int, cause error){}, w.fail.handlers...)
	cancelled := w.fail.cancelled
	w.fail.mu.Unlock()
	failed := func(rank int, op string) error {
		if cancelled != nil {
			return &CancelledError{Rank: rank, Op: op, Cause: cancelled}
		}
		return &DeadRankError{Rank: rank, Op: op, Dead: r}
	}

	// Fail the rendezvous senders parked on messages r will never match.
	// The dead flag is already set, so sends racing with this scan either
	// observe it in isend or are failed here (both orderings are covered
	// by ep.mu).
	epDead := w.eps[r]
	epDead.mu.Lock()
	epDead.eachUnexpectedLocked(func(msg *message) {
		if msg.rendezvous && msg.sreq != nil {
			msg.sreq.fail(failed(-1, "Send"))
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
			return failed(pr.recvRank, "Recv")
		})
		ep.wakeAllLocked()
		ep.mu.Unlock()
	}

	for _, h := range handlers {
		h(r, cause)
	}

	// A distributed world also fails the wire transactions naming r and,
	// when r died here, tells the other processes so they cascade too.
	if w.net != nil {
		w.net.onRankFailed(r, cause)
	}
}

// cancel abandons the world: every pending receive and rendezvous send
// fails with a CancelledError wrapping cause, probes wake, and failure
// handlers run with rank -1 so higher layers (HLS barriers, RMA epochs)
// release their own waiters. Tasks blocked in runtime operations unwind
// with typed errors; tasks blocked outside the runtime (user code) are
// beyond reach and reported as leaked by Run.
func (w *World) cancel(cause error) {
	w.fail.mu.Lock()
	if w.fail.cancelled != nil {
		w.fail.mu.Unlock()
		return
	}
	w.fail.cancelled = cause
	handlers := append([]func(rank int, cause error){}, w.fail.handlers...)
	w.fail.mu.Unlock()
	w.fail.cancelFlag.Store(true)

	for _, ep := range w.eps {
		ep.mu.Lock()
		ep.failRecvsLocked(func(pr *postedRecv) error {
			return &CancelledError{Rank: pr.recvRank, Op: "Recv", Cause: cause}
		})
		ep.eachUnexpectedLocked(func(msg *message) {
			if msg.rendezvous && msg.sreq != nil {
				msg.sreq.fail(&CancelledError{Rank: -1, Op: "Send", Cause: cause})
			}
		})
		ep.wakeAllLocked()
		ep.mu.Unlock()
	}

	for _, h := range handlers {
		h(-1, cause)
	}

	if w.net != nil {
		w.net.failAll(cause)
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

// checkReq panics with a typed, rank/op-attributed error if the request
// failed. Called by every blocking wrapper after Wait returns.
func (t *Task) checkReq(op string, r *Request) {
	err := r.err
	if err == nil {
		return
	}
	switch e := err.(type) {
	case *DeadRankError:
		panic(&DeadRankError{Rank: t.rank, Op: op, Dead: e.Dead})
	case *CancelledError:
		panic(&CancelledError{Rank: t.rank, Op: op, Cause: e.Cause})
	default:
		panic(err)
	}
}

// checkPeer raises a CancelledError if the world has been cancelled, and
// a DeadRankError if the peer world rank is already dead — the fail-fast
// path for operations started after a failure.
func (t *Task) checkPeer(op string, worldPeer int) {
	w := t.world
	if c := w.Cancelled(); c != nil {
		panic(&CancelledError{Rank: t.rank, Op: op, Cause: c})
	}
	if worldPeer >= 0 && w.rankDead(worldPeer) {
		panic(&DeadRankError{Rank: t.rank, Op: op, Dead: worldPeer})
	}
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
