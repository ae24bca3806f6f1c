package rma

import (
	"strconv"
	"sync/atomic"
	"time"

	"hls/internal/mpi"
)

// OpNames names the one-sided operations Stats counts, in index order.
// The typed variants count as their plain operation.
var OpNames = [...]string{"put", "get", "accumulate"}

const (
	opPut = iota
	opGet
	opAccumulate
)

// EpochKinds names the synchronization epochs Stats counts, in index
// order: fence, PSCW access (Start..Complete) and exposure (Post..Wait),
// and passive-target lock (Lock..Unlock, any target).
var EpochKinds = [...]string{"fence", "access", "expose", "lock"}

const (
	epochFence = iota
	epochAccess
	epochExpose
	epochLock
)

// Stats is a window's one-sided activity, summed over its ranks: what
// each rank issued as an origin and the epochs it opened and closed.
type Stats struct {
	// Ops and OpBytes count operations and the bytes they moved,
	// indexed like OpNames.
	Ops, OpBytes [len(OpNames)]int64
	// EpochsOpened and EpochsClosed count epochs, and EpochNs sums the
	// closed ones' open time, indexed like EpochKinds. A fence epoch
	// stays open from the last Fence until Free.
	EpochsOpened, EpochsClosed, EpochNs [len(EpochKinds)]int64
	// LockPublishes counts the clock publications of Unlock and Flush;
	// LockAcquires counts Locks. Acquires outnumbering publishes means
	// origins queued on a busy target.
	LockPublishes, LockAcquires int64
}

// counts is one rank's share of Stats: its own task writes the cells,
// Stats reads them at any time.
type counts struct {
	ops, opBytes            [len(OpNames)]atomic.Int64
	opened, closed, epochNs [len(EpochKinds)]atomic.Int64
	publishes, acquires     atomic.Int64
}

// Stats sums every rank's counts. It may be called while the window is
// in use, and after Free.
func (w *Window[T]) Stats() Stats {
	var s Stats
	for _, ep := range w.eps {
		c := &ep.counts
		for i := range s.Ops {
			s.Ops[i] += c.ops[i].Load()
			s.OpBytes[i] += c.opBytes[i].Load()
		}
		for k := range s.EpochsOpened {
			s.EpochsOpened[k] += c.opened[k].Load()
			s.EpochsClosed[k] += c.closed[k].Load()
			s.EpochNs[k] += c.epochNs[k].Load()
		}
		s.LockPublishes += c.publishes.Load()
		s.LockAcquires += c.acquires.Load()
	}
	return s
}

// clockStart anchors the epoch clock of windows without a recorder.
var clockStart = time.Now()

// nowNs is the window's clock: the recorder's when it has one, so
// recorded slices and EpochNs agree.
func (w *Window[T]) nowNs() int64 {
	if rec := w.cfg.rec; rec != nil {
		return rec.NowNs()
	}
	return time.Since(clockStart).Nanoseconds()
}

// openEpoch counts an epoch of kind k opening on ep and returns its
// start time.
func (w *Window[T]) openEpoch(ep *epochState, k int) int64 {
	ep.opened[k].Add(1)
	return w.nowNs()
}

// closeEpoch counts the epoch of kind k that opened at begin closing on
// t's ep and, with a recorder, writes its "rma-epoch" slice. target
// names a lock epoch's target.
func (w *Window[T]) closeEpoch(t *mpi.Task, ep *epochState, k int, begin int64, target int) {
	end := w.nowNs()
	ep.closed[k].Add(1)
	ep.epochNs[k].Add(end - begin)
	if rec := w.cfg.rec; rec != nil {
		name := w.name + "/" + EpochKinds[k]
		if k == epochLock {
			name += ":" + strconv.Itoa(target)
		}
		rec.SliceNs(t.Rank(), name, "rma-epoch", begin, end, nil)
	}
}

// beginOp counts one operation of kind op moving bytes, issued by comm
// rank me, and returns its start time for endOp (0 without a recorder).
func (w *Window[T]) beginOp(me, op, bytes int) int64 {
	c := &w.eps[me].counts
	c.ops[op].Add(1)
	c.opBytes[op].Add(int64(bytes))
	if rec := w.cfg.rec; rec != nil {
		return rec.NowNs()
	}
	return 0
}

// endOp writes the "rma" slice of the operation op that began at begin,
// when the window has a recorder.
func (w *Window[T]) endOp(t *mpi.Task, op string, begin int64, target, bytes int) {
	if rec := w.cfg.rec; rec != nil {
		rec.SliceNs(t.Rank(), w.name+"/"+op, "rma", begin, rec.NowNs(),
			map[string]any{"target": w.comm.WorldRank(target), "bytes": bytes})
	}
}
