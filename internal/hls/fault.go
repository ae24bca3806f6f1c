package hls

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hls/internal/topology"
)

// This file is the HLS side of the fault-tolerance layer: directive
// sequence-mismatch detection, barrier abort on rank failure, and the
// graceful-degradation path that demotes a scope-shared variable to
// private per-task copies when its lazy allocation keeps failing.
//
// Demotion is correct for the programs HLS accepts: §III establishes
// that for an eligible variable, execution with one shared copy per
// scope instance and execution with one private copy per task are
// equivalent. The degraded mode simply runs the program at the "task"
// end of that equivalence — each task gets its own initialized copy,
// single bodies execute on every copy — trading the memory saving for
// availability.

// AllocGate is asked before every lazy module allocation (§IV-A) of a
// registry built WithAllocGate. A non-nil error fails the attempt; the
// registry retries with capped exponential backoff and demotes the
// instance to private copies when the retries are exhausted
// (Stats.Demotions counts them). internal/chaos implements it to inject
// allocation failures.
type AllocGate interface {
	// AllocAttempt is called before attempt number attempt (1-based) to
	// materialize instance inst of variable varName.
	AllocAttempt(varName, scope string, inst, attempt int) error
}

// WithAllocGate installs the allocation gate. It is the only way to
// gate allocations: an observer that also has AllocAttempt gates
// nothing.
func WithAllocGate(g AllocGate) Option {
	return func(r *Registry) { r.allocGate = g }
}

// WithAllocRetry tunes the degradation path: up to retries additional
// attempts after the first failure, sleeping backoff, 2*backoff, ...
// (capped at 100ms) between them. Defaults: 3 retries, 1ms backoff.
func WithAllocRetry(retries int, backoff time.Duration) Option {
	return func(r *Registry) {
		r.allocRetries = retries
		r.allocBackoff = backoff
	}
}

// maxAllocBackoff caps the exponential backoff between allocation
// retries.
const maxAllocBackoff = 100 * time.Millisecond

// SequenceMismatchError reports two tasks of one scope instance
// executing different directives at the same directive index — the
// cross-rank analogue of mismatched collectives, normally a silent
// deadlock. Index is the per-scope directive counter at which the
// divergence was seen.
type SequenceMismatchError struct {
	Rank  int
	Scope topology.Scope
	Inst  int
	Index int64
	Want  string // what the instance's log recorded at Index
	Got   string // what this task executed
}

func (e *SequenceMismatchError) Error() string {
	return fmt.Sprintf("hls: rank %d: directive sequence mismatch on %v instance %d: directive #%d is %q here but %q on a sibling task",
		e.Rank, e.Scope, e.Inst, e.Index, e.Got, e.Want)
}

// seqWindow is how many directive ids per scope instance the mismatch
// detector keeps; entries older than the newest-seqWindow are evicted,
// bounding memory on long runs.
const seqWindow = 64

// seqLog is the sliding-window directive log of one scope instance.
type seqLog struct {
	entries map[int64]string
	min     int64
}

// checkSequenceLocked advances rank's unified directive index for the
// key's scope and verifies it against the instance's log. Caller holds
// r.mu. Panics with *SequenceMismatchError on divergence.
func (r *Registry) checkSequenceLocked(rank int, key scopeKey, kind string) {
	idx := r.dirIdx[rank][key.scopeLK]
	r.dirIdx[rank][key.scopeLK] = idx + 1
	sl, ok := r.dirSeq[key]
	if !ok {
		sl = &seqLog{entries: make(map[int64]string)}
		r.dirSeq[key] = sl
	}
	if got, ok := sl.entries[idx]; ok {
		if got != kind {
			panic(&SequenceMismatchError{
				Rank:  rank,
				Scope: topology.Scope{Kind: key.kind, Level: key.level},
				Inst:  key.inst,
				Index: idx,
				Want:  got,
				Got:   kind,
			})
		}
		return
	}
	sl.entries[idx] = kind
	for sl.min < idx-seqWindow {
		delete(sl.entries, sl.min)
		sl.min++
	}
}

// waker returns bn's failure wake-up, which a task publishes with
// mpi.Task.Block while it waits on bn: when a rank of bn's instance dies,
// or the world is cancelled (rank -1), it aborts every level of bn, so
// the siblings blocked there unwind, each raising the world's error for
// the instance. A task arriving later sees the failure in await.
func (r *Registry) waker(bn *barrierNode) func(rank int) {
	return func(rank int) {
		if rank >= 0 && !bn.has(rank) {
			return
		}
		if err := r.world.FailureIn(bn.has); bn.mtx != nil {
			bn.mtx.Abort(err)
		} else {
			bn.tree.Abort(err)
		}
	}
}

// directiveReport renders the per-rank directive counters for deadlock
// diagnostics (wired into the world via AddBlockReporter): when ranks of
// one instance show different counts, the report points at the laggard.
func (r *Registry) directiveReport() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for rank, counts := range r.dirIdx {
		if len(counts) == 0 {
			continue
		}
		keys := make([]scopeLK, 0, len(counts))
		for lk := range counts {
			keys = append(keys, lk)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].kind != keys[j].kind {
				return keys[i].kind < keys[j].kind
			}
			return keys[i].level < keys[j].level
		})
		if b.Len() == 0 {
			b.WriteString("hls directive counters:")
		}
		fmt.Fprintf(&b, " rank%d={", rank)
		for i, lk := range keys {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v:%d", topology.Scope{Kind: lk.kind, Level: lk.level}, counts[lk])
		}
		b.WriteByte('}')
	}
	return b.String()
}
