package hls

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hls/internal/mpi"
	"hls/internal/spin"
	"hls/internal/topology"
)

// barrierNode is the synchronization structure of one scope instance: a
// spin.Tree nested along the machine's cache hierarchy — "all MPI tasks
// in the same llc scope synchronize first and only one of them goes to
// the next scope. This way, locks and counters stay in the shared cache
// and all synchronizations at the llc scope happen in parallel" (§IV-B),
// generalized to every level that actually coalesces arrivals (core, each
// shared cache, NUMA; see topology.SyncPaths). WithFlatBarriers collapses
// the tree to a single flat spin barrier; WithMutexBarriers swaps in the
// pre-tree mutex+condvar baseline for ablation.
//
// The node also caches the directive's observer keys, pre-boxed Block
// labels and its waker: directives are the hot path, and rebuilding
// "hls barrier/node:0/0" (or re-boxing it into the endpoint's
// atomic.Value, or binding a method value) on every call is a
// per-directive allocation.
type barrierNode struct {
	tree *spin.Tree         // default and WithFlatBarriers (empty paths)
	mtx  *spin.MutexBarrier // WithMutexBarriers ablation baseline
	slot map[int]int        // world rank -> tree member index
	wake func(rank int)     // failure wake-up (Registry.waker)

	obsBarrier, obsSingle              string
	blkBarrier, blkSingle, blkDegraded any // pre-boxed "hls <key>" strings
}

// await synchronizes task t with its instance siblings; body (may be
// nil) is executed by exactly one task, after everyone arrived and before
// anyone leaves. Reports whether this task executed body. A failure in
// the instance, seen on arrival or through an abort, raises as op on t.
func (bn *barrierNode) await(t *mpi.Task, op string, blk any, body func()) bool {
	t.Block(blk, bn.wake)
	last, err := false, t.World().FailureIn(bn.has)
	switch {
	case err != nil:
	case bn.mtx != nil:
		last, err = bn.mtx.Await(body)
	default:
		last, err = bn.tree.Await(bn.slot[t.Rank()], body)
	}
	t.Unblock()
	t.Raise(op, err)
	return last
}

// has reports whether world rank wr takes part in the barrier.
func (bn *barrierNode) has(wr int) bool {
	_, ok := bn.slot[wr]
	return ok
}

// depth returns the number of grouping levels below the top barrier
// (0 for a flat or mutex barrier).
func (bn *barrierNode) depth() int {
	if bn.mtx != nil {
		return 0
	}
	return bn.tree.Depth()
}

// barrierFor returns (creating lazily) the barrier of task t's instance
// of scope s, after logging the directive kind against the instance's
// sequence (mismatched sequences panic here, before the task can block
// on a barrier its siblings will never complete).
func (r *Registry) barrierFor(t *mpi.Task, s topology.Scope, kind string) (*barrierNode, scopeKey) {
	key := r.keyOf(t, s)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkSequenceLocked(t.Rank(), key, kind)
	if bn, ok := r.barriers[key]; ok {
		return bn, key
	}
	bn := r.buildBarrier(s, key)
	r.barriers[key] = bn
	return bn, key
}

// buildBarrier constructs the barrier of one scope instance from the
// current pinning. Caller holds r.mu.
func (r *Registry) buildBarrier(s topology.Scope, key scopeKey) *barrierNode {
	ranks := r.pin.RanksInInstance(s, key.inst)
	if len(ranks) == 0 {
		panic(fmt.Sprintf("hls: no tasks in %v instance %d", s, key.inst))
	}
	bn := &barrierNode{slot: make(map[int]int, len(ranks))}
	for i, rank := range ranks {
		bn.slot[rank] = i
	}
	switch {
	case r.mutexOnly:
		bn.mtx = spin.NewMutexBarrier(len(ranks))
	case r.flatOnly:
		bn.tree = spin.NewTree(make([][]int, len(ranks)))
	default:
		threads := make([]int, len(ranks))
		for i, rank := range ranks {
			threads[i] = r.pin.Thread(rank)
		}
		bn.tree = spin.NewAdaptiveTree(r.machine.SyncPaths(threads, s))
	}
	bn.obsBarrier = r.obsKey("barrier", key)
	bn.obsSingle = r.obsKey("single", key)
	bn.blkBarrier = "hls " + bn.obsBarrier
	bn.blkSingle = "hls " + bn.obsSingle
	bn.blkDegraded = "hls " + bn.obsSingle + " (degraded)"
	bn.wake = r.waker(bn)
	return bn
}

// BarrierScope synchronizes every task in t's instance of scope s — the
// runtime entry point the compiler lowers "#pragma hls barrier" to.
func (r *Registry) BarrierScope(t *mpi.Task, s topology.Scope) {
	s = r.resolveScope(s)
	bn, key := r.barrierFor(t, s, "barrier")
	r.arrive(bn.obsBarrier, t.Rank())
	last := bn.await(t, "hls barrier", bn.blkBarrier, nil)
	r.depart(bn.obsBarrier, t.Rank())
	r.countDirective(t, key, last)
}

// singleScope implements the single directive on scope s: one modified
// barrier whose last arriver runs body.
func (r *Registry) singleScope(t *mpi.Task, s topology.Scope, body func()) bool {
	s = r.resolveScope(s)
	bn, key := r.barrierFor(t, s, "single")
	r.arrive(bn.obsSingle, t.Rank())
	executed := bn.await(t, "hls single", bn.blkSingle, body)
	r.depart(bn.obsSingle, t.Rank())
	r.countSingle(t.Rank(), executed)
	r.countDirective(t, key, executed)
	return executed
}

// singleScopeAll is the degraded form of the single directive, used when
// the instance's variable was demoted to private copies: every task runs
// body on its own copy between an entry and an exit barrier, preserving
// the directive's synchronization while giving each private copy the
// writes the shared copy would have received. It counts as one single
// directive, like its healthy counterpart.
func (r *Registry) singleScopeAll(t *mpi.Task, s topology.Scope, body func()) bool {
	s = r.resolveScope(s)
	bn, key := r.barrierFor(t, s, "single")
	r.arrive(bn.obsSingle, t.Rank())
	bn.await(t, "hls single", bn.blkDegraded, nil)
	body()
	last := bn.await(t, "hls single", bn.blkDegraded, nil)
	r.depart(bn.obsSingle, t.Rank())
	r.countSingle(t.Rank(), true)
	r.countDirective(t, key, last)
	return true
}

// nowaitState is the per-scope-instance counter of single-nowait regions
// already executed (§IV-B: "a counter is associated to each scope"), with
// the instance's cached observer key alongside.
type nowaitState struct {
	mu     sync.Mutex
	done   int64
	obsKey string
}

// singleNowaitScope implements single nowait: each task counts the
// regions it encountered; a task whose count runs ahead of the instance
// counter executes the block, everyone else skips without waiting.
func (r *Registry) singleNowaitScope(t *mpi.Task, s topology.Scope, body func()) bool {
	s = r.resolveScope(s)
	key := r.keyOf(t, s)
	ns := r.nowaitFor(t, key)

	nk := nowaitLK(s)
	r.taskCounts[t.Rank()][nk]++
	myCount := r.taskCounts[t.Rank()][nk]

	ns.mu.Lock()
	if myCount > ns.done {
		ns.done = myCount
		ns.mu.Unlock()
		r.arrive(ns.obsKey, t.Rank())
		body()
		r.depart(ns.obsKey, t.Rank())
		r.countSingle(t.Rank(), true)
		return true
	}
	ns.mu.Unlock()
	// Skippers acquire the executor's published state (counter read).
	r.depart(ns.obsKey, t.Rank())
	r.countSingle(t.Rank(), false)
	return false
}

// nowaitFor returns (creating lazily) the nowait state of key, logging
// the directive against the instance's sequence.
func (r *Registry) nowaitFor(t *mpi.Task, key scopeKey) *nowaitState {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkSequenceLocked(t.Rank(), key, "nowait")
	ns, ok := r.nowaits[key]
	if !ok {
		ns = &nowaitState{obsKey: r.obsKey("nowait", key)}
		r.nowaits[key] = ns
	}
	return ns
}

// nowaitAll is the degraded form of single-nowait for demoted instances:
// every task executes body on its own private copy, without waiting (the
// directive's no-synchronization contract is unchanged; only the
// execute-once property turns into execute-everywhere, per §III). The
// instance counter still advances so migration checks stay consistent.
func (r *Registry) nowaitAll(t *mpi.Task, s topology.Scope, body func()) bool {
	s = r.resolveScope(s)
	key := r.keyOf(t, s)
	ns := r.nowaitFor(t, key)

	nk := nowaitLK(s)
	r.taskCounts[t.Rank()][nk]++
	myCount := r.taskCounts[t.Rank()][nk]
	ns.mu.Lock()
	if myCount > ns.done {
		ns.done = myCount
	}
	ns.mu.Unlock()

	r.arrive(ns.obsKey, t.Rank())
	body()
	r.depart(ns.obsKey, t.Rank())
	r.countSingle(t.Rank(), true)
	return true
}

// nowaitLK is the per-task counter namespace of single-nowait directives
// (distinct from barrier/single counts; both are checked at migration).
func nowaitLK(s topology.Scope) scopeLK {
	return scopeLK{s.Kind, ^s.Level}
}

// countDirective updates the migration-check counters after a completed
// barrier/single: every participant bumps its own per-scope count, the
// executor bumps the instance's phase count.
func (r *Registry) countDirective(t *mpi.Task, key scopeKey, last bool) {
	r.taskCounts[t.Rank()][key.scopeLK]++
	if last {
		r.mu.Lock()
		c, ok := r.instCounts[key]
		if !ok {
			c = newCounter()
			r.instCounts[key] = c
		}
		r.mu.Unlock()
		c.Add(1)
	}
}

func newCounter() *atomic.Int64 { return &atomic.Int64{} }

func (r *Registry) obsKey(kind string, key scopeKey) string {
	return fmt.Sprintf("%s/%v:%d/%d", kind, key.kind, key.level, key.inst)
}

// arrive and depart hand a directive edge to each observer in turn.
func (r *Registry) arrive(key string, rank int) {
	for _, o := range r.observers {
		o.Arrive(key, rank)
	}
}

func (r *Registry) depart(key string, rank int) {
	for _, o := range r.observers {
		o.Depart(key, rank)
	}
}

// singleCount is one rank's single outcomes, padded to a cache line of
// its own.
type singleCount struct {
	executed, skipped atomic.Int64
	_                 [48]byte
}

// countSingle records one single / single-nowait completion of rank.
func (r *Registry) countSingle(rank int, executed bool) {
	if executed {
		r.singles[rank].executed.Add(1)
	} else {
		r.singles[rank].skipped.Add(1)
	}
}
