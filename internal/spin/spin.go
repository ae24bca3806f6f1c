// Package spin provides the low-level synchronization primitives behind
// the runtime's cache-aware hierarchical barriers (§IV-B): a
// cache-line-padded, sense-reversing barrier whose waiters park at
// once, a mutex+condvar baseline kept for ablation, and a Tree that
// nests barriers along the machine's cache hierarchy so synchronization
// traffic stays inside the smallest shared cache.
//
// All primitives share one abort/poison protocol: Abort wakes every
// waiter (and fails every later arriver), whose Await returns the abort
// error, and a completed generation wins over a concurrent abort — the
// barrier's work was done before the failure reached it. Nothing here
// panics on abort; the caller decides how to raise the error.
package spin

import (
	"sync"
	"sync/atomic"
)

// pad is one cache line of padding. The arrival counter and the
// generation word sit on their own lines so the release store does not
// contend with the arrival RMWs (false sharing is the classic flat-
// barrier scalability killer).
type pad [64]byte

// Barrier is a sense-reversing barrier for a fixed set of size
// participants. Arrival is one counter RMW; the last arriver flips the
// generation word and touches the mutex and condvar only if someone
// parked (or on abort). Every other arriver parks on the condvar at
// once, without polling the generation word or yielding first: with
// more runnable goroutines than Ps (tasks plus wire readers) polling
// takes the processor from the very task everyone is waiting for
// (DESIGN.md §8 has the measurements).
type Barrier struct {
	size int32

	_       pad
	arrived atomic.Int32 // arrivals in the current generation
	_       pad
	gen     atomic.Uint32 // completed-generation counter (the "sense")
	_       pad
	parked  atomic.Int32 // waiters asleep on cond
	aborted atomic.Bool  // fast-path mirror of abortErr != nil

	mu       sync.Mutex
	cond     *sync.Cond
	abortErr error
}

// NewBarrier builds a barrier for size participants (size >= 1).
func NewBarrier(size int) *Barrier {
	if size < 1 {
		panic("spin: barrier size must be >= 1")
	}
	b := &Barrier{size: int32(size)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Size returns the number of participants.
func (b *Barrier) Size() int { return int(b.size) }

// Await blocks until all participants have arrived. The last arriver
// runs body (if non-nil) before anyone is released — the single
// directive's "the last MPI task entering the barrier executes the code
// block before releasing the others" — and Await reports whether this
// caller was that executor. On an aborted barrier Await returns the
// abort error instead of blocking forever (and runs no body).
func (b *Barrier) Await(body func()) (bool, error) {
	if last, err := b.Arrive(); !last {
		return false, err
	}
	if body != nil {
		body()
	}
	b.Release()
	return true, nil
}

// Arrive is the split half of Await used by Tree: the last arriver
// returns true immediately *without* releasing the others, so it can
// represent the group at the next tree level; everyone else blocks
// until that task calls Release and then returns false. Between an
// Arrive that returned true and the matching Release the barrier is
// quiescent: all other participants are blocked in Arrive and none can
// start the next generation. An aborted barrier returns the abort error.
func (b *Barrier) Arrive() (bool, error) {
	if b.aborted.Load() {
		return false, b.AbortErr()
	}
	g := b.gen.Load()
	if b.arrived.Add(1) == b.size {
		// Reset before release: the others can only re-enter after they
		// observe the generation flip in wait, so the counter is never
		// concurrently incremented here.
		b.arrived.Store(0)
		return true, nil
	}
	return false, b.wait(g)
}

// Release completes the generation the caller's true-returning Arrive
// opened, waking every blocked participant.
func (b *Barrier) Release() {
	// Flip first, check parked second. A waiter about to park increments
	// parked and re-checks the generation while holding mu: it either
	// sees this flip and returns without sleeping, or its increment is
	// ordered before our load and we take the broadcast path.
	b.gen.Add(1)
	if b.parked.Load() == 0 {
		return
	}
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// wait sleeps under the condvar until generation g completes or the
// barrier is aborted, and returns the abort error in the latter case. A
// completed generation wins over a concurrent abort.
func (b *Barrier) wait(g uint32) error {
	b.mu.Lock()
	b.parked.Add(1)
	for b.gen.Load() == g && b.abortErr == nil {
		b.cond.Wait()
	}
	b.parked.Add(-1)
	err := b.abortErr
	released := b.gen.Load() != g
	b.mu.Unlock()
	if released {
		return nil
	}
	return err
}

// Abort poisons the barrier: current waiters wake with err, and every
// later arrival returns err at once. Aborting an already
// aborted barrier keeps the first error. A nil err is ignored.
func (b *Barrier) Abort(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.abortErr == nil {
		b.abortErr = err
		b.aborted.Store(true)
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// AbortErr returns the poison error, or nil while the barrier is
// healthy.
func (b *Barrier) AbortErr() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.abortErr
}

// MutexBarrier is the flat mutex+condvar barrier the spin barrier
// replaced — the paper's "simple flat algorithm with a counter and a
// lock" — kept as the ablation baseline for hlsbench -exp sync. Unlike
// its predecessor it uses one condvar per generation parity, so a
// release broadcast can only wake waiters of its own generation and
// stale-generation spurious wakeups cannot thundering-herd through the
// mutex.
type MutexBarrier struct {
	mu       sync.Mutex
	conds    [2]*sync.Cond // indexed by generation parity
	size     int
	count    int
	gen      uint64
	abortErr error
}

// NewMutexBarrier builds a mutex barrier for size participants.
func NewMutexBarrier(size int) *MutexBarrier {
	if size < 1 {
		panic("spin: barrier size must be >= 1")
	}
	b := &MutexBarrier{size: size}
	b.conds[0] = sync.NewCond(&b.mu)
	b.conds[1] = sync.NewCond(&b.mu)
	return b
}

// Size returns the number of participants.
func (b *MutexBarrier) Size() int { return b.size }

// Await blocks until all participants have arrived; the last arriver
// runs body before anyone is released and Await reports whether this
// caller executed it. Returns the abort error on a poisoned barrier.
func (b *MutexBarrier) Await(body func()) (bool, error) {
	if last, err := b.Arrive(); !last {
		return false, err
	}
	if body != nil {
		body()
	}
	b.Release()
	return true, nil
}

// Arrive/Release split, with the same contract as Barrier's.
func (b *MutexBarrier) Arrive() (bool, error) {
	b.mu.Lock()
	if err := b.abortErr; err != nil {
		b.mu.Unlock()
		return false, err
	}
	myGen := b.gen
	b.count++
	if b.count == b.size {
		b.count = 0
		b.mu.Unlock()
		return true, nil
	}
	cond := b.conds[myGen&1]
	for b.gen == myGen && b.abortErr == nil {
		cond.Wait()
	}
	err := b.abortErr
	released := b.gen != myGen
	b.mu.Unlock()
	if released {
		return false, nil
	}
	return false, err
}

// Release completes the generation opened by a true-returning Arrive.
func (b *MutexBarrier) Release() {
	b.mu.Lock()
	b.conds[b.gen&1].Broadcast()
	b.gen++
	b.mu.Unlock()
}

// Abort poisons the barrier (see Barrier.Abort).
func (b *MutexBarrier) Abort(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.abortErr == nil {
		b.abortErr = err
	}
	b.conds[0].Broadcast()
	b.conds[1].Broadcast()
	b.mu.Unlock()
}
