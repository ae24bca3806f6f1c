package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"unsafe"

	"hls/internal/spin"
)

// Shared-address-space collective fast path. MPI tasks are goroutines in
// one process, so a collective does not need per-step channel messages:
// every member publishes its buffer pointers in a per-communicator slot
// array, a hierarchical spin barrier (the same tree the HLS directives
// use, built over the members' hardware threads) orders the publication
// against the reads, and the data moves with direct memory copies — or
// no copy at all when a rank's buffer is the shared HLS storage itself.
//
// Per collective the protocol is one or two tree barriers:
//
//	publish own slot -> entry barrier (leader verifies the slots agree
//	and, for reductions, folds every send buffer into the target recv
//	buffer) -> members copy what they need from peer buffers -> exit
//	barrier (only for ops where members read after release, so no buffer
//	is reused while a peer still copies from it).
//
// The fast path is selected per world (see CollectiveMode): under
// CollAuto it engages only when no hooks are installed — the
// happens-before tracker, the trace recorder and chaos all need the
// per-step messages the fast path elides. Counting needs no hooks: the
// fast path ticks World.Stats like every other path. Rank failures are
// still honored: a member publishes its communicator's waker (wake) when
// it opens its wait bracket (block), so a dead rank or a cancel aborts
// the tree it waits on, and it checks the world's failure before it
// arrives. Members unwind with the same typed errors the channel path
// raises.
//
// The steady-state path is allocation-free: slots hold raw pointers, the
// blocked-on descriptions are pre-boxed, and the verification/fold body
// is built once per communicator.

// CollectiveMode selects how a world executes collective operations.
type CollectiveMode int

const (
	// CollAuto (the default) uses the shared-address-space fast path for
	// Barrier/Bcast/Reduce/Allreduce/Allgather when it is safe, which is
	// exactly when Config.Hooks is nil: any hooks — message watchers or
	// fault injection — see the per-step messages only the channel
	// algorithms send. Everything else uses the channel algorithms.
	CollAuto CollectiveMode = iota
	// CollChannels forces the point-to-point algorithms for every
	// collective (the ablation baseline of hlsbench -exp sync).
	CollChannels
	// CollShared forces the fast path regardless of hooks (testing).
	CollShared
	// CollTwoLevel forces the hierarchy-aware two-level decomposition in
	// distributed worlds: Barrier/Bcast/Reduce/Allreduce/Allgather run
	// their node-local phase on the fast path over a per-node
	// sub-communicator and only one leader per process crosses the wire
	// (see twolevel.go). In a single-process world — where every rank is
	// already node-local — it is equivalent to CollShared.
	CollTwoLevel
)

// Collective kinds published in the slots, so mismatched collectives are
// detected instead of silently exchanging buffers.
const (
	shmKindBarrier uint8 = iota + 1
	shmKindBcast
	shmKindReduce
	shmKindAllreduce
	shmKindAllgather
)

func shmOpName(kind uint8) string {
	switch kind {
	case shmKindBarrier:
		return "Barrier"
	case shmKindBcast:
		return "Bcast"
	case shmKindReduce:
		return "Reduce"
	case shmKindAllreduce:
		return "Allreduce"
	case shmKindAllgather:
		return "Allgather"
	}
	return "collective"
}

// opCopy is the fold-function sentinel for a plain copy (no operator).
const opCopy Op = -1

// shmFoldFn is the type-recovering bridge between the type-erased slots
// and the generic reduction kernels: each rank publishes its element
// type's instance, the (dynamically elected) leader calls it.
type shmFoldFn func(op Op, dst, src unsafe.Pointer, n int)

// shmFolds caches one shmFold instantiation per element type: taking a
// generic function's value allocates its dictionary closure, which would
// put one allocation on every fast-path Reduce/Allreduce call.
var shmFolds sync.Map // reflect.Type -> shmFoldFn

func shmFoldFor[T Scalar](typ reflect.Type) shmFoldFn {
	if f, ok := shmFolds.Load(typ); ok {
		return f.(shmFoldFn)
	}
	f, _ := shmFolds.LoadOrStore(typ, shmFoldFn(shmFold[T]))
	return f.(shmFoldFn)
}

func shmFold[T Scalar](op Op, dst, src unsafe.Pointer, n int) {
	d := unsafe.Slice((*T)(dst), n)
	s := unsafe.Slice((*T)(src), n)
	if op == opCopy {
		copy(d, s)
		return
	}
	apply(-1, op, d, s)
}

// shmType returns the comparable identity of T (allocation-free).
func shmType[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil)).Elem()
}

// shmSlot is one member's publication record. The written fields fit in
// the first two cache lines and the trailing pad keeps neighbouring
// slots' hot fields off each other's lines.
type shmSlot struct {
	send    unsafe.Pointer // first element of the send buffer (nil if empty)
	sendLen int
	recv    unsafe.Pointer // first element of the receive buffer, when published
	recvLen int
	typ     reflect.Type
	fold    shmFoldFn
	elem    int // element size in bytes
	seq     int // collective identity (the base tag)
	kind    uint8
	op      Op
	root    int
	_       [64]byte
}

// shmColl is the fast-path state of one communicator: the barrier tree
// over its members' hardware threads and one publication slot per member.
type shmColl struct {
	w     *World
	comm  *Comm
	tree  *spin.Tree
	slots []shmSlot

	// parent, when non-nil, is the communicator this fast-path state
	// serves a node-local phase of (the two-level decomposition): a rank
	// failure anywhere in the parent must abort the local tree too, or
	// members parked in the intra-node phase would only learn of a remote
	// death after their leader's cross-node traffic unwinds.
	parent *Comm

	// verifyErr is written by the entry barrier's leader body and read by
	// every member after release; the tree's atomics order the accesses.
	verifyErr *Error
	// verifyFn is the entry-barrier body and wakeFn the waker members
	// publish (wake), both built once so the hot path creates no closure.
	verifyFn func()
	wakeFn   func(rank int)
}

// newShmColl builds the fast-path state for comm. parent is the
// enclosing communicator when comm is a two-level node-local
// sub-communicator (nil otherwise); see shmColl.parent.
func newShmColl(w *World, c, parent *Comm) *shmColl {
	threads := make([]int, len(c.group))
	for i, wr := range c.group {
		threads[i] = w.pin.Thread(wr)
	}
	sc := &shmColl{
		w:      w,
		comm:   c,
		parent: parent,
		tree:   spin.NewAdaptiveTree(w.machine.SyncPathsAll(threads)),
		slots:  make([]shmSlot, len(c.group)),
	}
	sc.verifyFn, sc.wakeFn = sc.verifyAndFold, sc.wake
	return sc
}

// involves reports whether a failure of world rank r must abort this
// tree: r is a member, or a member of the parent communicator this tree
// runs the node-local phase for.
func (sc *shmColl) involves(r int) bool {
	if sc.comm.rankOf(r) >= 0 {
		return true
	}
	return sc.parent != nil && sc.parent.rankOf(r) >= 0
}

// wake is the waker a member publishes while it waits on the tree: a
// dead rank the tree involves, or a cancel (rank -1), aborts the tree
// with the world's error for the communicator.
func (sc *shmColl) wake(rank int) {
	if rank < 0 || sc.involves(rank) {
		sc.tree.Abort(sc.w.FailureIn(sc.involves))
	}
}

// verifyAndFold is the entry barrier's leader body: with every member
// arrived and published (and none released), it checks that the slots
// describe the same collective and, for reductions, folds every send
// buffer into the target receive buffer. It must not panic — a panic here
// would strand the other members — so violations are recorded in
// verifyErr for every member to raise after release.
func (sc *shmColl) verifyAndFold() {
	sc.verifyErr = nil
	slots := sc.slots
	s0 := &slots[0]
	n := len(slots)
	op := shmOpName(s0.kind)
	for i := 1; i < n; i++ {
		s := &slots[i]
		switch {
		case s.seq != s0.seq:
			sc.verifyErr = shmErr(op, "collective sequence mismatch: rank 0 at #%d, rank %d at #%d", s0.seq, i, s.seq)
		case s.kind != s0.kind:
			sc.verifyErr = shmErr(op, "mismatched collectives: rank 0 in %s, rank %d in %s", op, i, shmOpName(s.kind))
		case s.typ != s0.typ:
			sc.verifyErr = shmErr(op, "datatype mismatch: rank 0 has %v, rank %d has %v", s0.typ, i, s.typ)
		case s.op != s0.op:
			sc.verifyErr = shmErr(op, "reduction op mismatch: rank 0 used %v, rank %d used %v", s0.op, i, s.op)
		case s.root != s0.root:
			sc.verifyErr = shmErr(op, "root mismatch: rank 0 named %d, rank %d named %d", s0.root, i, s.root)
		case s.sendLen != s0.sendLen:
			sc.verifyErr = shmErr(op, "buffer length mismatch: rank 0 has %d elements, rank %d has %d", s0.sendLen, i, s.sendLen)
		}
		if sc.verifyErr != nil {
			return
		}
	}
	if s0.kind != shmKindReduce && s0.kind != shmKindAllreduce {
		return
	}
	if s0.op < OpSum || s0.op > OpMin {
		sc.verifyErr = shmErr(op, "unknown op %v", s0.op)
		return
	}
	k := s0.sendLen
	if k == 0 {
		return
	}
	target := 0
	if s0.kind == shmKindReduce {
		target = s0.root
	}
	dst := slots[target].recv
	fold := s0.fold
	if dst != s0.send {
		fold(opCopy, dst, s0.send, k)
	} else {
		sc.w.stats.sameAddrSkips.Add(1)
	}
	for i := 1; i < n; i++ {
		fold(s0.op, dst, slots[i].send, k)
	}
}

func shmErr(op, format string, args ...any) *Error {
	return &Error{Rank: -1, Op: op, Msg: fmt.Sprintf(format, args...)}
}

// block opens t's wait bracket on the tree and raises the world's
// failure for the communicator, if any, before t arrives.
func (sc *shmColl) block(t *Task, label any, op string) {
	t.Block(label, sc.wakeFn)
	sc.raise(t, op, sc.w.FailureIn(sc.involves))
}

// await runs one tree barrier inside t's wait bracket. After the entry
// barrier (body set) every member also raises the leader's verification
// verdict.
func (sc *shmColl) await(t *Task, op string, member int, body func()) {
	_, err := sc.tree.Await(member, body)
	if e := sc.verifyErr; err == nil && body != nil && e != nil {
		err = &Error{Rank: t.rank, Op: op, Msg: e.Msg}
	}
	sc.raise(t, op, err)
}

// raise closes t's wait bracket and raises err as op on t; a nil err
// leaves the bracket open.
func (sc *shmColl) raise(t *Task, op string, err error) {
	if err != nil {
		t.Unblock()
		t.Raise(op, err)
	}
}

// Pre-boxed blocked-on descriptions: publishing them costs no allocation.
var (
	boxShmBarrier   any = "Barrier (shm)"
	boxShmBcast     any = "Bcast (shm)"
	boxShmReduce    any = "Reduce (shm)"
	boxShmAllreduce any = "Allreduce (shm)"
	boxShmAllgather any = "Allgather (shm)"
)

func shmBarrier(t *Task, c *Comm, seq int) {
	sc := c.shm
	me := c.Rank(t)
	s := &sc.slots[me]
	*s = shmSlot{seq: seq, kind: shmKindBarrier}
	sc.block(t, boxShmBarrier, "Barrier")
	sc.await(t, "Barrier", me, sc.verifyFn)
	t.Unblock()
	t.world.stats.sharedCollectives.Add(1)
}

func shmBcast[T Scalar](t *Task, c *Comm, buf []T, root, seq int) {
	sc := c.shm
	me := c.Rank(t)
	s := &sc.slots[me]
	*s = shmSlot{
		send: unsafe.Pointer(unsafe.SliceData(buf)), sendLen: len(buf),
		typ: shmType[T](), elem: elemSize[T](),
		seq: seq, kind: shmKindBcast, root: root,
	}
	sc.block(t, boxShmBcast, "Bcast")
	sc.await(t, "Bcast", me, sc.verifyFn)
	if me != root && len(buf) > 0 {
		src := sc.slots[root].send
		if s.send == src {
			t.world.stats.sameAddrSkips.Add(1)
		} else {
			copy(buf, unsafe.Slice((*T)(src), len(buf)))
		}
	}
	sc.await(t, "Bcast", me, nil) // nobody reuses buf while peers copy
	t.Unblock()
	t.world.stats.sharedCollectives.Add(1)
}

func shmReduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, root, seq int) {
	sc := c.shm
	me := c.Rank(t)
	if me == root && len(recvBuf) < len(sendBuf) {
		raise(t.rank, "Reduce", "receive buffer too small: %d < %d", len(recvBuf), len(sendBuf))
	}
	typ := shmType[T]()
	s := &sc.slots[me]
	*s = shmSlot{
		send: unsafe.Pointer(unsafe.SliceData(sendBuf)), sendLen: len(sendBuf),
		typ: typ, fold: shmFoldFor[T](typ), elem: elemSize[T](),
		seq: seq, kind: shmKindReduce, op: op, root: root,
	}
	if me == root {
		s.recv = unsafe.Pointer(unsafe.SliceData(recvBuf))
		s.recvLen = len(recvBuf)
	}
	sc.block(t, boxShmReduce, "Reduce")
	// The leader folds inside the entry barrier, so when it releases the
	// result is complete and every send buffer is free: no exit barrier.
	sc.await(t, "Reduce", me, sc.verifyFn)
	t.Unblock()
	t.world.stats.sharedCollectives.Add(1)
}

func shmAllreduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, seq int) {
	sc := c.shm
	me := c.Rank(t)
	typ := shmType[T]()
	s := &sc.slots[me]
	*s = shmSlot{
		send: unsafe.Pointer(unsafe.SliceData(sendBuf)), sendLen: len(sendBuf),
		recv: unsafe.Pointer(unsafe.SliceData(recvBuf)), recvLen: len(recvBuf),
		typ: typ, fold: shmFoldFor[T](typ), elem: elemSize[T](),
		seq: seq, kind: shmKindAllreduce, op: op,
	}
	sc.block(t, boxShmAllreduce, "Allreduce")
	sc.await(t, "Allreduce", me, sc.verifyFn) // leader folds into rank 0's recv
	k := len(sendBuf)
	if me != 0 && k > 0 {
		src := sc.slots[0].recv
		if s.recv == src {
			t.world.stats.sameAddrSkips.Add(1)
		} else {
			copy(recvBuf[:k], unsafe.Slice((*T)(src), k))
		}
	}
	sc.await(t, "Allreduce", me, nil) // rank 0's recv stays stable until all copied
	t.Unblock()
	t.world.stats.sharedCollectives.Add(1)
}

func shmAllgather[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, seq int) {
	sc := c.shm
	me := c.Rank(t)
	n := c.Size()
	k := len(sendBuf)
	s := &sc.slots[me]
	*s = shmSlot{
		send: unsafe.Pointer(unsafe.SliceData(sendBuf)), sendLen: k,
		recv: unsafe.Pointer(unsafe.SliceData(recvBuf)), recvLen: len(recvBuf),
		typ: shmType[T](), elem: elemSize[T](),
		seq: seq, kind: shmKindAllgather,
	}
	sc.block(t, boxShmAllgather, "Allgather")
	sc.await(t, "Allgather", me, sc.verifyFn)
	if k > 0 {
		for r := 0; r < n; r++ {
			dst := recvBuf[r*k : (r+1)*k]
			src := sc.slots[r].send
			if unsafe.Pointer(unsafe.SliceData(dst)) == src {
				t.world.stats.sameAddrSkips.Add(1)
			} else {
				copy(dst, unsafe.Slice((*T)(src), k))
			}
		}
	}
	sc.await(t, "Allgather", me, nil) // send buffers stay stable until all copied
	t.Unblock()
	t.world.stats.sharedCollectives.Add(1)
}
