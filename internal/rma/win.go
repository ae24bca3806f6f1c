package rma

import (
	"fmt"
	"sync"

	"hls/internal/memsim"
	"hls/internal/mpi"
)

// Window is one RMA window: a per-rank memory segment exposed to
// one-sided access by the other tasks of its communicator. All creation
// calls are collective over the communicator and every member obtains
// the same *Window.
type Window[T mpi.Scalar] struct {
	world  *mpi.World
	comm   *mpi.Comm // private Dup of the creation communicator
	name   string
	shared bool // allocated by WinAllocateShared (one slab per node)

	segs  [][]T // per comm rank
	nodes []int // node hosting each comm rank

	st  []*targetState // per comm rank: target-side synchronization
	eps []*epochState  // per comm rank: origin-side epoch state (owner-only)

	cfg     winConfig
	allocs  []*memsim.Alloc
	free    sync.Once
	persist *persistState // non-nil when created with WithPersist

	// waker is wake (fault.go), bound once: tasks publish it while they
	// wait on the window.
	waker func(rank int)
}

// targetState is the synchronization state other tasks address when this
// rank is their target.
type targetState struct {
	lock  sync.RWMutex // passive-target lock (shared = RLock)
	accMu sync.Mutex   // serializes Accumulate, giving element atomicity

	// post[o] carries rank's exposure tokens (Post) to origin o; done[o]
	// carries origin o's completion tokens (Complete) back. Capacity 1:
	// MPI forbids a second epoch before the first is closed.
	post []chan any
	done []chan any
}

// epochState tracks the epochs one task currently has open on the
// window. It is only touched by the owning task's goroutine, apart from
// Stats reading its counts.
type epochState struct {
	fence    bool              // inside the fence-epoch regime
	started  map[int]bool      // PSCW access epoch targets
	exposed  bool              // PSCW exposure epoch open
	postedTo []int             // origins of the open exposure epoch
	locked   map[int]lockEpoch // passive-target epochs held
	// begin is the start time (nowNs) of the open fence, access and
	// expose epochs; a lock epoch keeps its own.
	begin [epochLock]int64
	counts
}

// lockEpoch is one held passive-target epoch.
type lockEpoch struct {
	typ   LockType
	begin int64
}

// Name returns the window's name (trace/observer key prefix).
func (w *Window[T]) Name() string { return w.name }

// Comm returns the window's private communicator (a Dup of the creation
// communicator, so fence barriers never interfere with application
// collectives).
func (w *Window[T]) Comm() *mpi.Comm { return w.comm }

// WinCreate exposes buf — memory the caller already owns — as task t's
// segment of a new window (MPI_Win_create). Collective over comm (nil =
// world); segments may differ in length per rank.
func WinCreate[T mpi.Scalar](t *mpi.Task, comm *mpi.Comm, buf []T, opts ...Option) *Window[T] {
	win := winNew[T](t, comm, "WinCreate", nil, false, opts...)
	win.segs[win.comm.Rank(t)] = buf
	// Everyone attached before anyone communicates.
	mpi.Barrier(t, win.comm)
	return win
}

// WinAllocate allocates an n-element segment per rank and exposes it as
// a new window (MPI_Win_allocate). Collective over comm (nil = world);
// n may differ per rank.
func WinAllocate[T mpi.Scalar](t *mpi.Task, comm *mpi.Comm, n int, opts ...Option) *Window[T] {
	return winNew[T](t, comm, "WinAllocate", &n, false, opts...)
}

// WinAllocateShared allocates the ranks' segments contiguously in one
// node-resident slab (MPI_Win_allocate_shared), so every task of the
// node can address every segment directly — the MPI-3 shared-memory
// mechanism PGAS runtimes build on. The communicator must lie within a
// single node (split the world with mpi.SplitScope(t, topology.Node)
// first, the MPI_Comm_split_type(..., MPI_COMM_TYPE_SHARED, ...)
// analogue). Collective over comm (nil = world); n may differ per rank,
// and the common "rank 0 allocates everything" pattern passes 0
// elsewhere.
func WinAllocateShared[T mpi.Scalar](t *mpi.Task, comm *mpi.Comm, n int, opts ...Option) *Window[T] {
	return winNew[T](t, comm, "WinAllocateShared", &n, true, opts...)
}

// WinSharedQuery returns rank `rank`'s segment of a shared window for
// direct load/store access (MPI_Win_shared_query). The returned slice
// aliases the window memory: reads and writes through it must be
// ordered by the window's synchronization calls.
func WinSharedQuery[T mpi.Scalar](t *mpi.Task, w *Window[T], rank int) []T {
	me := w.rankOf(t, "WinSharedQuery")
	if !w.shared {
		raise(t.Rank(), "WinSharedQuery", "window %q was not allocated with WinAllocateShared", w.name)
	}
	if rank < 0 || rank >= w.comm.Size() {
		raise(t.Rank(), "WinSharedQuery", "rank %d out of range [0,%d)", rank, w.comm.Size())
	}
	if w.nodes[rank] != w.nodes[me] {
		raise(t.Rank(), "WinSharedQuery", "rank %d is on node %d, not on this task's node %d", rank, w.nodes[rank], w.nodes[me])
	}
	return w.segs[rank]
}

// Local returns task t's own segment for direct load/store access.
func (w *Window[T]) Local(t *mpi.Task) []T {
	return w.segs[w.rankOf(t, "Local")]
}

// SegmentLen returns the element count of rank's segment.
func (w *Window[T]) SegmentLen(rank int) int {
	if rank < 0 || rank >= len(w.segs) {
		raise(-1, "SegmentLen", "rank %d out of range [0,%d)", rank, len(w.segs))
	}
	return len(w.segs[rank])
}

// Free releases the window. Collective; every open epoch must be closed.
// The memory tracker (if any) sees the slab and control bytes returned.
func (w *Window[T]) Free(t *mpi.Task) {
	me := w.rankOf(t, "Free")
	ep := w.eps[me]
	if ep.exposed || len(ep.started) > 0 || len(ep.locked) > 0 {
		raise(t.Rank(), "Free", "window %q still has open epochs", w.name)
	}
	mpi.Barrier(t, w.comm)
	var persistErr error
	w.free.Do(func() {
		if w.persist != nil {
			// Final implicit Sync: clean shutdown leaves every local
			// segment durable at its last contents.
			persistErr = w.persistClose()
		}
		if w.cfg.tracker != nil {
			for _, a := range w.allocs {
				w.cfg.tracker.Free(a)
			}
		}
		forgetWindow(w.world, w.comm.ID())
	})
	if persistErr != nil {
		raise(t.Rank(), "Free", "persist window %q: %v", w.name, persistErr)
	}
	mpi.Barrier(t, w.comm)
}

// winNew is the common collective creation path. n is nil for WinCreate
// (segments attached afterwards), otherwise the caller's element count.
func winNew[T mpi.Scalar](t *mpi.Task, comm *mpi.Comm, op string, n *int, shared bool, opts ...Option) *Window[T] {
	if comm == nil {
		comm = t.Comm()
	}
	if comm.Rank(t) < 0 {
		raise(t.Rank(), op, "task is not a member of the communicator")
	}
	if n != nil && *n < 0 {
		raise(t.Rank(), op, "negative window length %d", *n)
	}
	// A private communicator per window: Dup is collective and hands the
	// same fresh *Comm (with a world-unique ID) to every member, which
	// both orders concurrent creations and isolates fence barriers.
	wc := mpi.Dup(t, comm)
	var sizes []int
	if n != nil {
		sizes = make([]int, wc.Size())
		mpi.Allgather(t, wc, []int{*n}, sizes)
	}
	world := t.World()
	win := internWindow(world, wc.ID(), func() any {
		return buildWindow[T](world, wc, t.Rank(), op, sizes, shared, opts...)
	}).(*Window[T])
	return win
}

// buildWindow runs once per window, on the first task through the
// registry. sizes is nil for WinCreate.
func buildWindow[T mpi.Scalar](world *mpi.World, wc *mpi.Comm, rank int, op string, sizes []int, shared bool, opts ...Option) *Window[T] {
	var cfg winConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.name == "" {
		cfg.name = fmt.Sprintf("win%d", wc.ID())
	}
	size := wc.Size()
	win := &Window[T]{
		world:  world,
		comm:   wc,
		name:   cfg.name,
		shared: shared,
		segs:   make([][]T, size),
		nodes:  make([]int, size),
		st:     make([]*targetState, size),
		eps:    make([]*epochState, size),
		cfg:    cfg,
	}
	machine, pin := world.Machine(), world.Pinning()
	for r := 0; r < size; r++ {
		win.nodes[r] = machine.PlaceOf(pin.Thread(wc.WorldRank(r))).Node
		st := &targetState{post: make([]chan any, size), done: make([]chan any, size)}
		for o := 0; o < size; o++ {
			st.post[o] = make(chan any, 1)
			st.done[o] = make(chan any, 1)
		}
		win.st[r] = st
		win.eps[r] = &epochState{started: make(map[int]bool), locked: make(map[int]lockEpoch)}
	}
	if shared {
		for r := 1; r < size; r++ {
			if win.nodes[r] != win.nodes[0] {
				raise(rank, op, "communicator spans nodes %d and %d; shared windows need a single-node communicator (mpi.SplitScope(t, topology.Node))", win.nodes[0], win.nodes[r])
			}
		}
		total := 0
		for _, s := range sizes {
			total += s
		}
		slab := make([]T, total)
		off := 0
		for r, s := range sizes {
			win.segs[r] = slab[off : off+s : off+s]
			off += s
		}
	} else if sizes != nil {
		for r, s := range sizes {
			win.segs[r] = make([]T, s)
		}
	}
	if cfg.persistDir != "" {
		if sizes == nil {
			raise(rank, op, "WithPersist requires WinAllocate or WinAllocateShared (WinCreate memory is caller-owned)")
		}
		if err := win.initPersist(sizes); err != nil {
			raise(rank, op, "persist window %q: %v", cfg.name, err)
		}
	}
	win.account(sizes, shared)
	win.waker = win.wake
	return win
}

// account reports the window's memory to the tracker: data bytes
// (page-rounded per slab for shared windows, per segment otherwise,
// optionally rescaled to a paper-scale figure) plus per-rank control
// blocks. WinCreate windows attach caller-owned memory, so only control
// bytes are accounted for them.
func (w *Window[T]) account(sizes []int, shared bool) {
	tr := w.cfg.tracker
	if tr == nil {
		return
	}
	eb := int64(elemBytes[T]())
	dataPerNode := make(map[int]int64)
	var totalData int64
	if sizes != nil {
		if shared {
			var slab int64
			for _, s := range sizes {
				slab += int64(s) * eb
			}
			dataPerNode[w.nodes[0]] = slab
			totalData = slab
		} else {
			for r, s := range sizes {
				dataPerNode[w.nodes[r]] += int64(s) * eb
				totalData += int64(s) * eb
			}
		}
	}
	for node, bytes := range dataPerNode {
		if w.cfg.accountBytes > 0 && totalData > 0 {
			bytes = w.cfg.accountBytes * bytes / totalData
		}
		if rounded := pageRound(bytes); rounded > 0 {
			w.allocs = append(w.allocs, tr.AllocNode(node, rounded, memsim.KindShared))
		}
	}
	ranksPerNode := make(map[int]int64)
	for _, node := range w.nodes {
		ranksPerNode[node]++
	}
	for node, k := range ranksPerNode {
		w.allocs = append(w.allocs, tr.AllocNode(node, k*ControlBytesPerRank, memsim.KindRuntime))
	}
}

// rankOf returns t's rank in the window's communicator, raising on
// non-members.
func (w *Window[T]) rankOf(t *mpi.Task, op string) int {
	me := w.comm.Rank(t)
	if me < 0 {
		raise(t.Rank(), op, "task is not a member of the window's communicator")
	}
	return me
}
