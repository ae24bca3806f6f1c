// Package mpi is a thread-based MPI-1.3-style runtime: the stand-in for
// MPC in the HLS paper (Tchiboukdjian, Carribault, Pérache, IPDPS 2012).
//
// MPI tasks are goroutines that share one address space per process, the
// property MPC obtains by running MPI tasks inside user-level threads and
// the property the HLS mechanism builds on. The runtime provides:
//
//   - point-to-point communication with tag/source matching, including
//     AnySource and AnyTag, non-overtaking delivery, an eager protocol for
//     small messages and a rendezvous (synchronizing) protocol for large
//     ones;
//   - nonblocking operations (Isend/Irecv) with Request/Wait/Test;
//   - communicators with separate communication contexts, Dup and Split;
//   - collective operations (Barrier, Bcast, Reduce, Allreduce, Gather,
//     Gatherv, Scatter, Scatterv, Allgather, Alltoall, Scan) implemented
//     with binomial-tree and dissemination algorithms over the
//     point-to-point layer;
//   - hooks to piggyback metadata on messages, used by the happens-before
//     tracker (internal/hb) for the paper's §III eligibility analysis;
//   - one store of communication counters, World.Stats, which
//     internal/metrics reads when its registry is scraped;
//   - intra-node copy elision when the send and receive buffers are the
//     same memory, the effect that speeds up Tachyon's rank-0 node once
//     the image is an HLS variable (§V-B3).
//
// Error handling follows MPI_ERRORS_ARE_FATAL: misuse (invalid rank,
// datatype mismatch, truncation) panics with *Error. Run recovers panics
// in task goroutines and returns them as ordinary errors, so tests can
// assert on them.
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hls/internal/topology"
)

// AnySource and AnyTag are the wildcard values for Recv and Probe.
const (
	AnySource = -1
	AnyTag    = -1
)

// DefaultEagerLimit is the message size (in bytes) up to which sends are
// buffered (eager protocol). Larger messages use rendezvous: the sender
// blocks until the receiver has matched and copied, creating a
// synchronization edge like MPI_Ssend.
const DefaultEagerLimit = 4096

// Error is the panic payload for fatal MPI usage errors.
type Error struct {
	Rank int    // world rank that raised the error, -1 if unknown
	Op   string // operation name, e.g. "Send"
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s: %s", e.Rank, e.Op, e.Msg)
}

func raise(rank int, op, format string, args ...any) {
	panic(&Error{Rank: rank, Op: op, Msg: fmt.Sprintf(format, args...)})
}

// Hooks receive control at message send and delivery time. Implementations
// must be safe for concurrent use. The hb package uses them to maintain
// vector clocks; the zero value of Config installs no hooks.
type Hooks interface {
	// OnSend is called by the sending task before the message becomes
	// visible to the receiver. Its return value travels with the message.
	OnSend(worldSrc, worldDst int) any
	// OnDeliver is called by the receiving task after the message payload
	// has been copied into the receive buffer, with OnSend's value.
	OnDeliver(worldDst int, meta any)
}

// FaultAction tells the runtime what the fault-injection layer decided
// for one point-to-point message. The zero value delivers normally.
type FaultAction struct {
	// Delay blocks the sending task this long before the message becomes
	// visible, modelling network latency (and, under a seeded random
	// plan, message reordering between senders).
	Delay time.Duration
	// Drop loses the message: it never reaches the receiver. A dropped
	// rendezvous send still completes on the sender side (the handshake
	// succeeded, the payload is lost), so the loss surfaces where it
	// would in a real stack — at the receiver, as a stall the deadlock
	// watchdog attributes.
	Drop bool
	// Duplicate injects the message twice (at-least-once delivery fault).
	Duplicate bool
}

// FaultHooks is an optional extension of Hooks for fault injection:
// implementations that also satisfy it are consulted once per
// point-to-point message on the send path, before the message becomes
// visible, and their FaultAction is applied. The extension is resolved
// once at world creation, so the per-message cost when absent is a
// single nil check. internal/chaos implements it.
type FaultHooks interface {
	Hooks
	FaultP2P(worldSrc, worldDst, bytes int, rendezvous bool) FaultAction
}

// Config parametrizes a World.
type Config struct {
	// NumTasks is the number of MPI tasks (world size). Required.
	NumTasks int
	// Machine describes the hardware; defaults to a single-node machine
	// with NumTasks cores if nil.
	Machine *topology.Machine
	// Pin selects the rank→hardware-thread mapping. Default PinCorePerTask.
	Pin topology.PinPolicy
	// EagerLimit overrides DefaultEagerLimit when > 0.
	EagerLimit int
	// ForcePack disables the typed-transfer pack elision: every derived-
	// datatype payload is packed into an intermediate buffer even when
	// sender and receiver share the address space. It exists as the
	// ablation knob for the halo benchmark (packed vs zero-copy) and
	// should stay false in production use.
	ForcePack bool
	// Hooks, if non-nil, is invoked on every message. Under CollAuto it
	// also keeps collectives on the message-sending channel algorithms,
	// which the hooks observe. Counting needs no hooks: see Stats.
	Hooks Hooks
	// Trace, if non-nil, receives tracing callbacks on every message and
	// collective (span ids, timestamps, blocking waits). Kept separate
	// from Hooks so the disabled path is a single nil check and tracing
	// composes with any Hooks value. See TraceHooks and internal/obs.
	Trace TraceHooks
	// Collectives selects between the shared-address-space collective
	// fast path and the channel (point-to-point) algorithms. The default
	// CollAuto engages the fast path when it is safe; see CollectiveMode.
	Collectives CollectiveMode
	// Timeout aborts Run if the program has not finished in time,
	// returning a *TimeoutError diagnostic of where every task is
	// blocked. Zero means no timeout. The timed-out world is cancelled:
	// tasks blocked in runtime operations unwind with typed errors;
	// only tasks blocked outside the runtime can leak, and Run reports
	// them.
	Timeout time.Duration
	// Watchdog enables stall detection at the given sampling interval:
	// when every unfinished task stays blocked in runtime operations
	// with no progress across consecutive scans, Run cancels the world
	// and returns a *DeadlockError naming each rank's blocking point.
	// Zero disables the watchdog. Ignored in distributed worlds (Wire
	// set), where remote ranks legitimately show no local progress.
	Watchdog time.Duration
	// Wire, if non-nil, makes the world span multiple processes: this
	// process runs only the ranks pinned to the transport's node and
	// reaches the others over the transport. See WireConfig.
	Wire *WireConfig
}

// World is one MPI program instance: a set of tasks and their
// communication endpoints.
type World struct {
	cfg        Config
	machine    *topology.Machine
	pin        *topology.Pinning
	eps        []*endpoint
	world      *Comm
	ctxCounter atomic.Int64
	commID     atomic.Int64
	// comms holds the derived communicators by intern key (internComm).
	comms struct {
		mu    sync.Mutex
		byKey map[string]*Comm
	}

	// faultHooks is cfg.Hooks when it also implements FaultHooks,
	// resolved once so hot paths pay one nil check, not an interface
	// assertion per message.
	faultHooks FaultHooks
	// traceHooks is cfg.Trace, copied next to faultHooks so the datapath
	// reads one field.
	traceHooks TraceHooks

	// pool recycles eager payload buffers across sends (see pool.go).
	pool *bufPool

	// net is the inter-node layer of a distributed world (see wire.go),
	// nil for the ordinary single-process case.
	net *netLayer
	// idle triggers the idle flush of a world whose transport batches
	// (see idleFlush), nil otherwise.
	idle *idleFlush

	// shmOn selects the shared-address-space collective fast path,
	// resolved once from cfg.Collectives and the installed hooks (see
	// CollectiveMode).
	shmOn bool

	// twoLevel selects the hierarchy-aware two-level collective
	// decomposition of a distributed world (see twolevel.go).
	twoLevel bool

	fail     failureState
	rankErrs []error // per-rank outcome of Run (nil entries = success)

	stats worldStats
}

// Machine returns the hardware model the world runs on.
func (w *World) Machine() *topology.Machine { return w.machine }

// Hooks returns the hooks the world was configured with (nil if none), so
// layers built on the runtime (internal/rma) can publish their own
// happens-before edges through the same tracker the messages use.
func (w *World) Hooks() Hooks { return w.cfg.Hooks }

// EagerLimit returns the world's eager/rendezvous threshold in bytes.
func (w *World) EagerLimit() int { return w.cfg.EagerLimit }

// Pinning returns the rank→hardware-thread assignment.
func (w *World) Pinning() *topology.Pinning { return w.pin }

// Size returns the number of tasks.
func (w *World) Size() int { return w.cfg.NumTasks }

// LocalRanks returns the world ranks hosted by this process — all of
// them for a single-process world, this wire node's block for a
// distributed one.
func (w *World) LocalRanks() []int { return w.localRanks() }

// RankLocal reports whether world rank r runs in this process (always
// true for in-range ranks of a single-process world).
func (w *World) RankLocal(r int) bool {
	if r < 0 || r >= w.cfg.NumTasks {
		return false
	}
	if w.net == nil {
		return true
	}
	return w.net.localRank(r)
}

// ProcessOf returns the index of the process hosting world rank r: the
// wire-transport node for distributed worlds, 0 for single-process
// worlds. Out-of-range ranks map to 0.
func (w *World) ProcessOf(r int) int {
	if w.net == nil || r < 0 || r >= len(w.net.nodeOf) {
		return 0
	}
	return w.net.nodeOf[r]
}

// Task is the per-rank handle passed to the program function. All
// communication goes through a Task; a Task must only be used by the
// goroutine it was given to.
type Task struct {
	world *World
	rank  int // world rank

	commState map[int64]*commTaskState // per-communicator collective counters
	seq       atomic.Int64             // program-order event counter (for hb)
}

// Rank returns the task's rank in the world communicator.
func (t *Task) Rank() int { return t.rank }

// Size returns the world size.
func (t *Task) Size() int { return t.world.cfg.NumTasks }

// World returns the world the task belongs to.
func (t *Task) World() *World { return t.world }

// Comm returns the world communicator.
func (t *Task) Comm() *Comm { return t.world.world }

// Thread returns the hardware thread the task is pinned to.
func (t *Task) Thread() int { return t.world.pin.Thread(t.rank) }

// Place returns the task's position in the machine hierarchy.
func (t *Task) Place() topology.Place {
	return t.world.machine.PlaceOf(t.Thread())
}

// NewWorld validates cfg and builds a World without starting tasks. Most
// callers use Run; NewWorld is exposed for harnesses that need the world
// (e.g. for statistics) after the program ends.
func NewWorld(cfg Config) (*World, error) {
	if cfg.NumTasks < 1 {
		return nil, fmt.Errorf("mpi: NumTasks = %d, want >= 1", cfg.NumTasks)
	}
	m := cfg.Machine
	if m == nil {
		var err error
		m, err = topology.New(topology.Spec{
			Name:           "default",
			Nodes:          1,
			SocketsPerNode: 1,
			CoresPerSocket: cfg.NumTasks,
			ThreadsPerCore: 1,
		})
		if err != nil {
			return nil, err
		}
	}
	pin, err := topology.Pin(m, cfg.NumTasks, cfg.Pin)
	if err != nil {
		return nil, err
	}
	if cfg.EagerLimit <= 0 {
		cfg.EagerLimit = DefaultEagerLimit
	}
	w := &World{cfg: cfg, machine: m, pin: pin}
	w.traceHooks = cfg.Trace
	if fh, ok := cfg.Hooks.(FaultHooks); ok {
		w.faultHooks = fh
	}
	w.pool = newBufPool(cfg.NumTasks, cfg.EagerLimit)
	switch cfg.Collectives {
	case CollChannels:
		w.shmOn = false
	case CollShared, CollTwoLevel:
		// In a single process every rank is node-local, so the two-level
		// decomposition degenerates to the fast path itself.
		w.shmOn = true
	default:
		// Auto: the fast path completes collectives without per-step
		// messages, so it must not engage when any hooks watch (or, for
		// fault injection, perturb) those messages.
		w.shmOn = cfg.Hooks == nil
	}
	if cfg.Wire != nil {
		// The shared-address-space fast path needs every rank of a
		// collective in one process. A distributed world instead uses the
		// two-level decomposition: the node-local phase rides the fast
		// path over a per-node sub-communicator and only node leaders
		// cross the wire (twolevel.go). CollChannels keeps the flat
		// channel algorithms; CollAuto applies the same hook-safety rule
		// the fast path uses, because the node-local phase elides the
		// per-step messages those hooks would otherwise observe.
		w.shmOn = false
		switch cfg.Collectives {
		case CollTwoLevel:
			w.twoLevel = true
		case CollAuto:
			w.twoLevel = cfg.Hooks == nil
		}
	}
	w.initFailure()
	w.eps = make([]*endpoint, cfg.NumTasks)
	for i := range w.eps {
		w.eps[i] = newEndpoint(i)
	}
	if cfg.Wire != nil {
		if err := w.initWire(cfg.Wire); err != nil {
			return nil, err
		}
	}
	group := make([]int, cfg.NumTasks)
	for i := range group {
		group[i] = i
	}
	w.world = w.newComm(group)
	if w.net != nil {
		// Bind last: frames may start arriving the moment the sink is
		// installed, and they need the endpoints and world communicator.
		w.net.tr.Bind(w.net)
	}
	return w, nil
}

// newComm allocates a communicator over the given world-rank group, with
// fresh user and collective communication contexts.
func (w *World) newComm(group []int) *Comm { return w.newCommKeyed("", group) }

// newCommKeyed is newComm for derived communicators: in a distributed
// world the contexts are derived from the deterministic intern key, so
// every process computes the same values without exchanging them (see
// commBase). The counter path remains for single-process worlds and for
// the world communicator, which is created first in every process and
// therefore draws identical counter values anyway.
func (w *World) newCommKeyed(key string, group []int) *Comm {
	c := &Comm{world: w, group: group}
	if w.net != nil && key != "" {
		base := commBase(key)
		c.id = base
		c.ctxUser = base + 1
		c.ctxColl = base + 2
		c.ctxSync = base + 3
	} else {
		c.id = w.commID.Add(1)
		c.ctxUser = w.ctxCounter.Add(1)
		c.ctxColl = w.ctxCounter.Add(1)
		c.ctxSync = w.ctxCounter.Add(1)
	}
	if w.shmOn {
		c.shm = newShmColl(w, c, nil)
	} else if w.twoLevel && w.net != nil && !strings.HasPrefix(key, "2l:") {
		// The guard on the key prefix stops the decomposition from
		// recursing into its own sub-communicators.
		c.tl = w.buildTwoLevel(c)
	}
	return c
}

// Run executes fn as the body of every task of a fresh world and waits for
// all tasks to finish. It returns the world (for statistics inspection)
// and the first error: either an error returned by a task body, a
// recovered panic (including *Error from MPI misuse), or a timeout
// diagnostic.
func Run(cfg Config, fn func(*Task) error) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	return w, w.Run(fn)
}

// Run executes fn for every task of the world. A World must be Run at most
// once.
//
// Failure semantics are per rank (ULFM-style errors-return): a panic in
// one task body — an application bug, an MPI usage *Error, or an
// injected chaos kill — is recovered into that rank's error and the rank
// is marked dead; every other rank blocked on (or later attempting) an
// operation involving it fails fast with a *DeadRankError instead of
// hanging. The joined error Run returns therefore carries one typed
// entry per affected rank; RankErrors exposes them individually.
func (w *World) Run(fn func(*Task) error) error {
	// errs stays world-sized even when this process hosts only some
	// ranks: indexing is by world rank everywhere, and ranks run
	// elsewhere simply keep nil entries.
	errs := make([]error, w.cfg.NumTasks)
	w.rankErrs = errs
	local := w.localRanks()
	if w.idle != nil {
		w.idle.busy.Store(int32(len(local)))
	}
	var wg sync.WaitGroup
	wg.Add(len(local))
	for _, r := range local {
		t := &Task{world: w, rank: r, commState: make(map[int64]*commTaskState)}
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = w.classifyPanic(r, p)
					w.rankFailed(r, errs[r])
				}
				w.fail.finished[r].Store(true)
				if w.idle != nil {
					w.idle.add(-1)
				}
			}()
			errs[r] = fn(t)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if w.cfg.Watchdog > 0 && w.net == nil {
		// The watchdog samples local progress only; in a distributed
		// world a rank waiting on remote traffic is indistinguishable
		// from a stalled one, so stall detection is left to Timeout.
		go w.watchdog(w.cfg.Watchdog, done)
	}
	var abort error
	if w.cfg.Timeout > 0 {
		select {
		case <-done:
		case <-time.After(w.cfg.Timeout):
			// Cancel the world so goroutines blocked in runtime
			// operations unwind, then give them a grace period to do so.
			abort = &TimeoutError{After: w.cfg.Timeout.String(), Tasks: w.taskStates()}
			w.cancel(abort)
			grace := w.cfg.Timeout
			if grace > 2*time.Second {
				grace = 2 * time.Second
			}
			select {
			case <-done:
			case <-time.After(grace):
				// Tasks blocked outside the runtime cannot be unwound.
				return fmt.Errorf("%w\n(tasks still blocked outside the runtime after cancellation)", abort)
			}
		}
	} else {
		<-done
	}
	// Every task finished: release the payloads of messages nobody will
	// ever receive (chaos duplicates, traffic to dead ranks), so the
	// pool's outstanding count balances to zero. A distributed world
	// first drains the transport (late frames are discarded, unacked
	// ones get a grace period to reach their peers) and closes it.
	if w.net != nil {
		w.net.shutdown()
	}
	w.drainEndpoints()
	if c := w.Cancelled(); c != nil && abort == nil {
		abort = c // e.g. the watchdog's DeadlockError
	}
	if abort != nil {
		return errors.Join(append([]error{abort}, errs...)...)
	}
	return errors.Join(errs...)
}

// classifyPanic turns a recovered task panic into the rank's typed error.
// Runtime-raised typed errors pass through; everything else — including
// injected chaos kills — becomes a *RankFailure.
func (w *World) classifyPanic(r int, p any) error {
	switch e := p.(type) {
	case *Error:
		return e
	case *DeadRankError:
		return e
	case *CancelledError:
		return e
	case error:
		return &RankFailure{Rank: r, Cause: e}
	default:
		return &RankFailure{Rank: r, Cause: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
	}
}

// RankErrors returns each rank's outcome of the last Run: nil for ranks
// that completed, the typed failure otherwise. Valid after Run returns.
func (w *World) RankErrors() []error {
	return append([]error(nil), w.rankErrs...)
}
