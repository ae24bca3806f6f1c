// Package rma is an MPI-3-style one-sided (RMA) communication subsystem
// layered on internal/mpi: memory windows, Put/Get/Accumulate, and the
// three MPI synchronization modes (fence, post/start/complete/wait,
// passive-target lock/unlock).
//
// The paper positions HLS against "emerging standard mechanisms" for
// intra-node sharing; MPI-3 later standardized exactly that as
// shared-memory windows (MPI_Win_allocate_shared), the mechanism PGAS
// runtimes build on (Zhou et al., "Leveraging MPI-3 Shared-Memory
// Extensions for Efficient PGAS Runtime Systems"; DART-MPI). This package
// makes that comparison runnable: WinAllocateShared carves one
// node-resident slab into per-rank segments, WinSharedQuery hands out
// another rank's segment for direct load/store, and `hlsbench -exp rma`
// contrasts HLS-directive sharing with shared-window sharing on the
// paper's kernels.
//
// Because MPI tasks are goroutines in one address space (the MPC
// property), communication calls apply eagerly; what the synchronization
// calls add is MPI-3's *visibility* contract, realized as real
// happens-before edges the Go race detector sees:
//
//   - Fence is a barrier over the window's (private) communicator; the
//     hb edges appear automatically because collectives ride on the
//     hooked point-to-point layer.
//   - Post/Start and Complete/Wait exchange tokens through per-pair
//     channels and piggyback mpi.Hooks metadata on them, so the vector
//     clocks of internal/hb order the epochs exactly like messages.
//   - Lock/Unlock use a per-target readers-writer lock; an Observer
//     (hb.Tracker via Arrive/Depart) carries the clock from unlockers
//     to subsequent lockers.
//
// Epoch discipline is enforced: a communication call without an open
// epoch to its target, an Unlock without a Lock, a Complete without a
// Start, etc. panic with *mpi.Error (MPI_ERRORS_ARE_FATAL), which
// mpi.Run converts to an ordinary error.
package rma

import (
	"fmt"
	"reflect"
	"sync"

	"hls/internal/memsim"
	"hls/internal/mpi"
	"hls/internal/trace"
)

// PageBytes is the allocation granularity of window slabs: MPI
// implementations back shared windows with page-granular segments
// (shm_open + mmap), so the memory model rounds every slab up to it.
const PageBytes = 4096

// ControlBytesPerRank models the per-rank window bookkeeping an MPI
// runtime keeps (window object, base/size/disp tables, lock state). It
// is accounted as memsim.KindRuntime on the rank's node.
const ControlBytesPerRank = 192

// Observer receives the synchronization edges of passive-target epochs,
// in the same Arrive/Depart vocabulary as hls.SyncObserver: Unlock
// publishes (Arrive) into a per-(window,target) accumulator that later
// Locks acquire (Depart). hb.Tracker satisfies it.
type Observer interface {
	Arrive(key string, worldRank int)
	Depart(key string, worldRank int)
}

// winConfig collects creation options. Every rank of the communicator
// must pass equivalent options: the first task to arrive builds the
// window from its own copy.
type winConfig struct {
	name          string
	tracker       *memsim.Tracker
	accountBytes  int64
	observer      Observer
	rec           *trace.Recorder
	persistDir    string
	persistMapped bool
}

// Option tunes window creation.
type Option func(*winConfig)

// WithName names the window (trace/observer keys); default "win<id>".
func WithName(name string) Option {
	return func(c *winConfig) { c.name = name }
}

// WithTracker accounts the window's slab (page-rounded, KindShared) and
// per-rank control blocks (KindRuntime) in tr, on the nodes hosting them.
func WithTracker(tr *memsim.Tracker) Option {
	return func(c *winConfig) { c.tracker = tr }
}

// WithAccountBytes overrides the window's data bytes reported to the
// memory tracker. Scaled-down reproductions allocate small real windows
// but account the paper-scale size (cf. hls.WithAccountBytes).
func WithAccountBytes(bytes int64) Option {
	return func(c *winConfig) { c.accountBytes = bytes }
}

// WithObserver wires an Observer into the passive-target epochs.
func WithObserver(o Observer) Option {
	return func(c *winConfig) { c.observer = o }
}

// WithRecorder writes every closed epoch ("rma-epoch" slices named
// "<window>/<kind>") and every Put/Get/Accumulate/Flush ("rma" slices
// named "<window>/<op>", with target world rank and bytes) to rec, on
// the issuing task's timeline.
func WithRecorder(rec *trace.Recorder) Option {
	return func(c *winConfig) { c.rec = rec }
}

// WithPersist backs every process-local segment of the window with a
// versioned, checksummed file under dir (one file per rank, named
// "<window-name>.r<rank>.seg"), loading valid contents on creation and
// zeroing segments whose file fails its checksum (torn write). Durable
// state advances only at explicit Window.Sync epochs (plus a final
// implicit Sync in Free). Requires WinAllocate/WinAllocateShared —
// WinCreate memory is caller-owned. Windows sharing a dir must have
// distinct names. See persist.go for the format and contract.
func WithPersist(dir string) Option {
	return func(c *winConfig) { c.persistDir = dir }
}

// WithPersistMapped is WithPersist with the segments memory-mapped
// (MAP_SHARED) instead of heap-resident: the file is the segment, so
// tables larger than RAM run out-of-core and Sync is an msync. Falls
// back to plain file persistence on platforms without mmap
// (PersistState reports Mapped=false).
func WithPersistMapped(dir string) Option {
	return func(c *winConfig) { c.persistDir = dir; c.persistMapped = true }
}

// raise panics with an *mpi.Error so mpi.Run reports RMA misuse like any
// other fatal MPI error.
func raise(rank int, op, format string, args ...any) {
	panic(&mpi.Error{Rank: rank, Op: "rma." + op, Msg: fmt.Sprintf(format, args...)})
}

// elemBytes returns the size of T without importing unsafe.
func elemBytes[T any]() int {
	return int(reflect.TypeOf((*T)(nil)).Elem().Size())
}

// winRegistry interns windows so that every member of a collective
// creation call resolves the same *Window. The key is the world plus the
// ID of the window's private communicator (a fresh Dup per creation),
// which all members share and no other window can obtain. Free deletes
// the entry, so a world whose windows are all freed has none left here
// and nothing in this package keeps it alive.
var winRegistry struct {
	mu sync.Mutex
	m  map[winKey]any
}

type winKey struct {
	world *mpi.World
	id    int64
}

func internWindow(w *mpi.World, id int64, build func() any) any {
	winRegistry.mu.Lock()
	defer winRegistry.mu.Unlock()
	k := winKey{w, id}
	if win, ok := winRegistry.m[k]; ok {
		return win
	}
	if winRegistry.m == nil {
		winRegistry.m = make(map[winKey]any)
	}
	win := build()
	winRegistry.m[k] = win
	return win
}

func forgetWindow(w *mpi.World, id int64) {
	winRegistry.mu.Lock()
	defer winRegistry.mu.Unlock()
	delete(winRegistry.m, winKey{w, id})
}

// pageRound rounds bytes up to whole pages.
func pageRound(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + PageBytes - 1) / PageBytes * PageBytes
}
