// Package hls implements Hierarchical Local Storage, the paper's primary
// contribution: global variables shared between MPI tasks at a chosen
// level of the memory hierarchy instead of being duplicated per task.
//
// The paper expresses HLS as compiler directives lowered to runtime calls
// (§IV). In Go the lowering target is this package's API; the directive
// front-end is cmd/hlsgen, which reads //hls: comments on global variable
// declarations and generates the corresponding Declare calls. The
// correspondence is:
//
//	#pragma hls node(table)            ->  v := hls.Declare[float64](r, "table", topology.Node, n, init)
//	use of table                       ->  v.Slice(task)            (== hls_get_addr_node(mod, off))
//	#pragma hls single(table) {...}    ->  v.Single(task, func(data []float64) {...})
//	#pragma hls single(t) nowait {...} ->  v.SingleNowait(task, func(data []float64) {...})
//	#pragma hls barrier(a, b)          ->  r.Barrier(task, a, b)
//
// Storage follows §IV-A: one lazily-allocated block per scope instance
// (the "module array"), initialized at the first get-address call, with a
// lock per instance to handle concurrent first use. Tasks resolve their
// copy through the topology's scope arithmetic and cache the resolved
// slice; migration (MPC_Move, guarded by directive counters) invalidates
// the cache.
//
// Synchronization follows §IV-B, generalized: each scope instance gets a
// multi-level tree of cache-line-padded sense-reversing barriers whose
// waiters park (internal/spin), nested along every hardware level that
// actually groups the instance's tasks — core, each shared cache, NUMA
// (topology.SyncPaths). Tasks sharing the narrowest level synchronize
// first and a single representative proceeds upward, so locks and
// counters stay in the smallest shared cache. Single is the modified
// barrier whose last arriver executes the block before releasing the
// others; single-nowait is a pair of counters.
package hls

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"hls/internal/memsim"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// SyncObserver receives the synchronization edges HLS directives create,
// so the happens-before tracker (internal/hb) can include them in the
// §III eligibility analysis. Arrive is called by a task entering a
// synchronization point identified by key (before it can have released
// anyone), Depart when it leaves (after everyone it waited for arrived).
// It is the registry's one push: counts (single outcomes, allocations,
// demotions) are kept by the registry itself and read through Stats.
type SyncObserver interface {
	Arrive(key string, worldRank int)
	Depart(key string, worldRank int)
}

// Option configures a Registry.
type Option func(*Registry)

// WithTracker accounts every HLS instance allocation in tr as
// memsim.KindShared on the instance's node.
func WithTracker(tr *memsim.Tracker) Option {
	return func(r *Registry) { r.tracker = tr }
}

// WithObserver wires SyncObservers into every directive. Nil arguments
// are dropped; repeated options append, and each directive calls the
// observers in the order they were given.
func WithObserver(obs ...SyncObserver) Option {
	return func(r *Registry) {
		for _, o := range obs {
			if o != nil {
				r.observers = append(r.observers, o)
			}
		}
	}
}

// WithFlatBarriers disables the shared-cache-aware hierarchical barrier
// tree and uses a single flat (but still sense-reversing) barrier for
// every scope — the ablation baseline for §IV-B's design choice.
func WithFlatBarriers() Option {
	return func(r *Registry) { r.flatOnly = true }
}

// WithMutexBarriers swaps every barrier for the flat mutex+condvar
// algorithm that predated the sense-reversing design — the second ablation
// baseline of hlsbench -exp sync (flat mutex vs flat spin vs tree).
func WithMutexBarriers() Option {
	return func(r *Registry) { r.mutexOnly = true }
}

// Registry owns the HLS state of one MPI world: variable metadata, the
// per-scope-instance storage, and the synchronization structures.
type Registry struct {
	world   *mpi.World
	machine *topology.Machine
	pin     *topology.Pinning

	tracker   *memsim.Tracker
	observers []SyncObserver
	allocGate AllocGate
	flatOnly  bool
	mutexOnly bool

	// singles[rank] counts the rank's single outcomes for Stats. Each
	// rank writes only its own padded cell, so directives share no
	// counter cache line.
	singles []singleCount

	// degradation tuning (WithAllocRetry)
	allocRetries int
	allocBackoff time.Duration

	mu       sync.Mutex
	vars     []varMeta
	declared []instanceCounter // the same vars, type-erased for Report
	barriers map[scopeKey]*barrierNode
	nowaits  map[scopeKey]*nowaitState

	// sequence-mismatch detection: dirIdx[rank][scope] is the unified
	// per-scope directive index (barrier, single and nowait share it);
	// dirSeq logs which directive kind each index was, per instance.
	dirIdx []map[scopeLK]int64
	dirSeq map[scopeKey]*seqLog

	// taskCounts[rank][kindLevel] counts directives (barrier/single/
	// nowait) the task completed per scope, for the migration check.
	taskCounts []map[scopeLK]int64
	// instCounts counts directives completed per scope instance.
	instCounts map[scopeKey]*atomic.Int64
}

type varMeta struct {
	name  string
	scope topology.Scope
}

// scopeLK identifies a scope without the instance (kind + level).
type scopeLK struct {
	kind  topology.ScopeKind
	level int
}

// scopeKey identifies one scope instance.
type scopeKey struct {
	scopeLK
	inst int
}

// New builds a Registry for the tasks of world w.
func New(w *mpi.World, opts ...Option) *Registry {
	r := &Registry{
		world:        w,
		machine:      w.Machine(),
		pin:          w.Pinning(),
		barriers:     make(map[scopeKey]*barrierNode),
		nowaits:      make(map[scopeKey]*nowaitState),
		instCounts:   make(map[scopeKey]*atomic.Int64),
		taskCounts:   make([]map[scopeLK]int64, w.Size()),
		singles:      make([]singleCount, w.Size()),
		dirIdx:       make([]map[scopeLK]int64, w.Size()),
		dirSeq:       make(map[scopeKey]*seqLog),
		allocRetries: 3,
		allocBackoff: time.Millisecond,
	}
	for i := range r.taskCounts {
		r.taskCounts[i] = make(map[scopeLK]int64)
		r.dirIdx[i] = make(map[scopeLK]int64)
	}
	for _, o := range opts {
		o(r)
	}
	// Contribute directive counters to deadlock diagnostics.
	w.AddBlockReporter(r.directiveReport)
	return r
}

// Machine returns the registry's hardware model.
func (r *Registry) Machine() *topology.Machine { return r.machine }

// resolveScope validates and resolves the scope against the machine
// (mapping the "llc" placeholder to the concrete last cache level).
func (r *Registry) resolveScope(s topology.Scope) topology.Scope {
	rs, err := r.machine.Resolve(s)
	if err != nil {
		panic(fmt.Sprintf("hls: %v", err))
	}
	return rs
}

// instanceOf returns the scope instance task t currently belongs to.
func (r *Registry) instanceOf(t *mpi.Task, s topology.Scope) int {
	return r.machine.ScopeInstance(r.pin.Thread(t.Rank()), s)
}

// keyOf builds the scope-instance key for task t.
func (r *Registry) keyOf(t *mpi.Task, s topology.Scope) scopeKey {
	return scopeKey{scopeLK{s.Kind, s.Level}, r.instanceOf(t, s)}
}

// AnyVar is the type-erased view of a declared HLS variable, accepted by
// the variadic directives (Barrier, Single).
type AnyVar interface {
	// Name returns the declaration name.
	Name() string
	// Scope returns the resolved HLS scope.
	Scope() topology.Scope
	registry() *Registry
	// demotedFor resolves the task's instance (forcing the
	// demote-or-share decision before any directive branches on it) and
	// reports the decision.
	demotedFor(t *mpi.Task) bool
}

// Var is a declared HLS variable holding n elements of T per scope
// instance.
type Var[T any] struct {
	reg   *Registry
	id    int
	name  string
	scope topology.Scope
	n     int
	init  func(inst int, data []T)

	accountBytes int64

	instMu    sync.Mutex
	instances map[int][]T
	// demoted marks instances whose shared allocation failed past the
	// retry budget: they run with private per-task copies (§III's
	// duplication end of the sharing equivalence). Decided under instMu
	// at first touch, before any task caches a slice, so a decision
	// never needs cache invalidation.
	demoted  map[int]bool
	privates map[int]map[int][]T // inst -> rank -> private copy
	// savedBytes sums, over the shared instances, what duplicating each
	// across its tasks would have added (§IV-A's saving). demotions /
	// extraBytes summarize the degradation for reports, recovery the
	// time the failed attempts took before each demotion.
	savedBytes int64
	demotions  int
	extraBytes int64
	recovery   time.Duration

	// cache[rank] holds the task's resolved entry; Migrate clears it
	// (forget). Entries are atomic because in hybrid MPI+OpenMP code
	// several threads of one task may resolve concurrently (the
	// two-level-TLS situation of the paper's [22]).
	cache []atomic.Pointer[entry[T]]
}

// entry is a task's resolved copy and its instance's demote decision.
type entry[T any] struct {
	data    []T
	demoted bool
}

// Name returns the declaration name.
func (v *Var[T]) Name() string { return v.name }

// Scope returns the resolved HLS scope.
func (v *Var[T]) Scope() topology.Scope { return v.scope }

func (v *Var[T]) registry() *Registry { return v.reg }

// Len returns the per-instance element count.
func (v *Var[T]) Len() int { return v.n }

// DeclareOpt tunes a declaration.
type DeclareOpt[T any] func(*Var[T])

// WithInit sets the lazy per-instance initializer, run exactly once per
// scope instance when the instance's memory is first resolved (§IV-A:
// "memory for a module is allocated and initialized at the first call to
// the get address function").
func WithInit[T any](init func(inst int, data []T)) DeclareOpt[T] {
	return func(v *Var[T]) { v.init = init }
}

// WithAccountBytes overrides the per-instance byte count reported to the
// memory tracker. Scaled-down reproductions declare small real arrays but
// account the paper-scale size.
func WithAccountBytes[T any](bytes int64) DeclareOpt[T] {
	return func(v *Var[T]) { v.accountBytes = bytes }
}

// Declare registers an HLS variable of n elements of T with the given
// scope — the equivalent of "#pragma hls scope(name)". Like the
// threadprivate-style directive it mirrors, it must precede any access.
func Declare[T any](r *Registry, name string, scope topology.Scope, n int, opts ...DeclareOpt[T]) *Var[T] {
	if n < 0 {
		panic(fmt.Sprintf("hls: Declare(%q) with negative length %d", name, n))
	}
	scope = r.resolveScope(scope)
	v := &Var[T]{
		reg:       r,
		name:      name,
		scope:     scope,
		n:         n,
		instances: make(map[int][]T),
		cache:     make([]atomic.Pointer[entry[T]], r.world.Size()),
	}
	v.accountBytes = int64(n) * int64(elemBytes[T]())
	for _, o := range opts {
		o(v)
	}
	r.mu.Lock()
	v.id = len(r.vars)
	r.vars = append(r.vars, varMeta{name: name, scope: scope})
	r.declared = append(r.declared, v)
	r.mu.Unlock()
	return v
}

// elemBytes returns the size of T. It is only called once per declaration.
func elemBytes[T any]() uintptr {
	return reflect.TypeOf((*T)(nil)).Elem().Size()
}

// Slice returns task t's copy of the variable — the hls_get_addr_<scope>
// call of §IV-A. A hit is one atomic load and a nil check, valid until
// Migrate clears the entry (none of t's threads is inside Slice then).
// On a miss the first task of a scope instance to arrive allocates and
// initializes the instance's memory under the instance lock.
func (v *Var[T]) Slice(t *mpi.Task) []T {
	if e := v.cache[t.Rank()].Load(); e != nil {
		return e.data
	}
	return v.resolve(t).data
}

// resolve is Slice's miss path: it finds t's instance and caches the
// entry.
func (v *Var[T]) resolve(t *mpi.Task) *entry[T] {
	e := v.instanceData(v.reg.instanceOf(t, v.scope), t.Rank())
	v.cache[t.Rank()].Store(e)
	return e
}

// forget drops rank's resolved entry; Migrate calls it under r.mu.
func (v *Var[T]) forget(rank int) { v.cache[rank].Store(nil) }

// instanceData lazily allocates the storage of one scope instance
// (§IV-A), or — when the allocation gate keeps failing past the retry
// budget — demotes the instance to private per-task copies and returns
// rank's copy.
func (v *Var[T]) instanceData(inst, rank int) *entry[T] {
	v.instMu.Lock()
	defer v.instMu.Unlock()
	if v.demoted[inst] {
		return &entry[T]{v.privateData(inst, rank), true}
	}
	if data, ok := v.instances[inst]; ok {
		return &entry[T]{data: data}
	}
	if g := v.reg.allocGate; g != nil {
		start := time.Now()
		backoff := v.reg.allocBackoff
		for attempt := 1; ; attempt++ {
			err := g.AllocAttempt(v.name, v.scope.String(), inst, attempt)
			if err == nil {
				break
			}
			if attempt > v.reg.allocRetries {
				return &entry[T]{v.demote(inst, rank, time.Since(start)), true}
			}
			time.Sleep(backoff)
			backoff *= 2
			if backoff > maxAllocBackoff {
				backoff = maxAllocBackoff
			}
		}
	}
	data := make([]T, v.n)
	if v.init != nil {
		v.init(inst, data)
	}
	v.instances[inst] = data
	if v.reg.tracker != nil {
		node := v.nodeOfInstance(inst)
		v.reg.tracker.AllocNode(node, v.accountBytes, memsim.KindShared)
	}
	tasks := len(v.reg.pin.RanksInInstance(v.scope, inst))
	v.savedBytes += v.accountBytes * int64(tasks-1)
	return &entry[T]{data: data}
}

// demote switches instance inst to private per-task copies after a
// failed allocation and returns rank's copy. Caller holds instMu.
func (v *Var[T]) demote(inst, rank int, elapsed time.Duration) []T {
	if v.demoted == nil {
		v.demoted = make(map[int]bool)
	}
	v.demoted[inst] = true
	tasks := len(v.reg.pin.RanksInInstance(v.scope, inst))
	extra := v.accountBytes * int64(tasks-1)
	v.demotions++
	v.extraBytes += extra
	v.recovery += elapsed
	return v.privateData(inst, rank)
}

// privateData returns (allocating lazily) rank's private copy of a
// demoted instance, initialized exactly like the shared copy would have
// been — the §III equivalence that keeps results bitwise identical for
// eligible programs. Caller holds instMu.
func (v *Var[T]) privateData(inst, rank int) []T {
	if v.privates == nil {
		v.privates = make(map[int]map[int][]T)
	}
	per := v.privates[inst]
	if per == nil {
		per = make(map[int][]T)
		v.privates[inst] = per
	}
	if d, ok := per[rank]; ok {
		return d
	}
	d := make([]T, v.n)
	if v.init != nil {
		v.init(inst, d)
	}
	per[rank] = d
	if v.reg.tracker != nil {
		// Private copies are application memory on the task's own node:
		// the footprint the shared copy was saving.
		node := v.reg.machine.PlaceOf(v.reg.pin.Thread(rank)).Node
		v.reg.tracker.AllocNode(node, v.accountBytes, memsim.KindApp)
	}
	return d
}

// demotedFor resolves t's instance and reports whether it runs in
// degraded (private copies) mode, read from the cached entry.
func (v *Var[T]) demotedFor(t *mpi.Task) bool {
	if e := v.cache[t.Rank()].Load(); e != nil {
		return e.demoted
	}
	return v.resolve(t).demoted
}

// Demotions returns how many of the variable's instances were demoted to
// private copies, and the extra bytes duplication costs over sharing.
func (v *Var[T]) Demotions() (int, int64) {
	v.instMu.Lock()
	defer v.instMu.Unlock()
	return v.demotions, v.extraBytes
}

// nodeOfInstance maps a scope instance to the node hosting it.
func (v *Var[T]) nodeOfInstance(inst int) int {
	m := v.reg.machine
	firstThread := inst * m.ThreadsPerInstance(v.scope)
	return m.PlaceOf(firstThread).Node
}

// Ptr returns a pointer to element i of task t's copy.
func (v *Var[T]) Ptr(t *mpi.Task, i int) *T { return &v.Slice(t)[i] }

// Instances returns the number of scope instances currently materialized
// (allocated on first touch), for tests and memory reports.
func (v *Var[T]) Instances() int {
	v.instMu.Lock()
	defer v.instMu.Unlock()
	return len(v.instances)
}

// MaxInstances returns the number of scope instances the machine has for
// this variable's scope: the duplication factor an unshared variable would
// have paid, divided by tasks.
func (v *Var[T]) MaxInstances() int {
	return v.reg.machine.InstanceCount(v.scope)
}

// Single runs body on exactly one task per scope instance, with the
// implicit entry and exit barriers of the directive: "#pragma hls
// single(v) { body }". The last task to enter executes body (§IV-B), so
// on return every task observes the block's effects.
func (v *Var[T]) Single(t *mpi.Task, body func(data []T)) {
	if v.demotedFor(t) {
		// Degraded instance: every task owns a private copy, so the body
		// must run on each of them (barrier / body / barrier preserves
		// the directive's synchronization). §III equivalence makes the
		// results identical to the shared execution.
		v.reg.singleScopeAll(t, v.scope, func() { body(v.Slice(t)) })
		return
	}
	v.reg.singleScope(t, v.scope, func() { body(v.Slice(t)) })
}

// SingleNowait runs body on the first task of the scope instance to reach
// this point and lets every other task skip it without waiting:
// "#pragma hls single(v) nowait { body }". It reports whether this task
// executed the body.
func (v *Var[T]) SingleNowait(t *mpi.Task, body func(data []T)) bool {
	if v.demotedFor(t) {
		return v.reg.nowaitAll(t, v.scope, func() { body(v.Slice(t)) })
	}
	return v.reg.singleNowaitScope(t, v.scope, func() { body(v.Slice(t)) })
}

// Barrier synchronizes every task in the widest scope of the listed
// variables: "#pragma hls barrier(v1, ..., vN)". All variables must
// belong to this registry.
func (r *Registry) Barrier(t *mpi.Task, vars ...AnyVar) {
	if len(vars) == 0 {
		panic("hls: Barrier with no variables")
	}
	widest := vars[0].Scope()
	for _, v := range vars {
		if v.registry() != r {
			panic(fmt.Sprintf("hls: variable %q belongs to a different registry", v.Name()))
		}
		if s := v.Scope(); r.machine.Wider(s, widest) {
			widest = s
		}
	}
	r.BarrierScope(t, widest)
}

// Single runs body on exactly one task per instance of the common scope
// of the listed variables, with implicit barriers. All variables must
// share the same scope; the paper's compiler rejects mixed scopes and so
// does this runtime.
func Single(t *mpi.Task, body func(), vars ...AnyVar) {
	if len(vars) == 0 {
		panic("hls: Single with no variables")
	}
	r := vars[0].registry()
	s := vars[0].Scope()
	for _, v := range vars[1:] {
		if v.registry() != r {
			panic(fmt.Sprintf("hls: variable %q belongs to a different registry", v.Name()))
		}
		if v.Scope() != s {
			panic(fmt.Sprintf("hls: single over variables of different scopes (%v and %v)", s, v.Scope()))
		}
	}
	if anyDemoted(t, vars) {
		r.singleScopeAll(t, s, body)
		return
	}
	r.singleScope(t, s, body)
}

// anyDemoted forces each variable's allocation decision and reports
// whether any of them runs degraded for t's instance (in which case the
// enclosing single must execute on every task).
func anyDemoted(t *mpi.Task, vars []AnyVar) bool {
	dem := false
	for _, v := range vars {
		dem = v.demotedFor(t) || dem
	}
	return dem
}

// SingleNowait is Single without the implicit barriers: the first task per
// scope instance executes body, the rest skip immediately. It reports
// whether this task executed the body.
func SingleNowait(t *mpi.Task, body func(), vars ...AnyVar) bool {
	if len(vars) == 0 {
		panic("hls: SingleNowait with no variables")
	}
	r := vars[0].registry()
	s := vars[0].Scope()
	for _, v := range vars[1:] {
		if v.registry() != r {
			panic(fmt.Sprintf("hls: variable %q belongs to a different registry", v.Name()))
		}
		if v.Scope() != s {
			panic(fmt.Sprintf("hls: single nowait over variables of different scopes (%v and %v)", s, v.Scope()))
		}
	}
	if anyDemoted(t, vars) {
		return r.nowaitAll(t, s, body)
	}
	return r.singleNowaitScope(t, s, body)
}
