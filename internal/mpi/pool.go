package mpi

import (
	"sync"
	"sync/atomic"
)

// The eager-buffer pool. Every eager send needs a payload buffer that
// outlives the Send call (the message may sit in the receiver's
// unexpected queue); before this pool each send allocated a fresh slice
// and dropped it on the garbage collector after delivery. In MPC-style
// thread-based MPI the eager path is the intra-node hot path, so the
// runtime recycles payloads instead: buffers live in power-of-two size
// classes up to the world's EagerLimit, with a small per-rank cache in
// front of a shared per-class overflow pool. Acquire prefers the calling
// rank's cache (no contention in the steady state); release returns the
// buffer to the cache of the rank that acquired it — its home — so a
// steady sender finds its own buffers again no matter which rank's
// goroutine performed the delivery. Only cache over/underflow touches
// the shared pool's lock.
//
// Buffers are reference-counted so the chaos duplicate-message fault can
// pin one payload under two in-flight messages: the buffer returns to
// the pool only when the last copy has been consumed (delivered, dropped
// or drained at world teardown), which the pooling stress test checks by
// asserting zero outstanding buffers after Run returns.

// poolMinClassBits is the smallest size class (64 bytes): below that the
// bookkeeping dwarfs the payload.
const poolMinClassBits = 6

// poolSharedCap bounds each shared class's free list; beyond it buffers
// are handed to the GC, so a burst does not pin memory forever.
const poolSharedCap = 64

// poolRankCap bounds each per-rank per-class cache.
const poolRankCap = 8

// poolNoRank marks a pool operation with no task context: the wire
// transport's progress goroutines acquire receive buffers and release
// undeliverable payloads without a rank identity, so they bypass the
// per-rank caches and work against the shared classes directly.
const poolNoRank = -1

// eagerBuf is one pooled payload buffer. data always has the full class
// capacity; the message tracks its own byte count. refs counts the
// in-flight messages sharing the buffer (> 1 only under chaos
// duplication).
type eagerBuf struct {
	data  []byte
	class int // size-class index, -1 for oversize unpooled buffers
	home  int // world rank whose get acquired the buffer, set per get
	refs  atomic.Int32
}

// bufClass is one shared size class: a mutex-protected LIFO free list.
type bufClass struct {
	mu   sync.Mutex
	free []*eagerBuf
	_    [5]int64 // keep neighbouring classes off one cache line
}

// bufRankCache is one rank's private cache, a small LIFO per class. It
// has its own mutex because release runs on whichever goroutine performs
// the delivery, but in the steady state only the owning rank touches it.
type bufRankCache struct {
	mu   sync.Mutex
	free [][]*eagerBuf
	_    [5]int64
}

// bufPool is the world's eager-payload pool.
type bufPool struct {
	classes []bufClass
	ranks   []*bufRankCache
	minSize int // size of class 0
	maxSize int // size of the largest class (>= EagerLimit)

	hits     atomic.Int64 // gets served from a cache or the shared pool
	misses   atomic.Int64 // gets that had to allocate
	puts     atomic.Int64 // releases (buffer consumed by its last message)
	recycled atomic.Int64 // bytes of capacity returned to the pool
}

// poolClassFor returns the index of the smallest class holding n bytes.
func poolClassFor(n int) int {
	c := 0
	size := 1 << poolMinClassBits
	for size < n {
		size <<= 1
		c++
	}
	return c
}

func newBufPool(ranks, eagerLimit int) *bufPool {
	nClasses := poolClassFor(eagerLimit) + 1
	p := &bufPool{
		classes: make([]bufClass, nClasses),
		ranks:   make([]*bufRankCache, ranks),
		minSize: 1 << poolMinClassBits,
		maxSize: 1 << (poolMinClassBits + nClasses - 1),
	}
	for r := range p.ranks {
		p.ranks[r] = &bufRankCache{free: make([][]*eagerBuf, nClasses)}
	}
	return p
}

// get acquires a buffer of capacity >= n for the given world rank, with
// refs = 1. Buffers larger than the largest class are allocated
// unpooled. They serve rendezvous-sized payloads: a ForcePack packed
// intermediate (in-process or a whole-pack wire Data send), a wire Data
// frame that cannot land in its posted receive (strided, or nothing to
// claim), and a chaos duplicate of a rendezvous message.
func (p *bufPool) get(rank, n int) *eagerBuf {
	if n > p.maxSize {
		p.misses.Add(1)
		b := &eagerBuf{data: make([]byte, n), class: -1, home: rank}
		b.refs.Store(1)
		return b
	}
	class := poolClassFor(n)
	if rank != poolNoRank {
		rc := p.ranks[rank]
		rc.mu.Lock()
		if l := len(rc.free[class]); l > 0 {
			b := rc.free[class][l-1]
			rc.free[class][l-1] = nil
			rc.free[class] = rc.free[class][:l-1]
			rc.mu.Unlock()
			p.hits.Add(1)
			b.home = rank
			b.refs.Store(1)
			return b
		}
		rc.mu.Unlock()
	}
	sc := &p.classes[class]
	sc.mu.Lock()
	if l := len(sc.free); l > 0 {
		b := sc.free[l-1]
		sc.free[l-1] = nil
		sc.free = sc.free[:l-1]
		sc.mu.Unlock()
		p.hits.Add(1)
		b.home = rank
		b.refs.Store(1)
		return b
	}
	sc.mu.Unlock()
	p.misses.Add(1)
	b := &eagerBuf{data: make([]byte, 1<<(poolMinClassBits+class)), class: class, home: rank}
	b.refs.Store(1)
	return b
}

// release drops one reference; the last reference returns the buffer to
// the pool — its home rank's cache first, the shared class on overflow —
// so the rank that acquires next (typically the same steady sender)
// finds it again. Safe to call from any goroutine.
func (p *bufPool) release(b *eagerBuf) {
	if b == nil {
		return
	}
	if b.refs.Add(-1) != 0 {
		return
	}
	p.puts.Add(1)
	if b.class < 0 {
		return // oversize: hand to the GC, its capacity is not reusable
	}
	// recycled counts bytes of capacity that actually re-enter a free
	// list. It used to be bumped unconditionally above, which credited
	// oversize buffers and cap-overflow drops — capacity the GC reclaims
	// — as "returned for reuse", skewing the size-class accounting for
	// payloads near the eager limit.
	if b.home != poolNoRank {
		rc := p.ranks[b.home]
		rc.mu.Lock()
		if len(rc.free[b.class]) < poolRankCap {
			rc.free[b.class] = append(rc.free[b.class], b)
			rc.mu.Unlock()
			p.recycled.Add(int64(len(b.data)))
			return
		}
		rc.mu.Unlock()
	}
	sc := &p.classes[b.class]
	sc.mu.Lock()
	if len(sc.free) < poolSharedCap {
		sc.free = append(sc.free, b)
		sc.mu.Unlock()
		p.recycled.Add(int64(len(b.data)))
		return
	}
	sc.mu.Unlock()
	// Beyond both caps the buffer is dropped to the GC; it is still
	// counted as put, so outstanding accounting stays exact.
}

// outstanding returns the number of buffers acquired and not yet
// released — zero once every in-flight message has been consumed.
func (p *bufPool) outstanding() int64 {
	// Read puts before gets: a concurrent get-then-release pair can then
	// at worst be counted as outstanding, never as negative.
	puts := p.puts.Load()
	gets := p.hits.Load() + p.misses.Load()
	return gets - puts
}
