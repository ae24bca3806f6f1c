// Package cachesim simulates the node's cache hierarchy: set-associative
// LRU caches built from a topology.Machine (private L1/L2 per core, a
// last-level cache shared per socket on Nehalem-EX), with MSI-style
// coherence — a write invalidates every other cache's copy of the line.
//
// This is the substrate for the paper's §V-A cache-footprint experiments
// (Table I and Figure 3): the benchmarks generate their real memory-access
// streams (mesh update with a shared interpolation table; blocked DGEMM
// with a shared B matrix), the simulator replays them, and per-core cycle
// counts plus a per-socket memory-bandwidth roofline yield the parallel
// efficiency the paper reports. Whether the common table is duplicated per
// task or HLS-shared changes only the addresses in the stream — exactly
// the mechanism the paper exploits.
//
// A System is not safe for concurrent use; the driver (see Interleave)
// multiplexes per-core access streams onto it in round-robin chunks to
// model tasks progressing at the same pace.
package cachesim

import (
	"fmt"

	"hls/internal/topology"
)

// Access is one memory reference by a core.
type Access struct {
	Addr  uint64
	Bytes int
	Write bool
}

// Stats aggregates simulator counters.
type Stats struct {
	// HitsByLevel[l-1] counts hits at cache level l.
	HitsByLevel []uint64
	// MemAccesses counts references served by memory (missed every level).
	MemAccesses uint64
	// Invalidations counts lines invalidated in other caches by writes.
	Invalidations uint64
	// CoherenceMisses counts misses on lines that were previously present
	// but had been invalidated by another core's write.
	CoherenceMisses uint64
	// MemLinesBySocket counts lines transferred from memory per socket,
	// for the bandwidth roofline.
	MemLinesBySocket []uint64
	// Writebacks counts dirty (modified) lines evicted from last-level
	// caches; they consume memory bandwidth like fills and are added to
	// the per-socket traffic.
	Writebacks uint64
}

// line states
const (
	stateInvalid  = 0
	stateShared   = 1
	stateModified = 2
)

type way struct {
	lineAddr uint64 // full line address (addr >> lineShift), valid if state != invalid
	state    uint8
	lru      uint32
}

type cache struct {
	id       int // global cache id across the system (directory bit index)
	level    int
	sets     [][]way
	nsets    uint64
	lruClock uint32
	latency  uint64
}

func (c *cache) setOf(lineAddr uint64) []way {
	return c.sets[lineAddr%c.nsets]
}

// lookup returns the way holding lineAddr, or nil.
func (c *cache) lookup(lineAddr uint64) *way {
	set := c.setOf(lineAddr)
	for i := range set {
		if set[i].state != stateInvalid && set[i].lineAddr == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// System simulates all caches of one machine.
type System struct {
	machine   *topology.Machine
	lineBytes int
	lineShift uint
	levels    int

	// caches[l-1][instance] for level l
	caches [][]*cache
	// pathFor[core][l-1] = the cache instance core uses at level l
	pathFor [][]*cache

	cycles     []uint64 // per core
	memLatency uint64
	// invalLatency is charged to a writer per remote copy invalidated.
	invalLatency uint64

	dir directory

	stats Stats
	// invalidated remembers lines that lost a copy to coherence, to
	// classify the next miss on them; indexed by dense line address.
	invalidated []bool
}

// New builds a cache system for machine m. All cache levels must share one
// line size. Panics on an inconsistent machine (no caches, mixed lines).
func New(m *topology.Machine) *System {
	if m.CacheLevels() == 0 {
		panic("cachesim: machine has no caches")
	}
	lineBytes := m.CacheConfig(1).LineBytes
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes {
		panic(fmt.Sprintf("cachesim: line size %d not a power of two", lineBytes))
	}
	s := &System{
		machine:      m,
		lineBytes:    lineBytes,
		lineShift:    shift,
		levels:       m.CacheLevels(),
		cycles:       make([]uint64, m.TotalCores()),
		memLatency:   uint64(m.Spec.MemLatencyCycles),
		invalLatency: 24,
	}
	if s.memLatency == 0 {
		s.memLatency = 200
	}
	nextID := 0
	s.caches = make([][]*cache, s.levels)
	for l := 1; l <= s.levels; l++ {
		cfg := m.CacheConfig(l)
		if cfg.LineBytes != lineBytes {
			panic("cachesim: all cache levels must share one line size")
		}
		nInst := m.InstanceCount(topology.Cache(l)) // per cluster; cache experiments use 1 node
		sets := cfg.SizeBytes / (cfg.Assoc * cfg.LineBytes)
		insts := make([]*cache, nInst)
		for i := range insts {
			c := &cache{id: nextID, level: l, nsets: uint64(sets), latency: uint64(cfg.LatencyCycles)}
			nextID++
			c.sets = make([][]way, sets)
			for si := range c.sets {
				c.sets[si] = make([]way, cfg.Assoc)
			}
			insts[i] = c
		}
		s.caches[l-1] = insts
	}
	s.dir = newDirectory(nextID)
	// Precompute each core's cache path. Cores use their first hardware
	// thread for scope arithmetic.
	tpc := m.Spec.ThreadsPerCore
	s.pathFor = make([][]*cache, m.TotalCores())
	for core := range s.pathFor {
		thread := core * tpc
		path := make([]*cache, s.levels)
		for l := 1; l <= s.levels; l++ {
			inst := m.ScopeInstance(thread, topology.Cache(l))
			path[l-1] = s.caches[l-1][inst]
		}
		s.pathFor[core] = path
	}
	s.stats.HitsByLevel = make([]uint64, s.levels)
	s.stats.MemLinesBySocket = make([]uint64, m.InstanceCount(topology.NUMA))
	return s
}

// LineBytes returns the system's cache-line size.
func (s *System) LineBytes() int { return s.lineBytes }

// Machine returns the underlying machine.
func (s *System) Machine() *topology.Machine { return s.machine }

// Access simulates one reference by `core` (global core id), touching
// every line in [addr, addr+bytes).
func (s *System) Access(core int, addr uint64, bytes int, write bool) {
	if core < 0 || core >= len(s.cycles) {
		panic(fmt.Sprintf("cachesim: core %d out of range [0,%d)", core, len(s.cycles)))
	}
	if bytes <= 0 {
		return
	}
	first := addr >> s.lineShift
	last := (addr + uint64(bytes) - 1) >> s.lineShift
	for la := first; la <= last; la++ {
		s.accessLine(core, la, write)
	}
}

// socketOf returns the NUMA/socket index of a core.
func (s *System) socketOf(core int) int {
	thread := core * s.machine.Spec.ThreadsPerCore
	return s.machine.ScopeInstance(thread, topology.NUMA)
}

func (s *System) accessLine(core int, lineAddr uint64, write bool) {
	path := s.pathFor[core]
	hitLevel := -1
	var hitWay *way
	for l := 0; l < s.levels; l++ {
		if w := path[l].lookup(lineAddr); w != nil {
			hitLevel = l
			hitWay = w
			break
		}
	}
	if hitLevel >= 0 {
		s.stats.HitsByLevel[hitLevel]++
		s.cycles[core] += path[hitLevel].latency
		s.touch(path[hitLevel], hitWay)
		// Fill the levels above the hit.
		for l := 0; l < hitLevel; l++ {
			s.install(path[l], lineAddr, stateShared)
		}
	} else {
		s.stats.MemAccesses++
		s.stats.MemLinesBySocket[s.socketOf(core)]++
		s.cycles[core] += s.memLatency
		if int(lineAddr) < len(s.invalidated) && s.invalidated[lineAddr] {
			s.stats.CoherenceMisses++
			s.invalidated[lineAddr] = false
		}
		for l := 0; l < s.levels; l++ {
			s.install(path[l], lineAddr, stateShared)
		}
	}
	if write {
		s.upgrade(core, lineAddr)
	}
}

// touch refreshes LRU state.
func (s *System) touch(c *cache, w *way) {
	c.lruClock++
	w.lru = c.lruClock
}

// install places lineAddr into cache c (evicting the LRU way if needed)
// and records the sharer in the directory. lineAddr must be absent from
// c: accessLine installs only at levels whose lookup just missed.
func (s *System) install(c *cache, lineAddr uint64, state uint8) {
	set := c.setOf(lineAddr)
	victim := &set[0]
	for i := range set {
		if set[i].state == stateInvalid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	if victim.state != stateInvalid {
		s.dir.clear(victim.lineAddr, c.id)
		// A dirty line leaving the last level writes back to memory.
		if victim.state == stateModified && c.level == s.levels {
			s.stats.Writebacks++
			s.stats.MemLinesBySocket[s.socketForCache(c)]++
		}
	}
	victim.lineAddr = lineAddr
	victim.state = state
	s.touch(c, victim)
	s.dir.set(lineAddr, c.id)
}

// upgrade gives the writing core exclusive ownership: every cache that is
// not on the writer's path drops its copy.
func (s *System) upgrade(core int, lineAddr uint64) {
	path := s.pathFor[core]
	onPath := func(id int) bool {
		for _, c := range path {
			if c.id == id {
				return true
			}
		}
		return false
	}
	invalidatedAny := false
	s.dir.forEach(lineAddr, func(id int) {
		if onPath(id) {
			return
		}
		c := s.cacheByID(id)
		if w := c.lookup(lineAddr); w != nil {
			w.state = stateInvalid
			s.dir.clear(lineAddr, id)
			s.stats.Invalidations++
			s.cycles[core] += s.invalLatency
			invalidatedAny = true
		}
	})
	if invalidatedAny {
		if int(lineAddr) >= len(s.invalidated) {
			grown := make([]bool, max(int(lineAddr)+1, len(s.invalidated)*2+1))
			copy(grown, s.invalidated)
			s.invalidated = grown
		}
		s.invalidated[lineAddr] = true
	}
	for _, c := range path {
		if w := c.lookup(lineAddr); w != nil {
			w.state = stateModified
		}
	}
}

// socketForCache maps an LLC instance to its socket for write-back
// traffic accounting (valid for caches at socket granularity or below).
func (s *System) socketForCache(c *cache) int {
	instIdx := c.id - s.caches[c.level-1][0].id
	sockets := s.machine.InstanceCount(topology.NUMA)
	perSocket := len(s.caches[c.level-1]) / sockets
	if perSocket == 0 {
		perSocket = 1
	}
	sock := instIdx / perSocket
	if sock >= sockets {
		sock = sockets - 1
	}
	return sock
}

func (s *System) cacheByID(id int) *cache {
	for _, lvl := range s.caches {
		if id < lvl[0].id+len(lvl) && id >= lvl[0].id {
			return lvl[id-lvl[0].id]
		}
	}
	panic(fmt.Sprintf("cachesim: unknown cache id %d", id))
}

// Cycles returns the accumulated cycle count of a core.
func (s *System) Cycles(core int) uint64 { return s.cycles[core] }

// MaxCycles returns the maximum cycle count over the given cores (the
// parallel makespan under weak scaling).
func (s *System) MaxCycles(cores []int) uint64 {
	var m uint64
	for _, c := range cores {
		if s.cycles[c] > m {
			m = s.cycles[c]
		}
	}
	return m
}

// Stats returns a copy of the counters.
func (s *System) Stats() Stats {
	st := s.stats
	st.HitsByLevel = append([]uint64(nil), s.stats.HitsByLevel...)
	st.MemLinesBySocket = append([]uint64(nil), s.stats.MemLinesBySocket...)
	return st
}

// ResetCounters zeroes cycles and statistics while keeping cache contents
// and coherence state, so a measurement can exclude cold-start warm-up
// (the paper's kernels iterate many time steps; Table I and Figure 3 are
// steady-state numbers).
func (s *System) ResetCounters() {
	for i := range s.cycles {
		s.cycles[i] = 0
	}
	s.stats = Stats{
		HitsByLevel:      make([]uint64, s.levels),
		MemLinesBySocket: make([]uint64, s.machine.InstanceCount(topology.NUMA)),
	}
}

// Reset clears all cache contents, counters and cycles.
func (s *System) Reset() {
	for _, lvl := range s.caches {
		for _, c := range lvl {
			for si := range c.sets {
				for wi := range c.sets[si] {
					c.sets[si][wi] = way{}
				}
			}
			c.lruClock = 0
		}
	}
	for i := range s.cycles {
		s.cycles[i] = 0
	}
	s.dir = newDirectory(s.dir.numCaches)
	s.stats = Stats{
		HitsByLevel:      make([]uint64, s.levels),
		MemLinesBySocket: make([]uint64, s.machine.InstanceCount(topology.NUMA)),
	}
	s.invalidated = nil
}
