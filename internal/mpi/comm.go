package mpi

import (
	"fmt"
	"hash/fnv"
	"sort"

	"hls/internal/topology"
)

// Comm is a communicator: an ordered group of world ranks with private
// communication contexts, so traffic on different communicators (and
// collective vs point-to-point traffic on the same communicator) can never
// match.
type Comm struct {
	world     *World
	id        int64
	group     []int // comm rank -> world rank
	rankIndex map[int]int
	ctxUser   int64
	ctxColl   int64
	ctxSync   int64 // synchronous-send acknowledgements

	// shm is the shared-address-space collective fast path of this
	// communicator, non-nil iff the world runs with it enabled.
	shm *shmColl
	// tl is the two-level decomposition of this communicator in a
	// distributed world (node-local sub-communicator + leaders
	// communicator; see twolevel.go), non-nil iff the world runs with it
	// enabled and this process hosts at least one member.
	tl *twoLevelColl
}

// Size returns the number of tasks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// ID returns the communicator's world-unique identifier. Layers built on
// the runtime (internal/rma) use it to intern per-communicator objects
// that every member must resolve identically.
func (c *Comm) ID() int64 { return c.id }

// Rank returns t's rank within the communicator, or -1 if t is not a
// member.
func (c *Comm) Rank(t *Task) int { return c.rankOf(t.rank) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(r int) int { return c.group[r] }

func (c *Comm) rankOf(worldRank int) int {
	if c.rankIndex == nil {
		// world communicator: identity mapping
		if worldRank < len(c.group) {
			return worldRank
		}
		return -1
	}
	if r, ok := c.rankIndex[worldRank]; ok {
		return r
	}
	return -1
}

// commTaskState is a task's private bookkeeping for one communicator.
type commTaskState struct {
	collSeq  int64 // collective-operation sequence number
	deriveSq int64 // Dup/Split sequence number
}

func (t *Task) stateFor(c *Comm) *commTaskState {
	st, ok := t.commState[c.id]
	if !ok {
		st = &commTaskState{}
		t.commState[c.id] = st
	}
	return st
}

// commBase derives a communicator's id and context base from its intern
// key. In a single process a counter would do, but a distributed world
// has one World instance per process and no counter synchronization:
// every member must compute identical contexts independently, or wire
// messages would never match. The intern keys are already deterministic
// across members (Dup/Split construct them from collective-ordered
// sequence numbers), so hashing the key gives each process the same
// values. The hash is shifted left by commCtxStride so the id and the
// three contexts occupy consecutive integers, and bit 62 is set to keep
// hashed values disjoint from the small counter-allocated ones (the
// world communicator's), with bit 63 clear so contexts stay positive.
const commCtxStride = 4

func commBase(key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return int64(h.Sum64()<<commCtxStride&^(1<<63)) | 1<<62
}

// internComm interns derived communicators so that every member of a
// Dup/Split obtains the same *Comm without pointer-passing messages: all
// members compute the same deterministic key and the first one to arrive
// creates the communicator.
func (w *World) internComm(key string, build func() *Comm) *Comm {
	w.comms.mu.Lock()
	defer w.comms.mu.Unlock()
	if c, ok := w.comms.byKey[key]; ok {
		return c
	}
	if w.comms.byKey == nil {
		w.comms.byKey = make(map[string]*Comm)
	}
	c := build()
	w.comms.byKey[key] = c
	return c
}

func (c *Comm) buildIndex() {
	c.rankIndex = make(map[int]int, len(c.group))
	for i, wr := range c.group {
		c.rankIndex[wr] = i
	}
}

// Dup returns a communicator with the same group as c but fresh contexts.
// Collective over c.
func Dup(t *Task, c *Comm) *Comm {
	if c == nil {
		c = t.world.world
	}
	st := t.stateFor(c)
	st.deriveSq++
	key := fmt.Sprintf("dup:%d:%d", c.id, st.deriveSq)
	// A barrier makes Dup collective and orders deriveSq consistently.
	Barrier(t, c)
	return t.world.internComm(key, func() *Comm {
		group := append([]int(nil), c.group...)
		nc := t.world.newCommKeyed(key, group)
		nc.buildIndex()
		return nc
	})
}

// Undefined, passed as the color to Split, excludes the task from every
// resulting communicator (Split returns nil for it).
const Undefined = -1

// Split partitions c into one communicator per distinct non-negative
// color. Within a color, ranks are ordered by (key, rank in c). Tasks
// passing Undefined get nil. Collective over c.
func Split(t *Task, c *Comm, color, key int) *Comm {
	if c == nil {
		c = t.world.world
	}
	n := c.Size()
	me := c.Rank(t)
	if me < 0 {
		raise(t.rank, "Split", "task is not a member of the communicator")
	}
	// Exchange (color, key) pairs.
	pairs := make([]int, 2*n)
	Allgather(t, c, []int{color, key}, pairs)

	st := t.stateFor(c)
	st.deriveSq++
	if color == Undefined {
		return nil
	}

	type member struct{ key, commRank int }
	var members []member
	for r := 0; r < n; r++ {
		if pairs[2*r] == color {
			members = append(members, member{key: pairs[2*r+1], commRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].commRank < members[j].commRank
	})
	group := make([]int, len(members))
	for i, m := range members {
		group[i] = c.group[m.commRank]
	}
	splitKey := fmt.Sprintf("split:%d:%d:%d", c.id, st.deriveSq, color)
	return t.world.internComm(splitKey, func() *Comm {
		nc := t.world.newCommKeyed(splitKey, group)
		nc.buildIndex()
		return nc
	})
}

// SplitScope partitions the world communicator by topology scope: tasks
// pinned inside the same instance of scope s end up in the same
// communicator, ordered by world rank. This is the communicator-level view
// of an HLS scope. Collective over the world communicator.
func SplitScope(t *Task, s topology.Scope) *Comm {
	s, err := t.world.machine.Resolve(s)
	if err != nil {
		raise(t.rank, "SplitScope", "%v", err)
	}
	color := t.world.machine.ScopeInstance(t.Thread(), s)
	return Split(t, t.world.world, color, t.rank)
}
