package spin

import (
	"fmt"
	"runtime"
)

// Tree is a hierarchical barrier: members first synchronize within the
// narrowest hardware grouping (core, then a shared cache level, then
// the NUMA domain, ...), and one representative per group carries the
// arrival to the next level, so "locks and counters stay in the shared
// cache and all synchronizations at the llc scope happen in parallel"
// (§IV-B). Leader election is dynamic: the last task to arrive in a
// group represents it upward, and on the way back releases the group.
//
// A Tree is built from per-member *instance paths*: paths[m][l] is the
// hardware instance member m belongs to at tree level l, narrowest
// level first (see topology.SyncPaths). All paths must have the same
// length; length zero makes the tree a single flat barrier over all
// members. A Tree is reusable — generations are tracked by the
// underlying sense-reversing barriers.
type Tree struct {
	levels []map[int]*Barrier // levels[l][instance]
	top    *Barrier
	paths  [][]int
}

// NewTree builds a tree for len(paths) members.
func NewTree(paths [][]int) *Tree {
	n := len(paths)
	if n == 0 {
		panic("spin: tree needs at least one member")
	}
	depth := len(paths[0])
	for m, p := range paths {
		if len(p) != depth {
			panic(fmt.Sprintf("spin: path %d has %d levels, want %d", m, len(p), depth))
		}
	}
	t := &Tree{paths: paths, levels: make([]map[int]*Barrier, depth)}
	// units[m] is true while member m still represents a group at the
	// level being built: at level 0 every member is a unit; above, only
	// one representative per level-(l-1) group remains.
	units := make([]bool, n)
	for m := range units {
		units[m] = true
	}
	for l := 0; l < depth; l++ {
		sizes := make(map[int]int)
		first := make(map[int]int) // instance -> representative member
		for m := 0; m < n; m++ {
			if !units[m] {
				continue
			}
			inst := paths[m][l]
			if _, ok := first[inst]; !ok {
				first[inst] = m
			}
			sizes[inst]++
		}
		t.levels[l] = make(map[int]*Barrier, len(sizes))
		for inst, sz := range sizes {
			t.levels[l][inst] = NewBarrier(sz)
		}
		for m := range units {
			if units[m] && first[paths[m][l]] != m {
				units[m] = false
			}
		}
	}
	topSize := 0
	for _, u := range units {
		if u {
			topSize++
		}
	}
	t.top = NewBarrier(topSize)
	return t
}

// NewAdaptiveTree builds the hierarchical tree when the runtime can
// actually execute members in parallel, and collapses it to a single
// flat barrier when GOMAXPROCS is 1: without concurrent execution the
// hierarchy's benefits (synchronizations proceeding in parallel within
// each shared cache, no cross-cache line bouncing) cannot materialize,
// while its cost — one serialized park/wake handoff per level on the
// critical path — remains. The decision is sampled at construction;
// barriers are rebuilt on migration, so a long-lived program follows
// GOMAXPROCS changes at the next rebuild.
func NewAdaptiveTree(paths [][]int) *Tree {
	if runtime.GOMAXPROCS(0) == 1 {
		return NewTree(make([][]int, len(paths)))
	}
	return NewTree(paths)
}

// Members returns the number of participating members.
func (t *Tree) Members() int { return len(t.paths) }

// Depth returns the number of grouping levels below the top barrier.
func (t *Tree) Depth() int { return len(t.levels) }

// Await synchronizes member (0-based) with every other member. The
// dynamically elected leader — the globally last arriver — runs body
// (if non-nil) after everyone arrived and before anyone is released;
// Await reports whether this member executed it. On an aborted tree
// Await returns the abort error; the levels this member won stay
// unreleased, since Abort poisons every level and wakes their waiters.
func (t *Tree) Await(member int, body func()) (bool, error) {
	p := t.paths[member]
	climbed := 0
	for ; climbed < len(t.levels); climbed++ {
		last, err := t.levels[climbed][p[climbed]].Arrive()
		if err != nil {
			return false, err
		}
		if !last {
			// A later arriver of this group represented us upward and,
			// on its way back down, released this level — but we still
			// lead every level we won below it and must release those.
			break
		}
	}
	executed := false
	if climbed == len(t.levels) {
		var err error
		if executed, err = t.top.Await(body); err != nil {
			return false, err
		}
	}
	for l := climbed - 1; l >= 0; l-- {
		t.levels[l][p[l]].Release()
	}
	return executed, nil
}

// Abort poisons every barrier of the tree (see Barrier.Abort).
func (t *Tree) Abort(err error) {
	if err == nil {
		return
	}
	for _, lvl := range t.levels {
		for _, b := range lvl {
			b.Abort(err)
		}
	}
	t.top.Abort(err)
}

// AbortErr returns the poison error, or nil while the tree is healthy.
func (t *Tree) AbortErr() error { return t.top.AbortErr() }
