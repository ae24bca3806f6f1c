package mpi

import "fmt"

// Two-level (hierarchy-aware) collectives for distributed worlds. The
// flat channel algorithms route per tree hop, so one logical edge may
// cross the same TCP link several times per operation — O(P·hops)
// cross-node frames. The decomposition here is the paper's hierarchy
// argument applied to collectives: tasks that share a process share an
// address space, so the intra-node phase rides the shared-address-space
// fast path (shmcoll.go) with zero messages, and only one leader per
// node speaks on the wire — O(nodes·log nodes) frames per collective.
//
// Leader election is deterministic and communication-free: every process
// holds an identical rank→node map (topology.Pinning.NodeOf, the same
// array wire routing uses), so every member computes the same node
// ordinals, the same per-node member lists, and the same leader — the
// lowest communicator rank on each node. The node-local sub-communicator
// and the leaders communicator derive their contexts from intern keys
// hashed off the parent's id (commBase), so no setup traffic is needed
// either.
//
// Tag discipline: the parent's collective base tag (collSeq <<
// collStepBits) is world-agreed and unique per operation, so it serves
// directly as the shm sequence number of the node-local phases and as
// the base tag of the leaders-communicator phase; the leaders
// communicator carries no other traffic.
//
// Failure handling extends the fast path's abort integration across the
// wire: the node-local trees register with the parent communicator
// attached (shmColl.parent), so a rank failure anywhere in the parent —
// a remote leader included — aborts members parked in the intra-node
// phase immediately, while leaders blocked in cross-node traffic unwind
// through the ordinary p2p dead-rank cascade.

// twoLevelColl is one communicator's decomposition: the node-local
// sub-communicator (shm fast path), the leaders communicator (channel
// algorithms over the wire), and the node layout every member computed
// identically.
type twoLevelColl struct {
	local   *Comm // this node's members of the parent, in parent-rank order
	leaders *Comm // one leader per node, in node-ordinal order

	nodeIdx     []int   // parent comm rank -> node ordinal
	nodeMembers [][]int // node ordinal -> parent comm ranks, ascending
	myNode      int     // this process's node ordinal
}

// buildTwoLevel computes the decomposition of c, or nil when it does not
// apply: single-member communicators, or communicators with no member in
// this process (no local task can call a collective on those).
func (w *World) buildTwoLevel(c *Comm) *twoLevelColl {
	n := len(c.group)
	if n < 2 {
		return nil
	}
	nodeOf := w.net.nodeOf
	nodeIdx := make([]int, n)
	ordinal := make(map[int]int) // node id -> ordinal (first-appearance order)
	var nodeMembers [][]int
	for i, wr := range c.group {
		nd := nodeOf[wr]
		j, ok := ordinal[nd]
		if !ok {
			j = len(nodeMembers)
			ordinal[nd] = j
			nodeMembers = append(nodeMembers, nil)
		}
		nodeIdx[i] = j
		nodeMembers[j] = append(nodeMembers[j], i)
	}
	myNode, ok := ordinal[w.net.self]
	if !ok {
		return nil
	}
	localGroup := make([]int, len(nodeMembers[myNode]))
	for i, cr := range nodeMembers[myNode] {
		localGroup[i] = c.group[cr]
	}
	leadGroup := make([]int, len(nodeMembers))
	for j, m := range nodeMembers {
		leadGroup[j] = c.group[m[0]]
	}
	local := w.newCommKeyed(fmt.Sprintf("2l:local:%d:%d", c.id, w.net.self), localGroup)
	local.buildIndex()
	// All members of local live in this process, so the fast path is
	// safe regardless of the world-level shmOn decision; the parent
	// attachment routes remote failures into the local tree.
	local.shm = newShmColl(w, local, c)
	leaders := w.newCommKeyed(fmt.Sprintf("2l:leaders:%d", c.id), leadGroup)
	leaders.buildIndex()
	return &twoLevelColl{
		local:       local,
		leaders:     leaders,
		nodeIdx:     nodeIdx,
		nodeMembers: nodeMembers,
		myNode:      myNode,
	}
}

// twoLevelBarrier: local barrier (all entered on this node), leaders
// barrier (all nodes entered), local barrier (release).
func twoLevelBarrier(t *Task, c *Comm, base int) {
	tl := c.tl
	shmBarrier(t, tl.local, base)
	if tl.local.Rank(t) == 0 {
		chanBarrier(t, tl.leaders, base)
	}
	shmBarrier(t, tl.local, base)
	t.world.stats.twoLevelCollectives.Add(1)
}

// twoLevelBcast: on the root's node the buffer fans out locally first,
// then the leader runs the binomial tree over the leaders; other nodes'
// leaders receive and fan out locally.
func twoLevelBcast[T Scalar](t *Task, c *Comm, buf []T, root, base int) {
	tl := c.tl
	lme := tl.local.Rank(t)
	rootNode := tl.nodeIdx[root]
	if tl.myNode == rootNode {
		lroot := tl.local.rankOf(c.group[root])
		shmBcast(t, tl.local, buf, lroot, base)
		if lme == 0 {
			chanBcast(t, tl.leaders, buf, rootNode, base)
		}
	} else {
		if lme == 0 {
			chanBcast(t, tl.leaders, buf, rootNode, base)
		}
		shmBcast(t, tl.local, buf, 0, base)
	}
	t.world.stats.twoLevelCollectives.Add(1)
}

// twoLevelReduce: local reduce to the node leader, binomial tree over
// the leaders to the root's node, then — when the root is not its node's
// leader — one in-process hop from leader to root on the parent's
// collective context.
func twoLevelReduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, root, base int) {
	tl := c.tl
	me := c.Rank(t)
	k := len(sendBuf)
	if me == root && len(recvBuf) < k {
		raise(t.rank, "Reduce", "receive buffer too small: %d < %d", len(recvBuf), k)
	}
	rootNode := tl.nodeIdx[root]
	rootLeader := tl.nodeMembers[rootNode][0]
	if tl.local.Rank(t) == 0 {
		acc := make([]T, k)
		shmReduce(t, tl.local, sendBuf, acc, op, 0, base)
		switch {
		case me == root:
			chanReduce(t, tl.leaders, acc, recvBuf, op, rootNode, base)
		case tl.myNode == rootNode:
			res := make([]T, k)
			chanReduce(t, tl.leaders, acc, res, op, rootNode, base)
			csend(t, c, "Reduce", res, root, base)
		default:
			chanReduce(t, tl.leaders, acc, nil, op, rootNode, base)
		}
	} else {
		shmReduce(t, tl.local, sendBuf, nil, op, 0, base)
		if me == root {
			crecv(t, c, "Reduce", recvBuf[:k], rootLeader, base)
		}
	}
	t.world.stats.twoLevelCollectives.Add(1)
}

// twoLevelAllreduce: local reduce into the leader's receive buffer,
// recursive doubling over the leaders, local broadcast of the result.
func twoLevelAllreduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, base int) {
	tl := c.tl
	k := len(sendBuf)
	if tl.local.Rank(t) == 0 {
		shmReduce(t, tl.local, sendBuf, recvBuf[:k], op, 0, base)
		chanAllreduceRD(t, tl.leaders, recvBuf[:k], recvBuf[:k], op, base)
	} else {
		shmReduce(t, tl.local, sendBuf, nil, op, 0, base)
	}
	shmBcast(t, tl.local, recvBuf[:k], 0, base)
	t.world.stats.twoLevelCollectives.Add(1)
}

// twoLevelAllgather: local allgather assembles the node's block, the
// leaders exchange whole node blocks (one ring message per node per
// step instead of one per rank), the leader scatters blocks into
// parent-rank order, and a local broadcast distributes the full result.
func twoLevelAllgather[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, base int) {
	tl := c.tl
	k := len(sendBuf)
	n := c.Size()
	nLocal := tl.local.Size()
	local := make([]T, nLocal*k)
	shmAllgather(t, tl.local, sendBuf, local, base)
	if tl.local.Rank(t) == 0 {
		nn := len(tl.nodeMembers)
		counts := make([]int, nn)
		displs := make([]int, nn)
		off := 0
		for j, m := range tl.nodeMembers {
			counts[j] = len(m) * k
			displs[j] = off
			off += counts[j]
		}
		gath := make([]T, n*k)
		chanAllgatherv(t, tl.leaders, local, gath, counts, displs, base)
		for j, m := range tl.nodeMembers {
			for i, cr := range m {
				copy(recvBuf[cr*k:(cr+1)*k], gath[displs[j]+i*k:displs[j]+(i+1)*k])
			}
		}
	}
	shmBcast(t, tl.local, recvBuf[:n*k], 0, base)
	t.world.stats.twoLevelCollectives.Add(1)
}
