package mpi

import "unsafe"

// Additional MPI-1.3 operations: vector collectives, reduce-scatter, and
// a recursive-doubling allreduce. Kept apart from collectives.go to keep
// the core algorithms readable.

// Ssend is the synchronous-mode send: it always completes only when the
// receiver has matched the message, regardless of size (the rendezvous
// path is forced). The happens-before edge it creates is what §III's
// analysis relies on for synchronization-by-message.
func Ssend[T Scalar](t *Task, comm *Comm, buf []T, dst, tag int) {
	comm = t.commOrWorld(comm)
	// Messages above the eager limit already synchronize (Send blocks
	// until the receiver copies). Small messages add an acknowledgement
	// token on the communicator's private sync context, which RecvSsend
	// returns after matching.
	if len(buf)*elemSize[T]() > t.world.cfg.EagerLimit {
		Send(t, comm, buf, dst, tag)
		return
	}
	Send(t, comm, buf, dst, tag)
	var token [0]byte
	t.await(irecv(t, comm, comm.ctxSync, token[:], dst, tag, "Ssend"), labelSsendAck, dst, tag, "Ssend")
}

// RecvSsend matches an Ssend of a small message: Recv plus the
// acknowledgement token. Large Ssends are plain Recvs.
func RecvSsend[T Scalar](t *Task, comm *Comm, buf []T, src, tag int) Status {
	comm = t.commOrWorld(comm)
	st := Recv(t, comm, buf, src, tag)
	if st.Bytes <= t.world.cfg.EagerLimit {
		// The 0-byte token is always eager (NewWorld keeps EagerLimit
		// >= 1), so isend completes it and returns no request.
		var token [0]byte
		isend(t, comm, comm.ctxSync, token[:], st.Source, tag, "RecvSsend")
	}
	return st
}

// Allgatherv is Allgather with per-rank counts and displacements (in
// elements): every task contributes sendBuf (counts[rank] elements) and
// receives everyone's block at displs[r].
func Allgatherv[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, counts, displs []int) {
	c, base := collStart(t, c)
	n := c.Size()
	r := c.Rank(t)
	if len(counts) != n || len(displs) != n {
		raise(t.rank, "Allgatherv", "counts/displs length %d/%d, want %d", len(counts), len(displs), n)
	}
	if len(sendBuf) != counts[r] {
		raise(t.rank, "Allgatherv", "send buffer length %d, counts[%d] = %d", len(sendBuf), r, counts[r])
	}
	chanAllgatherv(t, c, sendBuf, recvBuf, counts, displs, base)
}

func chanAllgatherv[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, counts, displs []int, base int) {
	n := c.Size()
	r := c.Rank(t)
	copy(recvBuf[displs[r]:displs[r]+counts[r]], sendBuf)
	right := (r + 1) % n
	left := (r - 1 + n) % n
	for step := 0; step < n-1; step++ {
		sendBlock := (r - step + n) % n
		recvBlock := (r - step - 1 + n) % n
		sreq := cisend(t, c, "Allgatherv", recvBuf[displs[sendBlock]:displs[sendBlock]+counts[sendBlock]], right, base+step)
		crecv(t, c, "Allgatherv", recvBuf[displs[recvBlock]:displs[recvBlock]+counts[recvBlock]], left, base+step)
		cwait(t, "Allgatherv", sreq, right, base+step)
	}
}

// Alltoallv is Alltoall with per-destination counts/displacements on both
// sides.
func Alltoallv[T Scalar](t *Task, c *Comm, sendBuf []T, sendCounts, sendDispls []int, recvBuf []T, recvCounts, recvDispls []int) {
	c, base := collStart(t, c)
	n := c.Size()
	r := c.Rank(t)
	if len(sendCounts) != n || len(sendDispls) != n || len(recvCounts) != n || len(recvDispls) != n {
		raise(t.rank, "Alltoallv", "counts/displs must all have length %d", n)
	}
	copy(recvBuf[recvDispls[r]:recvDispls[r]+recvCounts[r]],
		sendBuf[sendDispls[r]:sendDispls[r]+sendCounts[r]])
	for step := 1; step < n; step++ {
		dst := (r + step) % n
		src := (r - step + n) % n
		sreq := cisend(t, c, "Alltoallv", sendBuf[sendDispls[dst]:sendDispls[dst]+sendCounts[dst]], dst, base+step)
		crecv(t, c, "Alltoallv", recvBuf[recvDispls[src]:recvDispls[src]+recvCounts[src]], src, base+step)
		cwait(t, "Alltoallv", sreq, dst, base+step)
	}
}

// ReduceScatterBlock reduces sendBuf (n * blockLen elements) across all
// tasks with op, then scatters block r to rank r's recvBuf (blockLen
// elements). Implemented as reduce-to-0 + scatter.
func ReduceScatterBlock[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op) {
	if c == nil {
		c = t.world.world
	}
	n := c.Size()
	if len(sendBuf)%n != 0 {
		raise(t.rank, "ReduceScatterBlock", "send buffer length %d not divisible by %d tasks", len(sendBuf), n)
	}
	block := len(sendBuf) / n
	if len(recvBuf) < block {
		raise(t.rank, "ReduceScatterBlock", "receive buffer too small: %d < %d", len(recvBuf), block)
	}
	var full []T
	if c.Rank(t) == 0 {
		full = make([]T, len(sendBuf))
	}
	Reduce(t, c, sendBuf, full, op, 0)
	Scatter(t, c, full, recvBuf[:block], 0)
}

// AllreduceRD is Allreduce with the recursive-doubling algorithm: log2(n)
// exchange-and-combine rounds for power-of-two communicator sizes, with a
// fold-in pre/post phase for the remainder. It takes half the rounds of
// the channel reduce+broadcast (log2(n) against 2·log2(n)) but sends
// n·log2(n) messages against 2(n-1), and with tasks as goroutines on a
// few cores the message count decides: BenchmarkAllreduceAlgorithms
// reads ~36 µs for reduce+broadcast and ~95 µs for recursive doubling
// at 32 tasks on 2 vCPUs.
func AllreduceRD[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op) {
	c, base := collStart(t, c)
	if len(recvBuf) < len(sendBuf) {
		raise(t.rank, "AllreduceRD", "receive buffer too small: %d < %d", len(recvBuf), len(sendBuf))
	}
	chanAllreduceRD(t, c, sendBuf, recvBuf, op, base)
}

func chanAllreduceRD[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, base int) {
	n := c.Size()
	r := c.Rank(t)
	acc := recvBuf[:len(sendBuf)]
	copy(acc, sendBuf)

	// Largest power of two <= n.
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	// tmp receives partners' partial results. It comes from the eager
	// pool, so a steady stream of Allreduces allocates nothing; ranks
	// that only send never take one.
	var tmp []T
	if n > 1 && (r >= 2*rem || r%2 == 0) {
		b := t.world.pool.get(t.rank, len(sendBuf)*elemSize[T]())
		defer t.world.pool.release(b)
		tmp = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b.data))), len(sendBuf))
	}

	// Phase 1: the first 2*rem ranks fold pairs so pof2 ranks remain.
	// Odd ranks of the pairs send and sit out; even ranks absorb.
	newRank := -1
	switch {
	case r < 2*rem && r%2 != 0: // sends, then waits for the result
		csend(t, c, "AllreduceRD", acc, r-1, base)
	case r < 2*rem: // absorbs its right neighbour
		crecv(t, c, "AllreduceRD", tmp, r+1, base)
		apply(t.rank, op, acc, tmp)
		newRank = r / 2
	default:
		newRank = r - rem
	}

	// Phase 2: recursive doubling among the pof2 survivors.
	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partnerNew := newRank ^ mask
			partner := partnerNew + rem
			if partnerNew < rem {
				partner = partnerNew * 2
			}
			sreq := cisend(t, c, "AllreduceRD", acc, partner, base+1+log2(mask))
			crecv(t, c, "AllreduceRD", tmp, partner, base+1+log2(mask))
			cwait(t, "AllreduceRD", sreq, partner, base+1+log2(mask))
			apply(t.rank, op, acc, tmp)
		}
	}

	// Phase 3: ship results back to the folded-out ranks.
	finalTag := base + 1 + log2(pof2) + 1
	if r < 2*rem {
		if r%2 == 0 {
			csend(t, c, "AllreduceRD", acc, r+1, finalTag)
		} else {
			crecv(t, c, "AllreduceRD", acc, r-1, finalTag)
		}
	}
}

func log2(v int) int {
	s := 0
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}
