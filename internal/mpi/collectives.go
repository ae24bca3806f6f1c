package mpi

// Collective operations. All of them are implemented on top of the
// point-to-point layer on the communicator's private collective context,
// so every synchronization a collective implies is visible to the
// happens-before tracker as ordinary message edges.
//
// Tags encode (collective sequence number, algorithm step): every task of
// a communicator executes collectives in the same order, so sequence
// numbers agree, and traffic from adjacent collectives cannot be confused
// even when a fast task races ahead.

const collStepBits = 10 // up to 1024 algorithm steps per collective

// collStart bumps the communicator's collective sequence number for this
// task and returns the base tag.
func collStart(t *Task, c *Comm) (comm *Comm, baseTag int) {
	if c == nil {
		c = t.world.world
	}
	if c.Rank(t) < 0 {
		raise(t.rank, "collective", "task is not a member of the communicator")
	}
	st := t.stateFor(c)
	st.collSeq++
	t.world.stats.collectives.Add(1)
	if th := t.world.traceHooks; th != nil {
		// (collective context, sequence) is world-agreed: every member
		// executes collectives on c in the same order, so the pair
		// identifies this operation across processes.
		alg := "chan"
		switch {
		case c.shm != nil:
			alg = "shm"
		case c.tl != nil:
			alg = "2l"
		}
		th.SpanCollective(t.rank, c.ctxColl, int64(st.collSeq), alg)
	}
	return c, int(st.collSeq << collStepBits)
}

// collLabels holds the pre-boxed blocked-on labels of csend and crecv
// for every collective that uses them, indexed by op name, so a
// collective hop publishes its wait without allocating; blockedDesc
// adds the peer and tag on the diagnostic path only.
var collLabels = func() map[string]*[2]any {
	m := make(map[string]*[2]any)
	for _, op := range []string{
		"Allgather", "Allgatherv", "AllreduceRD", "Alltoall", "Alltoallv", "Barrier",
		"Bcast", "Gather", "Gatherv", "Reduce", "Scan", "Scatter", "Scatterv",
	} {
		m[op] = collLabel(op)
	}
	return m
}()

func collLabel(op string) *[2]any {
	return &[2]any{op + " rendezvous send", op + " recv"}
}

// collLabelsFor returns op's labels: [0] for a rendezvous send, [1] for
// a receive.
func collLabelsFor(op string) *[2]any {
	if l := collLabels[op]; l != nil {
		return l
	}
	return collLabel(op)
}

// csend / crecv are collective-context point-to-point helpers. op names
// the collective ("Barrier", "Bcast", ...) so failures surface as typed
// errors attributed to it.
func csend[T Scalar](t *Task, c *Comm, op string, buf []T, dst, tag int) {
	if req := isend(t, c, c.ctxColl, buf, dst, tag, op); req != nil {
		cwait(t, op, req, dst, tag)
	}
}

// cwait waits out a collective send request from isend or cisend.
func cwait(t *Task, op string, req *Request, dst, tag int) {
	t.await(req, collLabelsFor(op)[0], dst, tag, op)
}

func cisend[T Scalar](t *Task, c *Comm, op string, buf []T, dst, tag int) *Request {
	req := isend(t, c, c.ctxColl, buf, dst, tag, op)
	if req == nil {
		req = newRequest(false)
		req.complete(Status{})
	}
	return req
}

func crecv[T Scalar](t *Task, c *Comm, op string, buf []T, src, tag int) {
	t.await(irecv(t, c, c.ctxColl, buf, src, tag, op), collLabelsFor(op)[1], src, tag, op)
}

// Barrier blocks until every task of the communicator has entered it.
// Dissemination algorithm: ceil(log2 n) rounds, in round k each task sends
// to (rank+2^k) mod n and receives from (rank-2^k) mod n.
func Barrier(t *Task, c *Comm) {
	c, base := collStart(t, c)
	if c.shm != nil {
		shmBarrier(t, c, base)
		return
	}
	if c.tl != nil {
		twoLevelBarrier(t, c, base)
		return
	}
	chanBarrier(t, c, base)
}

func chanBarrier(t *Task, c *Comm, base int) {
	n := c.Size()
	if n == 1 {
		return
	}
	r := c.Rank(t)
	var token [0]byte
	for k, step := 1, 0; k < n; k, step = k<<1, step+1 {
		dst := (r + k) % n
		src := (r - k + n) % n
		sreq := cisend(t, c, "Barrier", token[:], dst, base+step)
		crecv(t, c, "Barrier", token[:], src, base+step)
		cwait(t, "Barrier", sreq, dst, base+step)
	}
}

// Bcast broadcasts buf from root to every task, with a binomial tree.
// Every task must pass a buffer of the same length.
func Bcast[T Scalar](t *Task, c *Comm, buf []T, root int) {
	c, base := collStart(t, c)
	checkRoot(t, c, root, "Bcast")
	if c.shm != nil {
		shmBcast(t, c, buf, root, base)
		return
	}
	if c.tl != nil {
		twoLevelBcast(t, c, buf, root, base)
		return
	}
	chanBcast(t, c, buf, root, base)
}

func chanBcast[T Scalar](t *Task, c *Comm, buf []T, root, base int) {
	n := c.Size()
	if n == 1 {
		return
	}
	r := c.Rank(t)
	vr := (r - root + n) % n // virtual rank: root is 0
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (vr - mask + root) % n
			crecv(t, c, "Bcast", buf, src, base)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			dst := (vr + mask + root) % n
			csend(t, c, "Bcast", buf, dst, base)
		}
		mask >>= 1
	}
}

// Reduce combines sendBuf across tasks with op into recvBuf at root, with
// a binomial tree. recvBuf is only written at root (it may be nil
// elsewhere); it must not alias sendBuf.
func Reduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, root int) {
	c, base := collStart(t, c)
	checkRoot(t, c, root, "Reduce")
	if c.shm != nil {
		shmReduce(t, c, sendBuf, recvBuf, op, root, base)
		return
	}
	if c.tl != nil {
		twoLevelReduce(t, c, sendBuf, recvBuf, op, root, base)
		return
	}
	chanReduce(t, c, sendBuf, recvBuf, op, root, base)
}

func chanReduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op, root, base int) {
	n := c.Size()
	r := c.Rank(t)
	acc := append([]T(nil), sendBuf...)
	if n > 1 {
		vr := (r - root + n) % n
		tmp := make([]T, len(sendBuf))
		mask := 1
		for mask < n {
			if vr&mask != 0 {
				dst := (vr - mask + root) % n
				csend(t, c, "Reduce", acc, dst, base+bits(mask))
				break
			}
			if vr+mask < n {
				src := (vr + mask + root) % n
				crecv(t, c, "Reduce", tmp, src, base+bits(mask))
				apply(t.rank, op, acc, tmp)
			}
			mask <<= 1
		}
	}
	if r == root {
		if len(recvBuf) < len(sendBuf) {
			raise(t.rank, "Reduce", "receive buffer too small: %d < %d", len(recvBuf), len(sendBuf))
		}
		copy(recvBuf, acc)
	}
}

// bits returns the position of the lowest set bit of mask (mask is a power
// of two here), used to give every tree level its own tag step.
func bits(mask int) int {
	s := 0
	for mask > 1 {
		mask >>= 1
		s++
	}
	return s
}

// Allreduce combines sendBuf across all tasks with op into recvBuf on
// every task (reduce-to-0 followed by broadcast).
func Allreduce[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op) {
	if c == nil {
		c = t.world.world
	}
	if len(recvBuf) < len(sendBuf) {
		raise(t.rank, "Allreduce", "receive buffer too small: %d < %d", len(recvBuf), len(sendBuf))
	}
	if c.shm != nil {
		c, base := collStart(t, c)
		shmAllreduce(t, c, sendBuf, recvBuf, op, base)
		return
	}
	if c.tl != nil {
		c, base := collStart(t, c)
		twoLevelAllreduce(t, c, sendBuf, recvBuf, op, base)
		return
	}
	Reduce(t, c, sendBuf, recvBuf, op, 0)
	Bcast(t, c, recvBuf[:len(sendBuf)], 0)
}

// Gather concentrates each task's sendBuf into recvBuf at root, laid out
// by rank: recvBuf[r*len(sendBuf) : (r+1)*len(sendBuf)]. Every task must
// send the same number of elements; use Gatherv otherwise.
func Gather[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, root int) {
	c, base := collStart(t, c)
	n := c.Size()
	checkRoot(t, c, root, "Gather")
	r := c.Rank(t)
	k := len(sendBuf)
	if r != root {
		csend(t, c, "Gather", sendBuf, root, base)
		return
	}
	if len(recvBuf) < n*k {
		raise(t.rank, "Gather", "receive buffer too small: %d < %d", len(recvBuf), n*k)
	}
	copy(recvBuf[r*k:(r+1)*k], sendBuf)
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		crecv(t, c, "Gather", recvBuf[src*k:(src+1)*k], src, base)
	}
}

// Gatherv is Gather with per-rank counts and displacements (in elements).
func Gatherv[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, counts, displs []int, root int) {
	c, base := collStart(t, c)
	n := c.Size()
	checkRoot(t, c, root, "Gatherv")
	r := c.Rank(t)
	if r != root {
		csend(t, c, "Gatherv", sendBuf, root, base)
		return
	}
	if len(counts) != n || len(displs) != n {
		raise(t.rank, "Gatherv", "counts/displs length %d/%d, want %d", len(counts), len(displs), n)
	}
	copy(recvBuf[displs[r]:displs[r]+counts[r]], sendBuf)
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		crecv(t, c, "Gatherv", recvBuf[displs[src]:displs[src]+counts[src]], src, base)
	}
}

// Scatter distributes root's sendBuf (laid out by rank, len(recvBuf)
// elements each) into every task's recvBuf.
func Scatter[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, root int) {
	c, base := collStart(t, c)
	n := c.Size()
	checkRoot(t, c, root, "Scatter")
	r := c.Rank(t)
	k := len(recvBuf)
	if r == root {
		if len(sendBuf) < n*k {
			raise(t.rank, "Scatter", "send buffer too small: %d < %d", len(sendBuf), n*k)
		}
		for dst := 0; dst < n; dst++ {
			if dst == root {
				continue
			}
			csend(t, c, "Scatter", sendBuf[dst*k:(dst+1)*k], dst, base)
		}
		copy(recvBuf, sendBuf[r*k:(r+1)*k])
		return
	}
	crecv(t, c, "Scatter", recvBuf, root, base)
}

// Scatterv is Scatter with per-rank counts and displacements (in
// elements); recvBuf must hold counts[rank] elements.
func Scatterv[T Scalar](t *Task, c *Comm, sendBuf []T, counts, displs []int, recvBuf []T, root int) {
	c, base := collStart(t, c)
	n := c.Size()
	checkRoot(t, c, root, "Scatterv")
	r := c.Rank(t)
	if r == root {
		if len(counts) != n || len(displs) != n {
			raise(t.rank, "Scatterv", "counts/displs length %d/%d, want %d", len(counts), len(displs), n)
		}
		for dst := 0; dst < n; dst++ {
			if dst == root {
				continue
			}
			csend(t, c, "Scatterv", sendBuf[displs[dst]:displs[dst]+counts[dst]], dst, base)
		}
		copy(recvBuf, sendBuf[displs[r]:displs[r]+counts[r]])
		return
	}
	crecv(t, c, "Scatterv", recvBuf, root, base)
}

// Allgather concentrates every task's sendBuf into every task's recvBuf
// (rank-major layout), with a ring algorithm: n-1 steps, each task
// forwarding the block it received in the previous step.
func Allgather[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T) {
	c, base := collStart(t, c)
	n := c.Size()
	k := len(sendBuf)
	if len(recvBuf) < n*k {
		raise(t.rank, "Allgather", "receive buffer too small: %d < %d", len(recvBuf), n*k)
	}
	if c.shm != nil {
		shmAllgather(t, c, sendBuf, recvBuf, base)
		return
	}
	if c.tl != nil {
		twoLevelAllgather(t, c, sendBuf, recvBuf, base)
		return
	}
	chanAllgather(t, c, sendBuf, recvBuf, base)
}

func chanAllgather[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, base int) {
	n := c.Size()
	r := c.Rank(t)
	k := len(sendBuf)
	copy(recvBuf[r*k:(r+1)*k], sendBuf)
	right := (r + 1) % n
	left := (r - 1 + n) % n
	for step := 0; step < n-1; step++ {
		sendBlock := (r - step + n) % n
		recvBlock := (r - step - 1 + n) % n
		sreq := cisend(t, c, "Allgather", recvBuf[sendBlock*k:(sendBlock+1)*k], right, base+step)
		crecv(t, c, "Allgather", recvBuf[recvBlock*k:(recvBlock+1)*k], left, base+step)
		cwait(t, "Allgather", sreq, right, base+step)
	}
}

// Alltoall sends block j of sendBuf to rank j and receives block i of rank
// i into recvBuf (blocks of len(sendBuf)/n elements), with a pairwise
// exchange schedule.
func Alltoall[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T) {
	c, base := collStart(t, c)
	n := c.Size()
	r := c.Rank(t)
	if len(sendBuf)%n != 0 {
		raise(t.rank, "Alltoall", "send buffer length %d not divisible by %d tasks", len(sendBuf), n)
	}
	k := len(sendBuf) / n
	if len(recvBuf) < len(sendBuf) {
		raise(t.rank, "Alltoall", "receive buffer too small: %d < %d", len(recvBuf), len(sendBuf))
	}
	copy(recvBuf[r*k:(r+1)*k], sendBuf[r*k:(r+1)*k])
	for step := 1; step < n; step++ {
		dst := (r + step) % n
		src := (r - step + n) % n
		sreq := cisend(t, c, "Alltoall", sendBuf[dst*k:(dst+1)*k], dst, base+step)
		crecv(t, c, "Alltoall", recvBuf[src*k:(src+1)*k], src, base+step)
		cwait(t, "Alltoall", sreq, dst, base+step)
	}
}

// Scan computes the inclusive prefix reduction: task r receives
// op(sendBuf_0, ..., sendBuf_r) in recvBuf. Linear chain.
func Scan[T Scalar](t *Task, c *Comm, sendBuf, recvBuf []T, op Op) {
	c, base := collStart(t, c)
	n := c.Size()
	r := c.Rank(t)
	if len(recvBuf) < len(sendBuf) {
		raise(t.rank, "Scan", "receive buffer too small: %d < %d", len(recvBuf), len(sendBuf))
	}
	copy(recvBuf, sendBuf)
	if r > 0 {
		tmp := make([]T, len(sendBuf))
		crecv(t, c, "Scan", tmp, r-1, base)
		apply(t.rank, op, recvBuf[:len(sendBuf)], tmp)
	}
	if r < n-1 {
		csend(t, c, "Scan", recvBuf[:len(sendBuf)], r+1, base)
	}
}

func checkRoot(t *Task, c *Comm, root int, op string) {
	if root < 0 || root >= c.Size() {
		raise(t.rank, op, "root %d out of range [0,%d)", root, c.Size())
	}
}
