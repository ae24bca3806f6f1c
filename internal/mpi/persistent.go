package mpi

// Persistent communication requests (MPI_Send_init / MPI_Recv_init /
// MPI_Start): the argument list of a repeated transfer — a halo exchange
// executed every time step — is bound once, then re-armed cheaply.

// Persistent is a reusable communication request.
type Persistent struct {
	start func() *Request
	// label is the watchdog label, boxed once here, and the op of a
	// failure; peer and tag are the bound operands it is published with.
	label     any
	peer, tag int
	active    *Request
	task      *Task
}

// SendInit binds a persistent send of buf to (dst, tag). The buffer
// contents are read at each Start.
func SendInit[T Scalar](t *Task, comm *Comm, buf []T, dst, tag int) *Persistent {
	comm = t.commOrWorld(comm)
	// Validate eagerly, like MPI does at init time.
	if dst < 0 || dst >= comm.Size() {
		raise(t.rank, "SendInit", "destination rank %d out of range [0,%d)", dst, comm.Size())
	}
	if tag < 0 {
		raise(t.rank, "SendInit", "negative tag %d", tag)
	}
	return &Persistent{
		label: "persistent send",
		peer:  dst,
		tag:   tag,
		start: func() *Request { return Isend(t, comm, buf, dst, tag) },
		task:  t,
	}
}

// RecvInit binds a persistent receive into buf from (src, tag).
func RecvInit[T Scalar](t *Task, comm *Comm, buf []T, src, tag int) *Persistent {
	comm = t.commOrWorld(comm)
	if src != AnySource && (src < 0 || src >= comm.Size()) {
		raise(t.rank, "RecvInit", "source rank %d out of range [0,%d)", src, comm.Size())
	}
	return &Persistent{
		label: "persistent recv",
		peer:  src,
		tag:   tag,
		start: func() *Request { return Irecv(t, comm, buf, src, tag) },
		task:  t,
	}
}

// Start arms the request. Starting an already-active request panics
// (matching MPI's error for an active persistent request).
func (p *Persistent) Start() {
	if p.active != nil {
		if _, done := p.active.Test(); !done {
			panic("mpi: Start on an active persistent request")
		}
	}
	p.active = p.start()
}

// Wait blocks until the current operation completes and returns its
// Status. The request stays bound and can be started again.
func (p *Persistent) Wait() Status {
	if p.active == nil {
		panic("mpi: Wait on a never-started persistent request")
	}
	return p.task.awaitKeep(p.active, p.label, p.peer, p.tag, p.label.(string))
}

// Test reports completion of the current operation without blocking.
func (p *Persistent) Test() (Status, bool) {
	if p.active == nil {
		return Status{}, false
	}
	return p.active.Test()
}

// StartAll arms every request.
func StartAll(ps []*Persistent) {
	for _, p := range ps {
		p.Start()
	}
}

// WaitAllPersistent waits for every request and returns the statuses.
func WaitAllPersistent(ps []*Persistent) []Status {
	out := make([]Status, len(ps))
	for i, p := range ps {
		out[i] = p.Wait()
	}
	return out
}
