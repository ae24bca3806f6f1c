package mpi

// Typed point-to-point operations: the Send/Recv family taking a derived
// Datatype that selects which elements of the buffer travel (send side)
// or where the payload lands (receive side). A nil datatype means the
// whole buffer, contiguously — SendTyped(t, c, buf, nil, dst, tag) is
// exactly Send. Matching, tags, wildcards, protocols and error semantics
// are identical to the contiguous operations; Status.Count reports the
// packed element count.

// SendTyped sends the elements dt selects in buf to rank dst of comm.
// Blocking semantics follow Send: eager payloads (by packed size) return
// immediately, rendezvous sends block until the receiver matches.
func SendTyped[T Scalar](t *Task, comm *Comm, buf []T, dt *Datatype, dst, tag int) {
	comm = t.commOrWorld(comm)
	if req := isendDT(t, comm, comm.ctxUser, buf, dt, dst, tag, "SendTyped"); req != nil {
		t.await(req, labelSend, dst, tag, "SendTyped")
	}
}

// IsendTyped starts a nonblocking typed send and returns its Request.
func IsendTyped[T Scalar](t *Task, comm *Comm, buf []T, dt *Datatype, dst, tag int) *Request {
	comm = t.commOrWorld(comm)
	req := isendDT(t, comm, comm.ctxUser, buf, dt, dst, tag, "IsendTyped")
	if req == nil {
		req = newRequest(false)
		req.complete(Status{})
	}
	return req
}

// RecvTyped receives a message from rank src (or AnySource) with the
// given tag (or AnyTag), scattering the payload into the elements dt
// selects in buf, and returns the Status.
func RecvTyped[T Scalar](t *Task, comm *Comm, buf []T, dt *Datatype, src, tag int) Status {
	comm = t.commOrWorld(comm)
	return t.await(irecvDT(t, comm, comm.ctxUser, buf, dt, src, tag, "RecvTyped"), labelRecv, src, tag, "RecvTyped")
}

// IrecvTyped posts a nonblocking typed receive and returns its Request.
func IrecvTyped[T Scalar](t *Task, comm *Comm, buf []T, dt *Datatype, src, tag int) *Request {
	comm = t.commOrWorld(comm)
	return irecvDT(t, comm, comm.ctxUser, buf, dt, src, tag, "IrecvTyped")
}

// SendrecvTyped performs a combined typed send and typed receive, safe
// against the exchange deadlocks of two blocking calls — the halo-
// exchange primitive.
func SendrecvTyped[T Scalar](t *Task, comm *Comm, sendBuf []T, sdt *Datatype, dst, sendTag int, recvBuf []T, rdt *Datatype, src, recvTag int) Status {
	rr := IrecvTyped(t, comm, recvBuf, rdt, src, recvTag)
	SendTyped(t, comm, sendBuf, sdt, dst, sendTag)
	return t.await(rr, labelSendrecvRecv, src, recvTag, "SendrecvTyped")
}
