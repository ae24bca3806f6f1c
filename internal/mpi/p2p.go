package mpi

import (
	"reflect"
	"sync"
	"time"
)

// Scalar is the set of element types the runtime can transfer. It covers
// the MPI basic datatypes relevant to numerical codes.
type Scalar interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// elemSize returns unsafe.Sizeof(T) without importing unsafe.
func elemSize[T any]() int {
	return int(reflect.TypeOf((*T)(nil)).Elem().Size())
}

// Pre-boxed blocking-state labels: the hot paths publish these via
// await, which stores an already-boxed any plus two atomic ints, so
// entering a blocking wait performs no allocation. The full diagnostic
// string ("Recv(src=1, tag=0)") is rendered by endpoint.blockedDesc only
// on the watchdog/timeout path.
var (
	labelRecv         any = "Recv"
	labelProbe        any = "Probe"
	labelSend         any = "Send"
	labelSendrecvRecv any = "Sendrecv recv"
	labelSsendAck     any = "Ssend acknowledgement"
	labelEmpty        any = ""
)

// Send sends buf to rank dst of comm with the given tag. Messages at most
// EagerLimit bytes are buffered and Send returns immediately; larger
// messages use the rendezvous protocol and Send blocks until the receiver
// has matched the message (synchronizing semantics, like MPI_Ssend).
func Send[T Scalar](t *Task, comm *Comm, buf []T, dst, tag int) {
	comm = t.commOrWorld(comm)
	if req := isend(t, comm, comm.ctxUser, buf, dst, tag, "Send"); req != nil {
		t.await(req, labelSend, dst, tag, "Send")
	}
}

// Isend starts a nonblocking send and returns its Request. Eager sends
// complete immediately; rendezvous sends complete when matched.
func Isend[T Scalar](t *Task, comm *Comm, buf []T, dst, tag int) *Request {
	comm = t.commOrWorld(comm)
	req := isend(t, comm, comm.ctxUser, buf, dst, tag, "Isend")
	if req == nil {
		req = newRequest(false)
		req.complete(Status{})
	}
	return req
}

// isend implements Send/Isend on an explicit context. It returns a non-nil
// request only for rendezvous sends (eager sends are already complete).
func isend[T Scalar](t *Task, comm *Comm, ctx int64, buf []T, dst, tag int, op string) *Request {
	return isendDT(t, comm, ctx, buf, nil, dst, tag, op)
}

// isendDT is isend with a derived datatype describing which elements of
// buf to send (nil = all of it, contiguously). Non-strided datatypes are
// normalized to the contiguous datapath here, so they cost nothing
// downstream.
func isendDT[T Scalar](t *Task, comm *Comm, ctx int64, buf []T, dt *Datatype, dst, tag int, op string) *Request {
	w := t.world
	if comm == nil {
		comm = w.world
	}
	if dst < 0 || dst >= comm.Size() {
		raise(t.rank, op, "destination rank %d out of range [0,%d)", dst, comm.Size())
	}
	if ctx == comm.ctxUser && tag < 0 {
		raise(t.rank, op, "negative tag %d", tag)
	}
	myCommRank := comm.rankOf(t.rank)
	if myCommRank < 0 {
		raise(t.rank, op, "task is not a member of the communicator")
	}
	worldDst := comm.group[dst]
	t.checkPeer(op, worldDst)
	esz := elemSize[T]()
	elems := len(buf)
	sdata := bytesOf(buf)
	var sdt *Datatype
	if dt != nil {
		dt.check(t.rank, op, len(buf))
		elems = dt.Size()
		if dt.strided() {
			sdt = dt
		} else {
			sdata = sdata[:elems*esz]
		}
	}
	bytes := elems * esz

	msg := getMessage()
	msg.ctx = ctx
	msg.src = myCommRank
	msg.tag = tag
	msg.elems = elems
	msg.bytes = bytes
	msg.etype = reflect.TypeFor[T]()
	// No payload copy here: sdata views the caller's buffer, which stays
	// live for the duration of this call. inject either copies it straight
	// into a posted receive (single copy) or, unmatched, into a pooled
	// eager buffer — so by the time isend returns, an eager message no
	// longer references the caller's memory.
	msg.sdata = sdata
	msg.sdt = sdt
	msg.sptr = ptrOf(buf)
	if w.cfg.Hooks != nil {
		msg.meta = w.cfg.Hooks.OnSend(t.rank, worldDst)
	}

	var sreq *Request
	if bytes > w.cfg.EagerLimit {
		// Rendezvous: the message keeps viewing the sender's buffer; the
		// sender's request completes at delivery time and Send blocks on it.
		msg.rendezvous = true
		sreq = newRequest(false)
		sreq.idle = w.idle
		msg.sreq = sreq
		w.stats.rendezvous.Add(1)
	}
	if w.traceHooks != nil {
		remote := w.net != nil && !w.net.localRank(worldDst)
		msg.span, msg.sendNs = w.traceHooks.SpanStart(t.rank, worldDst, bytes, msg.rendezvous, remote)
		if sreq != nil {
			sreq.span = msg.span
			sreq.sendNs = msg.sendNs
		}
	}
	if w.net != nil && !w.net.localRank(worldDst) {
		// The destination runs in another process: hand the message to
		// the wire layer (which applies its own fault actions — the block
		// below must not run twice).
		return w.net.isendRemote(t, msg, worldDst, op)
	}
	if msg.sdt != nil && w.cfg.ForcePack {
		// Ablation (Config.ForcePack): route the typed payload through a
		// packed intermediate even on the shared address space, so the
		// halo benchmark can measure exactly what the elision saves.
		msg.payload = w.pool.get(t.rank, bytes)
		dtPack(msg.payload.data, msg.sdata, msg.sdt, esz)
		msg.sdata = msg.payload.data[:bytes]
		msg.sdt = nil
		msg.sptr = nil
	}
	if w.faultHooks != nil {
		act := w.faultHooks.FaultP2P(t.rank, worldDst, bytes, msg.rendezvous)
		if act.Delay > 0 {
			time.Sleep(act.Delay)
			t.checkPeer(op, worldDst) // the peer may have died during the delay
		}
		if act.Drop {
			// The message is lost. A rendezvous sender's handshake is
			// deemed complete (the payload is what was lost), so the
			// stall surfaces at the receiver, where the watchdog can
			// attribute it.
			if sreq != nil {
				sreq.complete(Status{})
			}
			if msg.payload != nil {
				w.pool.release(msg.payload)
			}
			putMessage(msg)
			return sreq
		}
		if act.Duplicate && bytes > 0 {
			dup := getMessage()
			*dup = *msg
			dup.rendezvous = false // only the original completes the send
			dup.sreq = nil
			dup.meta = nil
			// The duplicate can outlive this call (it may sit unexpected
			// after the original was consumed), so it cannot view the
			// caller's buffer: give it a pooled payload now. For an eager
			// original, pin the same buffer under both messages — the
			// refcount holds it until the last copy is consumed.
			dup.payload = w.pool.get(t.rank, bytes)
			if msg.sdt != nil {
				// A typed duplicate packs now: its pooled payload must be
				// dense, and the original's strided view of the caller's
				// buffer cannot be shared beyond this call.
				dtPack(dup.payload.data, msg.sdata, msg.sdt, esz)
				dup.sdt = nil
			} else {
				copy(dup.payload.data, msg.sdata)
			}
			dup.sdata = dup.payload.data[:bytes]
			if !msg.rendezvous {
				dup.payload.refs.Add(1)
				msg.payload = dup.payload
				msg.sdata = dup.sdata
				msg.sdt = nil
			} else {
				dup.sptr = nil
			}
			if !w.inject(dup, t.rank, worldDst) {
				w.pool.release(dup.payload)
				putMessage(dup)
				if msg.payload != nil {
					w.pool.release(msg.payload)
				}
				putMessage(msg)
				panic(&DeadRankError{Rank: t.rank, Op: op, Dead: worldDst})
			}
		}
	}
	if !w.inject(msg, t.rank, worldDst) {
		if msg.payload != nil {
			w.pool.release(msg.payload)
		}
		putMessage(msg)
		panic(&DeadRankError{Rank: t.rank, Op: op, Dead: worldDst})
	}
	return sreq
}

// Recv receives a message from rank src (or AnySource) with the given tag
// (or AnyTag) into buf, blocking until delivery, and returns the Status.
// The buffer must be at least as long as the incoming message.
func Recv[T Scalar](t *Task, comm *Comm, buf []T, src, tag int) Status {
	comm = t.commOrWorld(comm)
	return t.await(irecv(t, comm, comm.ctxUser, buf, src, tag, "Recv"), labelRecv, src, tag, "Recv")
}

// Irecv posts a nonblocking receive and returns its Request.
func Irecv[T Scalar](t *Task, comm *Comm, buf []T, src, tag int) *Request {
	comm = t.commOrWorld(comm)
	return irecv(t, comm, comm.ctxUser, buf, src, tag, "Irecv")
}

func irecv[T Scalar](t *Task, comm *Comm, ctx int64, buf []T, src, tag int, op string) *Request {
	return irecvDT(t, comm, ctx, buf, nil, src, tag, op)
}

// irecvDT is irecv with a derived datatype describing where in buf the
// payload lands (nil = contiguously, filling the buffer from the start).
// Non-strided datatypes are normalized to the contiguous datapath.
func irecvDT[T Scalar](t *Task, comm *Comm, ctx int64, buf []T, dt *Datatype, src, tag int, op string) *Request {
	w := t.world
	if comm == nil {
		comm = w.world
	}
	if src != AnySource && (src < 0 || src >= comm.Size()) {
		raise(t.rank, op, "source rank %d out of range [0,%d)", src, comm.Size())
	}
	if ctx == comm.ctxUser && tag != AnyTag && tag < 0 {
		raise(t.rank, op, "negative tag %d", tag)
	}
	if comm.rankOf(t.rank) < 0 {
		raise(t.rank, op, "task is not a member of the communicator")
	}
	worldSrc := -1
	if src != AnySource {
		worldSrc = comm.group[src]
	}
	relems := len(buf)
	rdata := bytesOf(buf)
	var rdt *Datatype
	if dt != nil {
		dt.check(t.rank, op, len(buf))
		relems = dt.Size()
		if dt.strided() {
			rdt = dt
		} else {
			rdata = rdata[:relems*elemSize[T]()]
		}
	}
	req := newRequest(true)
	req.idle = w.idle
	pr := getPostedRecv()
	pr.ctx = ctx
	pr.src = src
	pr.tag = tag
	pr.etype = reflect.TypeFor[T]()
	pr.rdata = rdata
	pr.relems = relems
	pr.rdt = rdt
	pr.rptr = ptrOf(buf)
	pr.req = req
	pr.recvRank = t.rank
	pr.worldSrc = worldSrc
	if w.traceHooks != nil {
		pr.postNs = w.traceHooks.Now()
	}
	ep := w.eps[t.rank]
	ep.mu.Lock()
	if msg := ep.matchUnexpectedLocked(ctx, src, tag); msg != nil {
		ep.mu.Unlock()
		w.deliverTo(msg, pr)
		return req
	}
	// Under ep.mu the failure flags are ordered against the failure
	// layer's scan of this endpoint: either we observe the failure here
	// and fail the request immediately, or the scan observes our posted
	// receive and fails it.
	if err := w.FailureIn(func(r int) bool { return r == worldSrc }); err != nil {
		ep.mu.Unlock()
		putPostedRecv(pr)
		req.fail(attribute(err, t.rank, op))
		return req
	}
	ep.postSeq++
	pr.seq = ep.postSeq
	if src == AnySource {
		ep.wild.push(pr)
	} else {
		ep.bucket(epKey{ctx, src}).pushRecv(pr)
	}
	ep.mu.Unlock()
	return req
}

// Probe blocks until a message from src (or AnySource) with tag (or
// AnyTag) is available on comm, and returns its Status without receiving
// it.
func Probe(t *Task, comm *Comm, src, tag int) Status {
	st, _ := probe(t, comm, src, tag, true)
	return st
}

// Iprobe reports whether a matching message is available, without
// blocking.
func Iprobe(t *Task, comm *Comm, src, tag int) (Status, bool) {
	return probe(t, comm, src, tag, false)
}

func probe(t *Task, comm *Comm, src, tag int, block bool) (Status, bool) {
	w := t.world
	if comm == nil {
		comm = w.world
	}
	if src != AnySource && (src < 0 || src >= comm.Size()) {
		raise(t.rank, "Probe", "source rank %d out of range [0,%d)", src, comm.Size())
	}
	worldSrc := -1
	if src != AnySource {
		worldSrc = comm.group[src]
	}
	ctx := comm.ctxUser
	ep := w.eps[t.rank]
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		if st, ok := ep.findUnexpectedLocked(ctx, src, tag); ok {
			return st, true
		}
		// The failure layer wakes blocked probes when a rank dies or the
		// world is cancelled, so they re-check here and fail fast instead
		// of waiting for a message that cannot come.
		t.Raise("Probe", w.FailureIn(func(r int) bool { return r == worldSrc }))
		if !block {
			return Status{}, false
		}
		// Park on the narrowest condition that can satisfy this probe: the
		// (ctx, src) bucket's cond for a specific source, the endpoint-wide
		// wildcard cond for AnySource. An arrival broadcasts a bucket cond
		// only when it has waiters, so unrelated traffic no longer wakes
		// every blocked probe on the endpoint.
		t.enter(labelProbe, int64(src), tag)
		if src == AnySource {
			ep.wildWaiters++
			ep.wildCond.Wait()
			ep.wildWaiters--
		} else {
			b := ep.bucket(epKey{ctx, src})
			if b.cond == nil {
				b.cond = sync.NewCond(&ep.mu)
			}
			b.waiters++
			b.cond.Wait()
			b.waiters--
		}
		t.leave()
	}
}

// Sendrecv performs a combined send and receive, safe against the
// exchange deadlocks of two blocking calls.
func Sendrecv[T Scalar](t *Task, comm *Comm, sendBuf []T, dst, sendTag int, recvBuf []T, src, recvTag int) Status {
	rr := Irecv(t, comm, recvBuf, src, recvTag)
	Send(t, comm, sendBuf, dst, sendTag)
	return t.await(rr, labelSendrecvRecv, src, recvTag, "Sendrecv")
}

// await is the runtime's one blocking request wait (its callers are
// listed in the request.go header); it recycles req afterwards. A
// request already done returns at once, with nothing published.
// Otherwise the wait is published for the watchdog — label is a
// pre-boxed static string, peer and tag ride in atomic ints and are
// formatted only if a diagnostic needs them, so publishing allocates
// nothing — and the task parks in Request.Wait, which counts it idle
// for a batched world's flush (see park). A failed request raises op's
// typed error.
func (t *Task) await(req *Request, label any, peer, tag int, op string) Status {
	st := t.awaitKeep(req, label, peer, tag, op)
	putRequest(req)
	return st
}

// awaitKeep is await without the recycling, for a request its caller
// still reads afterwards (Persistent.Test).
func (t *Task) awaitKeep(req *Request, label any, peer, tag int, op string) Status {
	if req.state.Load() != reqDone {
		ep := t.world.eps[t.rank]
		ep.publish(label, int64(peer), tag)
		req.Wait()
		if th := t.world.traceHooks; th != nil && !req.recvSide && label == labelSend {
			// A blocking rendezvous Send's wait effectively began at the
			// send timestamp: isend returns within nanoseconds of
			// stamping it. The end is read here, after the park — under
			// load the scheduler wake-up is a real part of the caller's
			// blocked time, and only this slice can see it (the flow
			// pair ends at delivery).
			th.SpanWait(t.rank, "send", req.span, req.sendNs)
		}
		ep.publish(labelEmpty, blockNone, 0)
	}
	t.checkReq(op, req)
	return req.status
}

// enter publishes what the task is about to block on outside a request
// wait and counts it idle for a batched world's flush (see idleFlush);
// leave counts it busy again and clears the state. Probe's cond wait
// and the Block/Unblock bracket use the pair; request waits go through
// await, where park does the counting.
func (t *Task) enter(label any, peer int64, tag int) {
	t.world.eps[t.rank].publish(label, peer, tag)
	if f := t.world.idle; f != nil {
		f.add(-1)
	}
}

func (t *Task) leave() {
	if f := t.world.idle; f != nil {
		f.add(1)
	}
	t.world.eps[t.rank].publish(labelEmpty, blockNone, 0)
}

// Block opens the task's bracket around a wait outside the runtime's
// request queues (shm collective phases, HLS barriers, RMA epochs). It
// publishes what (pre-boxed on hot paths) for the watchdog and timeout
// diagnostics and wake, the failure wake-up of the object the task is
// about to wait on, and counts the task idle for a batched world's flush
// (see idleFlush). wake gets the dead world rank, or -1 on cancel, after
// the failure is recorded, and must not block; bind it once per object,
// as a method value bound per call allocates. After Block the caller
// checks World.FailureIn for the object's members before it waits
// (World.wake says why no failure is missed). Unblock closes the
// bracket; close it before raising, so the task is not counted idle
// twice. A single body run inside a bracket counts as idle too.
func (t *Task) Block(what any, wake func(rank int)) {
	t.world.eps[t.rank].waker.Store(wake)
	t.enter(what, blockNone, 0)
}

// Unblock closes the bracket Block opened and counts the task busy again.
func (t *Task) Unblock() {
	t.leave()
	t.world.eps[t.rank].waker.Store((func(int))(nil))
}

// commOrWorld substitutes the world communicator for a nil comm argument.
func (t *Task) commOrWorld(c *Comm) *Comm {
	if c == nil {
		return t.world.world
	}
	return c
}
