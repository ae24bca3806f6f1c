package mpi

import (
	"sync"
	"sync/atomic"
)

// Nonblocking-operation requests. A Request used to carry its own
// done-channel, which meant one channel allocation per operation and
// forced Waitany through reflect.Select. The zero-allocation datapath
// replaces both: completion is a three-state atomic (pending → claimed →
// done; a batched wire world adds parked, see park) and waiters park on a
// pooled, reusable notification channel they register on the request.
//
// Every blocking call of the runtime waits in one place, Task.await:
// Send, Recv, Sendrecv and their typed variants, the collective hops
// (csend, crecv and the cisend waits), Ssend and Persistent.Wait. await
// publishes the watchdog label, parks through Request.Wait (and so
// through park, the one site that counts a request waiter idle), checks
// the outcome and recycles the request through a sync.Pool. Requests
// returned to the user by Isend/Irecv are left to the garbage
// collector, since the runtime cannot know when the caller is done with
// them; so is a Persistent's current request, which Test still reads.

const (
	reqPending = 0 // operation in flight
	reqClaimed = 1 // a completer is writing status/err
	reqDone    = 2 // status/err published
	reqParked  = 3 // in flight, and its waiter is counted blocked (see park)
)

// Request is the handle of a nonblocking operation. A Request may be
// waited on by one goroutine at a time.
type Request struct {
	status Status
	err    error // non-nil when the operation failed (dead peer, cancel)
	// recvSide is true for receive requests (their Wait returns a Status
	// with meaning).
	recvSide bool
	// span is the trace span id of the message behind a rendezvous send
	// request (zero when tracing is off), so the blocking wrapper can
	// attribute its wait to the right flow. sendNs is the span's send
	// timestamp, reused as the wait's begin so the wrapper saves a clock
	// read per blocking send.
	span   uint64
	sendNs int64

	state atomic.Uint32
	// waiter is the notification box of the goroutine blocked on this
	// request, nil when nobody waits. Completion sends one token into it.
	waiter atomic.Pointer[notifyBox]
	// idle is the busy count of a batched wire world (nil elsewhere),
	// set before the request is published.
	idle *idleFlush
}

// notifyBox is a reusable single-token notification channel. Boxes are
// pooled: a waiter borrows one, registers it on the request(s) it waits
// for, and returns it drained. Completers send nonblocking, so a box can
// at worst receive one spurious token from a previous registration —
// waiters tolerate that by re-checking request states after every wake.
type notifyBox struct {
	ch chan struct{}
}

var notifyPool = sync.Pool{New: func() any { return &notifyBox{ch: make(chan struct{}, 1)} }}

func getNotifier() *notifyBox { return notifyPool.Get().(*notifyBox) }

func putNotifier(nb *notifyBox) {
	select { // drain a possible straggler token
	case <-nb.ch:
	default:
	}
	notifyPool.Put(nb)
}

var requestPool = sync.Pool{New: func() any { return new(Request) }}

func newRequest(recvSide bool) *Request {
	r := requestPool.Get().(*Request)
	r.status = Status{}
	r.err = nil
	r.recvSide = recvSide
	r.span = 0
	r.sendNs = 0
	r.idle = nil
	r.waiter.Store(nil)
	r.state.Store(reqPending)
	return r
}

// putRequest recycles a request that no other goroutine can still
// reference: one created and fully consumed inside a blocking wrapper.
// (The failure layer only reaches requests through the endpoint queues,
// and a request is unlinked from those, under the endpoint lock, before
// it completes — so a request whose Wait returned is unreachable.)
func putRequest(r *Request) {
	r.err = nil
	r.waiter.Store(nil)
	requestPool.Put(r)
}

// finish publishes the outcome exactly once; the loser of a
// complete-vs-fail race (a message arriving just as its sender is
// declared dead) does nothing.
func (r *Request) finish(st Status, err error) {
	if !r.state.CompareAndSwap(reqPending, reqClaimed) && (r.idle == nil || !r.claimParked()) {
		return
	}
	r.status = st
	r.err = err
	r.state.Store(reqDone)
	if nb := r.waiter.Load(); nb != nil {
		select {
		case nb.ch <- struct{}{}:
		default:
		}
	}
}

// claimParked is finish's claim in a batched wire world, where the
// waiter flips the state between pending and parked around each park:
// it retries until the claim is ours or another completer's. Claiming a
// parked request wakes its waiter, so it is counted busy now, before it
// runs, and the idle flush waits for it to block again (a burst of
// deliveries wakes a burst of tasks at once).
func (r *Request) claimParked() bool {
	for {
		switch r.state.Load() {
		case reqPending:
			if r.state.CompareAndSwap(reqPending, reqClaimed) {
				return true
			}
		case reqParked:
			if r.state.CompareAndSwap(reqParked, reqClaimed) {
				r.idle.add(1)
				return true
			}
		default:
			return false
		}
	}
}

func (r *Request) complete(st Status) { r.finish(st, nil) }

// fail completes the request with a typed error instead of a status.
func (r *Request) fail(err error) { r.finish(Status{}, err) }

// Wait blocks until the operation completes and returns its Status (zero
// for send requests). When the operation failed — its peer rank died, or
// the world was cancelled — the Status is zero and Err reports the typed
// failure; the blocking wrappers (Recv, Send, collectives) check it and
// raise, so only explicit Irecv/Isend users need to consult Err.
func (r *Request) Wait() Status {
	if r.state.Load() == reqDone {
		return r.status
	}
	nb := getNotifier()
	r.waiter.Store(nb)
	for r.state.Load() != reqDone {
		park(nb, []*Request{r})
	}
	r.waiter.Store(nil)
	putNotifier(nb)
	return r.status
}

// Err returns the typed failure of a completed request: a *DeadRankError
// when the peer died, a *CancelledError when the world was cancelled, nil
// on success. Only valid after Wait or a true Test.
func (r *Request) Err() error {
	if r.state.Load() == reqDone {
		return r.err
	}
	return nil
}

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() (Status, bool) {
	if r.state.Load() == reqDone {
		return r.status, true
	}
	return Status{}, false
}

// Waitall waits for every request in the slice and returns their
// statuses. All pending requests share one notification channel and a
// completion count, so the wait costs one park per wake-up burst rather
// than one channel per request.
func Waitall(reqs []*Request) []Status {
	out := make([]Status, len(reqs))
	waitallInto(reqs, out)
	return out
}

func waitallInto(reqs []*Request, out []Status) {
	var nb *notifyBox
	for {
		done := 0
		for _, r := range reqs {
			// Register the notifier before loading the state (the same
			// order Wait uses): a completion concurrent with this scan
			// either publishes reqDone before our load, or observes the
			// registered notifier and sends a token. Checking state first
			// would open a window where the completer sees a nil waiter
			// and the waiter then parks forever.
			if nb != nil {
				r.waiter.Store(nb)
			}
			if r.state.Load() == reqDone {
				done++
			}
		}
		if done == len(reqs) {
			break
		}
		if nb == nil {
			// First pass found pending requests: arm the shared notifier
			// and re-scan.
			nb = getNotifier()
			continue
		}
		park(nb, reqs)
	}
	for i, r := range reqs {
		out[i] = r.status
		if nb != nil {
			r.waiter.Store(nil)
		}
	}
	if nb != nil {
		putNotifier(nb)
	}
}

// Waitany blocks until at least one request completes and returns its
// index and status. Completed requests keep reporting done; callers
// typically remove the returned index before waiting again.
func Waitany(reqs []*Request) (int, Status) {
	if len(reqs) == 0 {
		panic("mpi: Waitany on an empty request list")
	}
	var nb *notifyBox
	for {
		for i, r := range reqs {
			// Notifier before state load, as in waitallInto: a completer
			// racing with this scan must either be observed done or find
			// the notifier registered.
			if nb != nil {
				r.waiter.Store(nb)
			}
			if r.state.Load() == reqDone {
				if nb != nil {
					for _, q := range reqs {
						q.waiter.Store(nil)
					}
					putNotifier(nb)
				}
				return i, r.status
			}
		}
		if nb == nil {
			nb = getNotifier()
			continue
		}
		park(nb, reqs)
	}
}

// park blocks on nb, registered on reqs, until a token arrives. In a
// batched wire world it first marks every pending request parked and
// counts the task blocked; each completer that claims a parked request
// counts it woken. On return the marks are cleared and the count is
// corrected to exactly one for the running task: a stale token (no
// claim) adds the one back, several claims in one wake give the extras
// back.
func park(nb *notifyBox, reqs []*Request) {
	var f *idleFlush
	marked := 0
	for _, r := range reqs {
		if r.idle != nil && r.state.CompareAndSwap(reqPending, reqParked) {
			f = r.idle
			marked++
		}
	}
	if f == nil {
		<-nb.ch
		return
	}
	f.add(-1)
	<-nb.ch
	claimed := marked
	for _, r := range reqs {
		if r.state.CompareAndSwap(reqParked, reqPending) {
			claimed--
		}
	}
	if claimed != 1 {
		f.add(int32(1 - claimed))
	}
}
