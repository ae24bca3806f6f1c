package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"hls/internal/wire"
)

// Status describes a completed receive.
type Status struct {
	// Source is the rank of the sender within the receive's communicator.
	Source int
	// Tag is the message tag.
	Tag int
	// Count is the number of elements received.
	Count int
	// Bytes is the payload size in bytes.
	Bytes int
}

// message is an in-flight point-to-point message. Messages are pooled;
// every field is reset when the message is recycled. The payload is not
// a typed slice but a byte view plus an element-type token, so the
// delivery path needs no per-send closure (the former deliver-func
// captured the typed buffer and allocated on every send).
type message struct {
	ctx   int64 // communication context (per communicator, user vs collective)
	src   int   // sender rank within the communicator
	tag   int
	elems int
	bytes int
	seq   uint64 // arrival order within the endpoint, set at enqueue

	// etype is the element type of the sender's buffer, compared against
	// the receiver's on delivery (MPI datatype matching).
	etype reflect.Type

	// sdata is the payload as bytes: a view of the pooled eager buffer
	// once the message is queued unexpected, or of the sender's own
	// buffer while the send call is still on the stack (posted-match
	// delivery, rendezvous).
	sdata []byte
	// sdt, when non-nil, is the strided layout sdata is viewed through
	// (a derived datatype): elems/bytes count the selected elements, and
	// the delivery path runs the strided kernels. Cleared whenever the
	// payload is packed into an intermediate buffer, so sdt != nil
	// always means "sdata is the sender's raw strided buffer".
	sdt *Datatype
	// sptr identifies the sender's buffer for same-address copy elision.
	sptr unsafe.Pointer
	// payload is the pooled eager buffer backing sdata (nil while sdata
	// still views the sender's buffer, and always nil for rendezvous).
	payload *eagerBuf

	// rendezvous marks a synchronizing send: sreq completes only at
	// delivery, and the sender's blocking Send waits for it.
	rendezvous bool
	sreq       *Request

	// kindOnly relaxes datatype matching to reflect.Kind equality: set on
	// messages that crossed the wire, where the concrete Go type cannot
	// travel and only its kind is encoded in the frame header.
	kindOnly bool

	// wireXid, when non-zero, marks a remote rendezvous RTS: the payload
	// has not arrived yet, and matching this message means answering CTS
	// to node wireNode (sender's world rank wireSrc) instead of copying.
	wireXid  uint64
	wireNode int
	wireSrc  int

	meta any // hooks.OnSend payload

	// span / sendNs carry the tracing context (TraceHooks.SpanStart)
	// from send to delivery; zero when tracing is off. For messages that
	// crossed the wire they are recovered from the frame extension.
	span   uint64
	sendNs int64
}

var messagePool = sync.Pool{New: func() any { return new(message) }}

func getMessage() *message { return messagePool.Get().(*message) }

func putMessage(m *message) {
	*m = message{}
	messagePool.Put(m)
}

// postedRecv is a receive waiting for a matching message. Pooled, like
// message, and described in bytes for the same reason.
type postedRecv struct {
	ctx      int64
	src, tag int
	seq      uint64 // post order within the endpoint

	etype  reflect.Type
	rdata  []byte // receiver's buffer as bytes
	relems int
	rptr   unsafe.Pointer
	// rdt, when non-nil, is the strided layout the payload is scattered
	// into on delivery; relems is then the layout's element count.
	rdt *Datatype

	req      *Request
	recvRank int // world rank of the receiver
	worldSrc int // world rank of the expected source (-1 for AnySource),
	// so the failure layer can fail receives from a dead rank without
	// communicator lookups.

	// postNs is when the receive was posted on the tracer's clock (zero
	// when tracing is off): delivery minus post is the receiver's wait.
	postNs int64
}

var postedRecvPool = sync.Pool{New: func() any { return new(postedRecv) }}

func getPostedRecv() *postedRecv { return postedRecvPool.Get().(*postedRecv) }

func putPostedRecv(pr *postedRecv) {
	*pr = postedRecv{}
	postedRecvPool.Put(pr)
}

// bytesOf reinterprets a Scalar slice as its underlying bytes. Scalar
// types carry no pointers, so the view is GC-safe; the view shares the
// slice's backing array and keeps it alive.
func bytesOf[T Scalar](buf []T) []byte {
	if len(buf) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(buf)*int(unsafe.Sizeof(buf[0])))
}

// ptrOf returns the identity of a slice's backing array (nil when empty).
func ptrOf[T Scalar](buf []T) unsafe.Pointer {
	if len(buf) == 0 {
		return nil
	}
	return unsafe.Pointer(&buf[0])
}

// epKey addresses one matching bucket: all traffic of one (communication
// context, source rank) pair.
type epKey struct {
	ctx int64
	src int
}

// epBucket holds the posted receives and unexpected messages of one
// (ctx, src) pair, each a FIFO implemented as a slice with a head index
// whose backing array is reused once drained. cond is created lazily for
// probes blocked on this bucket, so an unexpected arrival wakes only the
// waiters that could match it (plus wildcard waiters) instead of
// broadcasting to every blocked probe on the endpoint.
type epBucket struct {
	recvs []*postedRecv
	rhead int
	msgs  []*message
	mhead int

	cond    *sync.Cond
	waiters int
}

func (b *epBucket) pushRecv(pr *postedRecv) {
	if b.rhead == len(b.recvs) {
		b.recvs = b.recvs[:0]
		b.rhead = 0
	}
	b.recvs = append(b.recvs, pr)
}

func (b *epBucket) pushMsg(m *message) {
	if b.mhead == len(b.msgs) {
		b.msgs = b.msgs[:0]
		b.mhead = 0
	}
	b.msgs = append(b.msgs, m)
}

// takeRecv removes and returns the posted receive at index i.
func (b *epBucket) takeRecv(i int) *postedRecv {
	pr := b.recvs[i]
	if i == b.rhead {
		b.recvs[i] = nil
		b.rhead++
	} else {
		copy(b.recvs[i:], b.recvs[i+1:])
		b.recvs[len(b.recvs)-1] = nil
		b.recvs = b.recvs[:len(b.recvs)-1]
	}
	return pr
}

// takeMsg removes and returns the unexpected message at index i.
func (b *epBucket) takeMsg(i int) *message {
	m := b.msgs[i]
	if i == b.mhead {
		b.msgs[i] = nil
		b.mhead++
	} else {
		copy(b.msgs[i:], b.msgs[i+1:])
		b.msgs[len(b.msgs)-1] = nil
		b.msgs = b.msgs[:len(b.msgs)-1]
	}
	return m
}

// prQueue is the wildcard (AnySource) posted-receive FIFO.
type prQueue struct {
	items []*postedRecv
	head  int
}

func (q *prQueue) push(pr *postedRecv) {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, pr)
}

func (q *prQueue) take(i int) *postedRecv {
	pr := q.items[i]
	if i == q.head {
		q.items[i] = nil
		q.head++
	} else {
		copy(q.items[i:], q.items[i+1:])
		q.items[len(q.items)-1] = nil
		q.items = q.items[:len(q.items)-1]
	}
	return pr
}

// endpoint is the per-rank message engine. Matching state is bucketed by
// (communication context, source): an incoming message consults exactly
// one bucket plus the wildcard queue, so the common exact-match case is
// O(1) instead of a linear scan of every pending operation on the rank.
type endpoint struct {
	rank int

	mu      sync.Mutex
	buckets map[epKey]*epBucket
	wild    prQueue // posted receives with src == AnySource, any context

	postSeq uint64 // posted-receive sequence, orders bucket vs wildcard
	arrSeq  uint64 // unexpected-arrival sequence, orders AnySource matches

	// wildCond wakes AnySource probes (and, on failure/cancel, every
	// probe; the failure paths broadcast the per-bucket conds too).
	wildCond    *sync.Cond
	wildWaiters int

	// blocked-state publication for the deadlock watchdog and timeout
	// diagnostics. blockLabel holds a pre-boxed static string (hot paths
	// never format); blockPeer/blockTag carry the p2p operands, rendered
	// off the critical path. blockPeer == blockNone means no operands.
	blockLabel atomic.Value
	blockPeer  atomic.Int64
	blockTag   atomic.Int64

	// waker holds the func(rank int) a task in a Block bracket published
	// for the failure path (World.wake); empty or nil outside a bracket.
	waker atomic.Value

	// progress counts blocking-state transitions; the deadlock watchdog
	// samples the world-wide sum to distinguish a stall from slow
	// progress.
	progress atomic.Int64

	// wireHdr is the frame header of this rank's remote sends, reused:
	// only the rank's own task goroutine writes it, and Transport.Send
	// copies it, so a send lets no header escape to the heap.
	wireHdr wire.Header

	// statistics, updated under mu
	unexpectedBytes     int
	peakUnexpectedBytes int
	recvCount           int64
	matchProbes         int64
}

const blockNone = int64(-1 << 62)

func newEndpoint(rank int) *endpoint {
	ep := &endpoint{rank: rank, buckets: make(map[epKey]*epBucket)}
	ep.wildCond = sync.NewCond(&ep.mu)
	ep.blockLabel.Store("")
	ep.blockPeer.Store(blockNone)
	return ep
}

// publish stores the blocking state blockedDesc renders and bumps the
// progress count. Only the endpoint's own task calls it, from await and
// the enter/leave pair; labelEmpty with blockNone clears the state.
func (ep *endpoint) publish(label any, peer int64, tag int) {
	ep.progress.Add(1)
	ep.blockPeer.Store(peer)
	ep.blockTag.Store(int64(tag))
	ep.blockLabel.Store(label)
}

// blockedDesc renders the endpoint's published blocking state. Runs only
// on diagnostic paths (watchdog, timeout).
func (ep *endpoint) blockedDesc() string {
	label, _ := ep.blockLabel.Load().(string)
	if label == "" {
		return ""
	}
	peer := ep.blockPeer.Load()
	if peer == blockNone {
		return label
	}
	tag := ep.blockTag.Load()
	switch {
	case label == "Send":
		return fmt.Sprintf("Send(dst=%d, tag=%d) rendezvous", peer, tag)
	case strings.HasSuffix(label, " send"):
		return fmt.Sprintf("%s(dst=%d, tag=%d)", label, peer, tag)
	default:
		return fmt.Sprintf("%s(src=%d, tag=%d)", label, peer, tag)
	}
}

// bucket returns (creating on first use) the bucket for key.
func (ep *endpoint) bucket(key epKey) *epBucket {
	b := ep.buckets[key]
	if b == nil {
		b = &epBucket{}
		ep.buckets[key] = b
	}
	return b
}

// matchRecvLocked finds, removes and returns the earliest-posted receive
// matching an incoming (ctx, src, tag) message, merging the (ctx, src)
// bucket with the wildcard queue by post sequence — the MPI rule that a
// message matches the first receive, in post order, whose source and tag
// patterns accept it. Returns nil if no posted receive matches. Caller
// holds ep.mu.
func (ep *endpoint) matchRecvLocked(ctx int64, src, tag int) *postedRecv {
	probes := 0
	b := ep.buckets[epKey{ctx, src}]
	bIdx := -1
	if b != nil {
		for i := b.rhead; i < len(b.recvs); i++ {
			probes++
			pr := b.recvs[i]
			if pr.tag == AnyTag || pr.tag == tag {
				bIdx = i
				break
			}
		}
	}
	wIdx := -1
	for i := ep.wild.head; i < len(ep.wild.items); i++ {
		// Count every entry the scan examines, including wildcard
		// receives of other contexts: MatchProbes measures work done by
		// the matcher, not just candidates that passed the ctx filter.
		probes++
		pr := ep.wild.items[i]
		if pr.ctx != ctx {
			continue
		}
		if pr.tag == AnyTag || pr.tag == tag {
			wIdx = i
			break
		}
	}
	ep.matchProbes += int64(probes)
	switch {
	case bIdx < 0 && wIdx < 0:
		return nil
	case wIdx < 0 || (bIdx >= 0 && b.recvs[bIdx].seq < ep.wild.items[wIdx].seq):
		ep.recvCount++
		return b.takeRecv(bIdx)
	default:
		ep.recvCount++
		return ep.wild.take(wIdx)
	}
}

// matchUnexpectedLocked finds, removes and returns the earliest-arrived
// unexpected message matching a newly posted receive: the (ctx, src)
// bucket for a specific source, or the minimum arrival sequence across
// the context's buckets for AnySource. Caller holds ep.mu.
func (ep *endpoint) matchUnexpectedLocked(ctx int64, src, tag int) *message {
	probes := 0
	defer func() { ep.matchProbes += int64(probes) }()
	if src != AnySource {
		b := ep.buckets[epKey{ctx, src}]
		if b == nil {
			return nil
		}
		for i := b.mhead; i < len(b.msgs); i++ {
			probes++
			m := b.msgs[i]
			if tag == AnyTag || tag == m.tag {
				ep.dequeuedUnexpected(m)
				return b.takeMsg(i)
			}
		}
		return nil
	}
	// AnySource: the earliest matching arrival across every bucket of
	// this context. Buckets exist only for (ctx, src) pairs that have
	// seen traffic, so the scan is over active sources, not world size.
	var bestB *epBucket
	bestI := -1
	var bestSeq uint64
	for key, b := range ep.buckets {
		if key.ctx != ctx {
			continue
		}
		for i := b.mhead; i < len(b.msgs); i++ {
			probes++
			m := b.msgs[i]
			if tag == AnyTag || tag == m.tag {
				if bestI < 0 || m.seq < bestSeq {
					bestB, bestI, bestSeq = b, i, m.seq
				}
				break // later entries of this bucket arrived later
			}
		}
	}
	if bestI < 0 {
		return nil
	}
	m := bestB.msgs[bestI]
	ep.dequeuedUnexpected(m)
	return bestB.takeMsg(bestI)
}

// findUnexpectedLocked is matchUnexpectedLocked without removal: the
// Probe path, returning the Status of the earliest matching unexpected
// message. Caller holds ep.mu.
func (ep *endpoint) findUnexpectedLocked(ctx int64, src, tag int) (Status, bool) {
	probes := 0
	defer func() { ep.matchProbes += int64(probes) }()
	status := func(m *message) Status {
		return Status{Source: m.src, Tag: m.tag, Count: m.elems, Bytes: m.bytes}
	}
	if src != AnySource {
		b := ep.buckets[epKey{ctx, src}]
		if b == nil {
			return Status{}, false
		}
		for i := b.mhead; i < len(b.msgs); i++ {
			probes++
			m := b.msgs[i]
			if tag == AnyTag || tag == m.tag {
				return status(m), true
			}
		}
		return Status{}, false
	}
	var best *message
	for key, b := range ep.buckets {
		if key.ctx != ctx {
			continue
		}
		for i := b.mhead; i < len(b.msgs); i++ {
			probes++
			m := b.msgs[i]
			if tag == AnyTag || tag == m.tag {
				if best == nil || m.seq < best.seq {
					best = m
				}
				break
			}
		}
	}
	if best == nil {
		return Status{}, false
	}
	return status(best), true
}

// eachUnexpectedLocked visits every queued unexpected message — the
// failure layer's scan for parked rendezvous senders. Caller holds ep.mu.
func (ep *endpoint) eachUnexpectedLocked(f func(*message)) {
	for _, b := range ep.buckets {
		for i := b.mhead; i < len(b.msgs); i++ {
			f(b.msgs[i])
		}
	}
}

// failRecvsLocked removes and fails every posted receive for which sel
// returns a non-nil error, across all buckets and the wildcard queue.
// Caller holds ep.mu.
func (ep *endpoint) failRecvsLocked(sel func(*postedRecv) error) {
	for _, b := range ep.buckets {
		kept := b.recvs[:0]
		for i := b.rhead; i < len(b.recvs); i++ {
			pr := b.recvs[i]
			if err := sel(pr); err != nil {
				pr.req.fail(err)
				putPostedRecv(pr)
			} else {
				kept = append(kept, pr)
			}
		}
		b.recvs = kept
		b.rhead = 0
	}
	kept := ep.wild.items[:0]
	for i := ep.wild.head; i < len(ep.wild.items); i++ {
		pr := ep.wild.items[i]
		if err := sel(pr); err != nil {
			pr.req.fail(err)
			putPostedRecv(pr)
		} else {
			kept = append(kept, pr)
		}
	}
	ep.wild.items = kept
	ep.wild.head = 0
}

// enqueueUnexpected queues msg (whose payload must already be stable —
// pooled or rendezvous-pinned) and wakes matching probes. Caller holds
// ep.mu; the bucket is passed in from the failed match.
func (ep *endpoint) enqueueUnexpected(b *epBucket, msg *message) {
	ep.arrSeq++
	msg.seq = ep.arrSeq
	b.pushMsg(msg)
	ep.unexpectedBytes += msg.bytes
	if ep.unexpectedBytes > ep.peakUnexpectedBytes {
		ep.peakUnexpectedBytes = ep.unexpectedBytes
	}
	if b.waiters > 0 {
		b.cond.Broadcast()
	}
	if ep.wildWaiters > 0 {
		ep.wildCond.Broadcast()
	}
}

func (ep *endpoint) dequeuedUnexpected(m *message) {
	ep.unexpectedBytes -= m.bytes
	ep.recvCount++
}

// wakeAllLocked wakes every blocked probe — the failure layer's path, so
// they re-check the dead/cancelled flags. Caller holds ep.mu.
func (ep *endpoint) wakeAllLocked() {
	ep.wildCond.Broadcast()
	for _, b := range ep.buckets {
		if b.waiters > 0 {
			b.cond.Broadcast()
		}
	}
}

type worldStats struct {
	messages            atomic.Int64
	bytes               atomic.Int64
	rendezvous          atomic.Int64
	sameAddrSkips       atomic.Int64
	directDeliveries    atomic.Int64
	packElisions        atomic.Int64
	collectives         atomic.Int64
	sharedCollectives   atomic.Int64
	twoLevelCollectives atomic.Int64
}

// Stats is a snapshot of runtime communication statistics. The world's
// counters are the runtime's only store of these counts: internal/metrics
// exports them by reading Stats, not through hooks.
type Stats struct {
	Messages      int64 // point-to-point messages delivered
	Bytes         int64 // payload bytes carried
	Rendezvous    int64 // messages that used the rendezvous protocol
	SameAddrSkips int64 // deliveries elided because src and dst buffers were identical
	Collectives   int64 // collective operations started (per task)

	// DirectDeliveries counts eager messages that found their receive
	// already posted and were copied sender-buffer → receiver-buffer in
	// one step, skipping the intermediate pooled payload entirely.
	DirectDeliveries int64

	// PackElisions counts typed (derived-datatype) transfers delivered
	// strided-to-strided between the task buffers, with no intermediate
	// packed copy — the shared-address-space pack-elision fast path.
	PackElisions int64

	// SharedCollectives counts collectives completed (per task) on the
	// shared-address-space fast path, i.e. without point-to-point
	// messages. Zero when the world runs with CollChannels, or with hooks
	// under CollAuto. In a two-level world the node-local phases run on
	// the fast path, so this also counts once per phase per task.
	SharedCollectives int64

	// TwoLevelCollectives counts collectives completed (per task) via the
	// two-level node-leader decomposition of a distributed world. Zero
	// for single-process worlds and under CollChannels.
	TwoLevelCollectives int64

	// PeakUnexpectedBytes is the maximum, over ranks, of bytes buffered in
	// an unexpected-message queue at any time: the runtime's eager-buffer
	// watermark, used by the memory models. It counts message payload
	// bytes, not the (power-of-two-rounded) pooled capacity behind them.
	PeakUnexpectedBytes int

	// MatchProbes is the total number of queue entries examined by the
	// matching engine, across message injections and receive postings.
	// With bucketed matching it stays close to the message count (one
	// probe per exact match); the linear scans it replaced grew with the
	// number of pending operations.
	MatchProbes int64

	// EagerPoolHits / EagerPoolMisses / EagerPoolRecycledBytes /
	// EagerPoolOutstanding describe the eager-payload pool: acquisitions
	// served from the pool, acquisitions that allocated, bytes of
	// capacity returned for reuse, and buffers currently pinned by
	// in-flight messages (zero once every message has been consumed).
	EagerPoolHits          int64
	EagerPoolMisses        int64
	EagerPoolRecycledBytes int64
	EagerPoolOutstanding   int64
}

// Stats returns a snapshot of the world's communication statistics.
func (w *World) Stats() Stats {
	s := Stats{
		Messages:         w.stats.messages.Load(),
		Bytes:            w.stats.bytes.Load(),
		Rendezvous:       w.stats.rendezvous.Load(),
		SameAddrSkips:    w.stats.sameAddrSkips.Load(),
		DirectDeliveries: w.stats.directDeliveries.Load(),
		PackElisions:     w.stats.packElisions.Load(),
		Collectives:      w.stats.collectives.Load(),

		SharedCollectives:   w.stats.sharedCollectives.Load(),
		TwoLevelCollectives: w.stats.twoLevelCollectives.Load(),

		EagerPoolHits:          w.pool.hits.Load(),
		EagerPoolMisses:        w.pool.misses.Load(),
		EagerPoolRecycledBytes: w.pool.recycled.Load(),
		EagerPoolOutstanding:   w.pool.outstanding(),
	}
	for _, ep := range w.eps {
		ep.mu.Lock()
		if ep.peakUnexpectedBytes > s.PeakUnexpectedBytes {
			s.PeakUnexpectedBytes = ep.peakUnexpectedBytes
		}
		s.MatchProbes += ep.matchProbes
		ep.mu.Unlock()
	}
	return s
}

// inject delivers msg to the endpoint of world rank dstWorld: either it
// matches an already-posted receive — then the payload moves straight
// from the sender's buffer into the receiver's, the single-copy fast
// path — or it is copied once into a pooled eager buffer and queued as
// unexpected (rendezvous messages queue without a payload; the sender's
// buffer is pinned until delivery). It reports false — without
// delivering — when the destination rank is dead, so the sender can fail
// fast; the check is made under ep.mu, which orders it against the
// failure layer's scan of the same endpoint.
//
// inject must run on the sending task's goroutine, while msg.sdata still
// views the sender's live buffer.
func (w *World) inject(msg *message, srcWorld, dstWorld int) bool {
	ep := w.eps[dstWorld]

	ep.mu.Lock()
	if w.rankDead(dstWorld) {
		ep.mu.Unlock()
		return false
	}
	w.stats.messages.Add(1)
	w.stats.bytes.Add(int64(msg.bytes))
	pr := ep.matchRecvLocked(msg.ctx, msg.src, msg.tag)
	if pr != nil {
		ep.mu.Unlock()
		if msg.payload == nil && !msg.rendezvous && msg.bytes > 0 {
			// The intermediate eager copy never happened: count the
			// elision the same way the same-address skip is counted.
			w.stats.directDeliveries.Add(1)
		}
		w.deliverTo(msg, pr)
		return true
	}
	b := ep.bucket(epKey{msg.ctx, msg.src})
	if !msg.rendezvous && msg.payload == nil && msg.bytes > 0 {
		// No receive posted: the payload must outlive the send call.
		// Copy it (once) into a pooled buffer. The copy runs under ep.mu,
		// which keeps enqueue order equal to send order; it is bounded by
		// EagerLimit. A typed message packs here — datapath (1), the
		// generic pack into a pooled intermediate.
		msg.payload = w.pool.get(srcWorld, msg.bytes)
		if msg.sdt != nil {
			dtPack(msg.payload.data, msg.sdata, msg.sdt, int(msg.etype.Size()))
			msg.sdt = nil
		} else {
			copy(msg.payload.data, msg.sdata)
		}
		msg.sdata = msg.payload.data[:msg.bytes]
	}
	ep.enqueueUnexpected(b, msg)
	ep.mu.Unlock()
	return true
}

// deliverTo copies the payload into the posted receive's buffer, completes
// the receive request (and the sender's rendezvous request), releases the
// pooled payload, recycles the message and posted receive, and fires the
// delivery hook.
//
// Delivery can run on either side's goroutine: the receiver's when an
// unexpected message is matched at post time, the sender's when inject
// finds an already-posted receive. A payload error (truncation, datatype
// mismatch) is the *receiver's* error, and by the time deliverTo runs the
// posted receive has been removed from the endpoint — if the error
// escaped here on the sender's goroutine, the receiver's request would be
// orphaned (invisible to the failure cascade, never completed) and the
// receiver would hang until the watchdog. So the error is routed into the
// receive request instead, where the receiver's checkReq re-raises it; the
// sender's rendezvous handshake still completes (the payload left the
// sender correctly — the mismatch is on the receiving side).
func (w *World) deliverTo(msg *message, pr *postedRecv) {
	if msg.wireXid != 0 {
		// Remote rendezvous: the payload is still on the sender's node.
		// Hand the matched pair to the wire layer, which validates, sends
		// CTS, and completes the receive when the data frame lands.
		w.net.matchedRTS(msg, pr)
		return
	}
	var err error
	switch {
	case !typesMatch(msg, pr):
		err = &Error{Rank: pr.recvRank, Op: "Recv",
			Msg: fmt.Sprintf("datatype mismatch: receive buffer is []%v, message holds []%v", pr.etype, msg.etype)}
	case msg.elems > pr.relems:
		err = &Error{Rank: pr.recvRank, Op: "Recv",
			Msg: fmt.Sprintf("message truncated: %d elements into buffer of %d", msg.elems, pr.relems)}
	case msg.sptr != nil && msg.sptr == pr.rptr && sameLayout(msg.sdt, pr.rdt):
		// Send and receive buffers are the same memory (and, for typed
		// transfers, the same layout): skip the copy. This is MPC's
		// intra-node optimization that removes Tachyon's rank-0 image
		// copies once the image is an HLS variable.
		w.stats.sameAddrSkips.Add(1)
	case msg.sdt == nil && pr.rdt == nil:
		copy(pr.rdata, msg.sdata)
	default:
		// Typed delivery. When the payload still views the sender's raw
		// buffer (no pooled intermediate), this is datapath (2): one
		// strided-to-strided pass between the task buffers — the pack
		// elision the shared address space makes possible. With a packed
		// intermediate (unexpected-queue or wire payloads, msg.sdt
		// already nil) only the unpack side runs.
		dtCopy(pr.rdata, pr.rdt, msg.sdata, msg.sdt, int(pr.etype.Size()))
		if msg.payload == nil && !msg.kindOnly {
			w.stats.packElisions.Add(1)
		}
	}
	if msg.rendezvous && msg.sreq != nil {
		msg.sreq.complete(Status{})
	}
	if msg.payload != nil {
		w.pool.release(msg.payload)
	}
	if err != nil {
		pr.req.fail(err)
	} else {
		if w.cfg.Hooks != nil {
			w.cfg.Hooks.OnDeliver(pr.recvRank, msg.meta)
		}
		pr.req.complete(Status{Source: msg.src, Tag: msg.tag, Count: msg.elems, Bytes: msg.bytes})
		if w.traceHooks != nil && msg.span != 0 {
			// After complete, not before: the woken receiver (and, for a
			// rendezvous, the already-woken sender) runs concurrently with
			// the tracer's event append instead of behind it. msg and pr
			// are still exclusively ours until the put* calls below.
			// Both local delivery paths read the clock moments ago — the
			// post stamp when a post matched an unexpected message, the
			// send stamp when inject found a posted receive — and delivery
			// is triggered by whichever side arrived second, so its stamp
			// is the match time. Wire-crossed messages (kindOnly) carry a
			// remote-clock sendNs; pass 0 and let the tracer read.
			deliverNs := int64(0)
			if !msg.kindOnly {
				deliverNs = max(msg.sendNs, pr.postNs)
			}
			w.traceHooks.SpanDeliver(pr.recvRank, msg.span, msg.sendNs, pr.postNs, deliverNs, msg.bytes, msg.rendezvous, msg.kindOnly)
		}
	}
	putMessage(msg)
	putPostedRecv(pr)
}

// typesMatch implements MPI datatype matching between a message and a
// posted receive. In process the element types must be identical; for
// messages that crossed the wire only the reflect.Kind travels, so a
// named scalar type matches its underlying kind on the far side.
func typesMatch(msg *message, pr *postedRecv) bool {
	if msg.etype == pr.etype {
		return true
	}
	return msg.kindOnly && msg.etype.Kind() == pr.etype.Kind()
}

// drainEndpoints releases the payloads of every message still queued
// when the world winds down (undelivered chaos duplicates, messages to
// ranks that died, traffic abandoned by a cancel), so pool accounting
// balances after Run returns. Called once, after every task finished.
func (w *World) drainEndpoints() {
	for _, ep := range w.eps {
		ep.mu.Lock()
		for _, b := range ep.buckets {
			for i := b.mhead; i < len(b.msgs); i++ {
				m := b.msgs[i]
				ep.unexpectedBytes -= m.bytes
				if m.payload != nil {
					w.pool.release(m.payload)
				}
				putMessage(m)
				b.msgs[i] = nil
			}
			b.msgs = b.msgs[:0]
			b.mhead = 0
		}
		ep.mu.Unlock()
	}
}
