package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// TCP is the TCP implementation of Transport.
//
// Reliability model: every sequenced frame (eager, RTS, CTS, data,
// failure) gets a per-peer monotonically increasing sequence number and
// is retained in an unacked ring until the peer acknowledges it —
// cumulatively, piggybacked on every frame, standalone only after
// ackDelay of quiescence or every ackEvery one-way frames. When a
// connection drops, nothing is lost: the next connection's Hello
// handshake carries each side's resume point (highest in-order sequence
// received) and the unacked tail is retransmitted. The receiver claims
// frames strictly in order (seq == last+1) and drops duplicates, so
// retransmission never reorders or duplicates delivery. Only when
// reconnect attempts are exhausted is the peer declared down and
// Sink.PeerDown invoked — which the MPI layer turns into a ULFM-style
// rank-failure cascade.
type TCP struct {
	cfg    Config
	ln     net.Listener
	sink   Sink
	peers  []*tcpPeer
	closed atomic.Bool

	framesSent    atomic.Uint64
	framesRecv    atomic.Uint64
	bytesSent     atomic.Uint64
	bytesRecv     atomic.Uint64
	reconnects    atomic.Uint64
	inflight      atomic.Int64
	batchesSent   atomic.Uint64
	batchedFrames atomic.Uint64
	// batchPending counts the peers holding a pending batch, so Flush
	// with nothing to write is one load.
	batchPending atomic.Int32
}

// ackEvery is the one-way-traffic interval (in frames) at which a
// standalone cumulative ack is emitted.
const ackEvery = 32

// ackDelay is how long a received frame's ack may wait for reverse
// traffic to carry it before maybeAck sends it alone: long against a
// loopback reply, short against the mpi layer's 1 s shutdown drain. The
// ack timer is armed once and re-armed when it fires after more frames
// arrived, so a standalone ack follows a full quiet ackDelay, at most
// 2*ackDelay after the last frame.
const ackDelay = 2 * time.Millisecond

// clockBurst is the number of probe round trips taken back to back
// after a handshake (each pong triggers the next probe) before probes
// fall back to PingInterval: the min-RTT filter needs several samples
// before the estimate it keeps is tight, and a short run may end before
// the second periodic probe.
const clockBurst = 8

// Batching policy (engaged by Config.BatchWindow): an eager frame whose
// encoding exceeds batchCutoff goes out alone, and a pending batch is
// flushed as soon as it holds batchMaxBytes of encoded sub-frames or
// batchMaxFrames of them, whichever comes first — or earlier, on Flush.
const (
	batchCutoff    = 1 << 10
	batchMaxBytes  = 16 << 10
	batchMaxFrames = 64
)

// Encode staging. Every frame is encoded into a buffer drawn from one
// sync.Pool per power-of-two size class, from 1<<encMinClassBits up to
// 1<<encMaxClassBits. getEnc takes the exact encoded size, so a buffer
// never grows while a frame is appended to it. A sequenced frame's buffer
// goes back to its class only when it leaves the unacked ring (ack trim,
// stream reset, peer down), since a reconnect retransmits from the ring;
// an unsequenced frame's buffer goes back as soon as it is written.
// Frames beyond the top class are allocated and left to the GC.
const (
	encMinClassBits = 8  // 256 B, class 0
	encMaxClassBits = 20 // 1 MiB, the top class
)

// encPools holds encode buffers by pointer, one pool per class; the
// pointer travels with its buffer, so a Put needs no fresh box.
var encPools [encMaxClassBits - encMinClassBits + 1]sync.Pool

// encClass returns the smallest class holding n bytes, or -1 when n
// exceeds the top class.
func encClass(n int) int {
	switch {
	case n > 1<<encMaxClassBits:
		return -1
	case n <= 1<<encMinClassBits:
		return 0
	}
	return bits.Len(uint(n-1)) - encMinClassBits
}

// getEnc returns an empty buffer with capacity for n bytes.
func getEnc(n int) *[]byte {
	if c := encClass(n); c >= 0 {
		if v := encPools[c].Get(); v != nil {
			b := v.(*[]byte)
			*b = (*b)[:0]
			return b
		}
		n = 1 << (encMinClassBits + c)
	}
	b := make([]byte, 0, n)
	return &b
}

// encFit returns the class whose size is exactly c, or -1.
func encFit(c int) int {
	if k := encClass(c); k >= 0 && c == 1<<(encMinClassBits+k) {
		return k
	}
	return -1
}

// putEnc returns b to the class its capacity exactly fits; any other
// buffer is left to the GC.
func putEnc(b *[]byte) {
	if k := encFit(cap(*b)); k >= 0 {
		encPools[k].Put(b)
	}
}

type encFrame struct {
	seq uint64
	buf *[]byte
}

// tcpPeer is the per-peer connection state. Two mutexes with a strict
// order (recvMu before sendMu, never the reverse): sendMu guards the
// connection, writer, sequence allocation and the unacked ring; recvMu
// serializes in-order claim + delivery so a stale reader can never
// deliver around the current one.
type tcpPeer struct {
	id int
	tr *TCP

	sendMu  sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	wdl     time.Time // write deadline set on conn (zero: none yet)
	ready   bool      // Hello exchange complete on conn; writes allowed
	inc     uint64    // highest incarnation seen from this peer (0 = none announced)
	sendSeq uint64
	unacked []encFrame
	dialing bool
	down    bool
	downErr error
	// hadConn: a connection was installed before, so a redial backs
	// off first. handshook: the last installed connection received the
	// peer's Hello, so replacing it is a reconnect. A connection the
	// dial tie-break discards before any Hello arrives is not.
	hadConn      bool
	handshook    bool
	pendingSends atomic.Int32

	// Pending batch (guarded by sendMu): small sequenced frames are
	// copied here instead of written, and flushed as one TypeBatch
	// container on Flush, a size threshold, the window deadline, or
	// before any frame that cannot join the batch (ordering). The
	// sub-frames also live individually in the unacked ring, so
	// reconnect retransmission ignores batching entirely.
	batchBuf    []byte
	batchFrames int
	batchTimer  *time.Timer

	recvMu  sync.Mutex
	recvSeq atomic.Uint64 // highest in-order seq received (atomic: read by send path for piggyback)
	lastAck uint64        // recvSeq value last standalone-acked

	ackedOut atomic.Uint64 // highest Ack written on the connection (stored under sendMu)
	ackTimer *time.Timer   // fires ackFire ackDelay after it was armed
	ackArmed atomic.Bool   // ackTimer is pending (cleared first thing when it fires)
	ackSeq   atomic.Uint64 // recvSeq when ackTimer was armed

	clock clockFilter // fed by the Hello and every pong
}

// NewTCP builds a TCP transport listening on cfg.Addrs[cfg.Self] (or on
// cfg's pre-built listener for tests using port 0). Bind must be called
// before the first Send.
func NewTCP(cfg Config, ln net.Listener) (*TCP, error) {
	c := cfg.withDefaults()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", c.Addrs[c.Self])
		if err != nil {
			return nil, fmt.Errorf("wire: listen %s: %w", c.Addrs[c.Self], err)
		}
	}
	t := &TCP{cfg: c, ln: ln}
	t.peers = make([]*tcpPeer, len(c.Addrs))
	for i := range t.peers {
		p := &tcpPeer{id: i, tr: t}
		p.ackTimer = time.AfterFunc(ackDelay, p.ackFire)
		p.ackTimer.Stop()
		t.peers[i] = p
	}
	return t, nil
}

// Self returns this node's id.
func (t *TCP) Self() int { return t.cfg.Self }

// Peers returns the node count.
func (t *TCP) Peers() int { return len(t.peers) }

// Addr returns the actual listen address (resolves port 0).
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Bind installs the sink and starts the accept loop (and, when
// configured, the periodic clock-probe loop).
func (t *TCP) Bind(s Sink) {
	t.sink = s
	go t.acceptLoop()
	if t.cfg.PingInterval > 0 {
		go t.pingLoop()
	}
}

// pingLoop sends a clock probe to every ready peer once per
// PingInterval until the transport closes.
func (t *TCP) pingLoop() {
	for !t.closed.Load() {
		time.Sleep(t.cfg.PingInterval)
		if t.closed.Load() {
			return
		}
		for i, p := range t.peers {
			if i != t.cfg.Self {
				p.sendPing()
			}
		}
	}
}

// Close shuts the transport down.
func (t *TCP) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := t.ln.Close()
	for _, p := range t.peers {
		// Ack what we owe before the connection goes, so the peer's
		// inflight drains now instead of when its redials give up.
		p.stopAck()
		p.maybeAck()
		p.sendMu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
			p.bw = nil
			p.ready = false
		}
		p.sendMu.Unlock()
	}
	return err
}

// Clock returns the estimate of peer's clock kept from the Hello
// handshake and the ping/pong probes. A peer id outside the world, or
// this node's own, has no samples.
func (t *TCP) Clock(peer int) ClockEstimate {
	if peer < 0 || peer >= len(t.peers) {
		return ClockEstimate{RTTNs: -1}
	}
	return t.peers[peer].clock.estimate()
}

// Stats snapshots the transport counters.
func (t *TCP) Stats() Stats {
	inf := t.inflight.Load()
	if inf < 0 {
		inf = 0
	}
	return Stats{
		FramesSent:     t.framesSent.Load(),
		FramesReceived: t.framesRecv.Load(),
		BytesSent:      t.bytesSent.Load(),
		BytesReceived:  t.bytesRecv.Load(),
		Reconnects:     t.reconnects.Load(),
		Inflight:       uint64(inf),
		BatchesSent:    t.batchesSent.Load(),
		BatchedFrames:  t.batchedFrames.Load(),
	}
}

// Send assigns the next sequence number, queues the frame in the unacked
// ring, and writes it if a ready connection exists — otherwise it
// triggers a lazy dial and lets the Hello handshake's retransmission
// push the queued frame out. The payload is encoded (copied) before
// Send returns.
func (t *TCP) Send(peer int, h *Header, payload []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	if peer < 0 || peer >= len(t.peers) || peer == t.cfg.Self {
		return fmt.Errorf("wire: bad peer %d (self %d of %d)", peer, t.cfg.Self, len(t.peers))
	}
	p := t.peers[peer]
	p.pendingSends.Add(1)
	p.sendMu.Lock()
	defer func() {
		// Decrement while still holding sendMu. writeLocked's
		// coalescing check reads a nonzero remainder as "another
		// sender is still on its way and will flush after me"; if the
		// count outlived the unlock, two departing senders could each
		// see the other's stale increment, both skip the flush, and
		// strand fully framed bytes in the bufio.Writer forever.
		p.pendingSends.Add(-1)
		p.sendMu.Unlock()
	}()
	if p.down {
		return &PeerDownError{Peer: peer, Last: p.downErr}
	}
	p.sendSeq++
	hh := *h
	hh.Seq = p.sendSeq
	hh.Ack = p.recvSeq.Load()
	enc := getEnc(encodedSize(&hh, len(payload)))
	*enc = AppendFrame(*enc, &hh, payload)
	buf := *enc
	p.unacked = append(p.unacked, encFrame{seq: hh.Seq, buf: enc})
	t.inflight.Add(1)
	if p.conn == nil || !p.ready {
		p.ensureDialLocked()
		return nil
	}
	if t.cfg.BatchWindow > 0 && hh.Type == TypeEager && len(buf) <= batchCutoff {
		p.batchBuf = append(p.batchBuf, buf...)
		p.batchFrames++
		if p.batchFrames == 1 {
			t.batchPending.Add(1)
		}
		if len(p.batchBuf) >= batchMaxBytes || p.batchFrames >= batchMaxFrames {
			if err := p.flushBatchLocked(); err != nil {
				p.severLocked(err)
			}
		} else if p.batchFrames == 1 {
			if p.batchTimer == nil {
				p.batchTimer = time.AfterFunc(t.cfg.BatchWindow, p.flushBatch)
			} else {
				p.batchTimer.Reset(t.cfg.BatchWindow)
			}
		}
		return nil
	}
	// An unbatchable frame must not overtake pending batched frames:
	// flush them first so the peer sees sequence numbers in order.
	if err := p.flushBatchLocked(); err != nil {
		p.severLocked(err)
		return nil
	}
	if err := p.writeLocked(buf, hh.Type, true); err != nil {
		p.severLocked(err)
		return nil
	}
	p.noteAckedLocked(hh.Ack)
	return nil
}

// Flush writes every peer's pending batch now.
func (t *TCP) Flush() {
	if t.batchPending.Load() == 0 {
		return
	}
	for i, p := range t.peers {
		if i != t.cfg.Self {
			p.flushBatch()
		}
	}
}

// Batching reports whether Send coalesces small frames.
func (t *TCP) Batching() bool { return t.cfg.BatchWindow > 0 }

// flushBatch writes the peer's pending batch, if any: the window-deadline
// callback, and Flush's per-peer step.
func (p *tcpPeer) flushBatch() {
	p.sendMu.Lock()
	if err := p.flushBatchLocked(); err != nil {
		p.severLocked(err)
	}
	p.sendMu.Unlock()
}

// flushBatchLocked writes the pending sub-frames as one TypeBatch
// container, carrying the current cumulative ack. No connection means
// the pending copies are simply dropped: the sub-frames sit in the
// unacked ring and the resume handshake retransmits them individually.
func (p *tcpPeer) flushBatchLocked() error {
	if p.batchFrames == 0 {
		return nil
	}
	if p.batchTimer != nil {
		p.batchTimer.Stop()
	}
	n := p.batchFrames
	payload := p.batchBuf
	p.batchFrames = 0
	p.tr.batchPending.Add(-1)
	if p.conn == nil || !p.ready {
		p.batchBuf = p.batchBuf[:0]
		return nil
	}
	t := p.tr
	t.batchesSent.Add(1)
	t.batchedFrames.Add(uint64(n))
	err := p.writeFrameLocked(&Header{Type: TypeBatch, Ack: p.recvSeq.Load()}, payload, true)
	p.batchBuf = p.batchBuf[:0]
	return err
}

// writeFrameLocked encodes an unsequenced frame into a pooled buffer and
// writes it, noting the cumulative ack it carries.
func (p *tcpPeer) writeFrameLocked(h *Header, payload []byte, coalesce bool) error {
	enc := getEnc(encodedSize(h, len(payload)))
	*enc = AppendFrame(*enc, h, payload)
	err := p.writeLocked(*enc, h.Type, coalesce)
	putEnc(enc)
	if err == nil {
		p.noteAckedLocked(h.Ack)
	}
	return err
}

// noteAckedLocked records that a frame carrying cumulative ack a went
// out, so a standalone ack through a would be redundant.
func (p *tcpPeer) noteAckedLocked(a uint64) {
	if a > p.ackedOut.Load() {
		p.ackedOut.Store(a)
	}
}

// clearBatchLocked drops the pending batch without writing it (the
// sub-frames stay in the unacked ring for retransmission).
func (p *tcpPeer) clearBatchLocked() {
	if p.batchFrames > 0 {
		p.tr.batchPending.Add(-1)
	}
	p.batchBuf = p.batchBuf[:0]
	p.batchFrames = 0
	if p.batchTimer != nil {
		p.batchTimer.Stop()
	}
}

// writeLocked writes one encoded frame on the current connection,
// consulting the fault injector and coalescing flushes: if other senders
// are already waiting on sendMu the flush is left to the last of them.
func (p *tcpPeer) writeLocked(buf []byte, ft Type, coalesce bool) error {
	t := p.tr
	if f := t.cfg.Fault; f != nil && ft != TypeHello {
		drop, trunc := f.WireSend(p.id, ft, len(buf))
		if drop {
			return errors.New("wire: injected connection drop")
		}
		if trunc > 0 && trunc < len(buf) {
			p.refreshWriteDeadlineLocked()
			p.bw.Write(buf[:trunc]) //nolint:errcheck // connection is being severed
			p.bw.Flush()            //nolint:errcheck
			return errors.New("wire: injected partial frame")
		}
	}
	p.refreshWriteDeadlineLocked()
	if _, err := p.bw.Write(buf); err != nil {
		return err
	}
	t.framesSent.Add(1)
	t.bytesSent.Add(uint64(len(buf)))
	if coalesce && p.pendingSends.Load() > 1 {
		return nil // a waiting sender will write and flush
	}
	return p.bw.Flush()
}

// refreshWriteDeadlineLocked keeps at least WriteTimeout on the
// connection's write deadline before a write starts. The deadline is set
// 2*WriteTimeout ahead and moved only once less than WriteTimeout
// remains, so a stream of frames re-arms the runtime's deadline timer
// about once per WriteTimeout rather than once per frame, and a stuck
// write fails between WriteTimeout and 2*WriteTimeout after it began.
func (p *tcpPeer) refreshWriteDeadlineLocked() {
	wt := p.tr.cfg.WriteTimeout
	now := time.Now()
	if p.wdl.Sub(now) >= wt {
		return
	}
	p.wdl = now.Add(2 * wt)
	p.conn.SetWriteDeadline(p.wdl) //nolint:errcheck
}

// severLocked tears the current connection down (keeping the unacked
// ring for retransmission) and triggers a reconnect.
func (p *tcpPeer) severLocked(err error) {
	_ = err
	p.clearBatchLocked()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.bw = nil
		p.ready = false
	}
	if !p.tr.closed.Load() {
		p.ensureDialLocked()
	}
}

// sever is severLocked for callers (readers) that must first check the
// connection they saw fail is still the current one.
func (p *tcpPeer) sever(c net.Conn, err error) {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.conn != c {
		c.Close() // stale connection: just make sure it is gone
		return
	}
	p.severLocked(err)
}

// ensureDialLocked spawns the reconnect loop unless one is already
// running or the peer is finished.
func (p *tcpPeer) ensureDialLocked() {
	if p.dialing || p.down || p.tr.closed.Load() {
		return
	}
	p.dialing = true
	go p.dialLoop()
}

// dialLoop dials the peer with capped exponential backoff. On success
// the dialer sends Hello and hands the connection to a reader; the
// peer's answering Hello completes the handshake (retransmit + ready).
// Exhausting ReconnectMax attempts declares the peer down.
func (p *tcpPeer) dialLoop() {
	t := p.tr
	backoff := t.cfg.ReconnectBackoff
	maxBackoff := 32 * t.cfg.ReconnectBackoff
	var lastErr error = errors.New("no attempts made")
	for attempt := 1; attempt <= t.cfg.ReconnectMax; attempt++ {
		if t.closed.Load() {
			p.finishDial()
			return
		}
		p.sendMu.Lock()
		if p.conn != nil { // acceptor installed a connection meanwhile
			p.dialing = false
			p.sendMu.Unlock()
			return
		}
		hadConn := p.hadConn
		p.sendMu.Unlock()
		if attempt > 1 || hadConn {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
			if t.closed.Load() {
				// Closed while backing off: without this re-check the loop
				// would race teardown and fire one more dial (and fault
				// hook) against a world that no longer exists.
				p.finishDial()
				return
			}
		}
		if f := t.cfg.Fault; f != nil && !f.WireDial(p.id, attempt) {
			lastErr = errors.New("wire: injected dial failure")
			continue
		}
		conn, err := net.DialTimeout("tcp", t.cfg.Addrs[p.id], t.cfg.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true) //nolint:errcheck
		}
		if p.adoptDialed(conn) {
			p.finishDial()
			return
		}
		lastErr = errors.New("wire: dialed connection not adopted")
	}
	p.markDown(lastErr)
}

// finishDial clears the dialing flag.
func (p *tcpPeer) finishDial() {
	p.sendMu.Lock()
	p.dialing = false
	p.sendMu.Unlock()
}

// adoptDialed installs a freshly dialed connection (unless the acceptor
// beat us to one), sends our Hello, and starts the reader. The
// connection is not ready for app writes until the peer's Hello arrives.
func (p *tcpPeer) adoptDialed(conn net.Conn) bool {
	t := p.tr
	p.sendMu.Lock()
	if t.closed.Load() || p.down {
		p.sendMu.Unlock()
		conn.Close()
		return t.closed.Load() // closed counts as "done dialing"
	}
	if p.conn != nil {
		p.sendMu.Unlock()
		conn.Close() // a connection exists; use it
		return true
	}
	p.installLocked(conn)
	err := p.writeHelloLocked()
	p.sendMu.Unlock()
	if err != nil {
		p.sever(conn, err)
		return false
	}
	go p.runReader(conn, bufio.NewReader(conn))
	return true
}

// installLocked makes conn the current connection (closing any old one).
// It counts a reconnect only when the last installed connection had
// completed its handshake: a simultaneous first dial from both ends
// installs twice on the higher node without any connection being lost.
func (p *tcpPeer) installLocked(conn net.Conn) {
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	p.bw = bufio.NewWriterSize(conn, 64<<10)
	p.wdl = time.Time{}
	p.ready = false
	if p.handshook {
		p.tr.reconnects.Add(1)
	}
	p.handshook = false
	p.hadConn = true
}

// writeHelloLocked sends the handshake frame: our node id, the world
// key, and our resume point (highest in-order seq received from peer).
// Like every frame it carries our Version, which the peer demands be
// equal to its own. Ctx holds our wall clock as a crude one-way clock
// sample, and Seq our process incarnation (sequence numbering starts
// after the handshake, so the field is free here).
func (p *tcpPeer) writeHelloLocked() error {
	h := p.tr.hello()
	h.Ack = p.recvSeq.Load()
	return p.writeFrameLocked(&h, nil, false)
}

// hello is the Hello header this transport announces itself with; the
// caller fills in the resume point (Ack).
func (t *TCP) hello() Header {
	return Header{
		Type:     TypeHello,
		Xid:      t.cfg.WorldKey,
		SrcWorld: int32(t.cfg.Self),
		Seq:      t.cfg.Incarnation,
		Ctx:      time.Now().UnixNano(),
	}
}

// noteHelloLocked records the peer's incarnation from its Hello (the Seq
// field; 0 marks a process that announces no incarnation and never
// triggers a reset). When the incarnation advances past one we had
// already met — or past a peer we had declared down — the old sequence
// space belongs to a dead process: the per-peer stream is reset so the
// handshake starts fresh, and a down peer is revived. Frames still
// queued for the old incarnation are dropped; across a respawn the
// application-level recovery (checkpoint restore) owns redelivery, not
// the wire.
//
// Caller holds recvMu AND sendMu (in that order) — the reset touches
// state under both. Returns whether the incarnation advanced (bumped)
// and whether the peer came back from the down state (revived).
func (p *tcpPeer) noteHelloLocked(h *Header) (bumped, revived bool) {
	inc := h.Seq
	if inc == 0 || inc <= p.inc {
		return false, false
	}
	// First contact with an incarnation-aware peer (p.inc == 0, not
	// down) must NOT reset: Sends queued before the handshake are real
	// traffic for exactly this incarnation.
	if p.inc != 0 || p.down {
		p.resetStreamLocked()
		bumped = true
	}
	p.inc = inc
	if p.down {
		p.down = false
		p.downErr = nil
		revived = true
	}
	return bumped, revived
}

// resetStreamLocked discards the per-peer sequence space: queued unacked
// frames are freed, and send/receive sequences and the ack watermark
// return to zero. Caller holds recvMu and sendMu.
func (p *tcpPeer) resetStreamLocked() {
	p.clearBatchLocked()
	p.stopAck()
	p.sendSeq = 0
	n := len(p.unacked)
	for _, ef := range p.unacked {
		putEnc(ef.buf)
	}
	p.unacked = nil
	p.tr.inflight.Add(int64(-n))
	p.recvSeq.Store(0)
	p.lastAck = 0
	p.ackedOut.Store(0)
}

// handleHello processes the peer's Hello on connection c: note the
// peer's incarnation (resetting the stream if it restarted), acknowledge
// through the peer's resume point, retransmit the unacked tail, and open
// the connection for new writes. The Hello's version already matched
// ours, or readHeader would have refused it.
func (p *tcpPeer) handleHello(c net.Conn, h *Header) {
	now := time.Now()
	p.recvMu.Lock()
	p.sendMu.Lock()
	if p.conn != c {
		p.sendMu.Unlock()
		p.recvMu.Unlock()
		return // stale connection
	}
	// The peer's Hello on our current connection completes the exchange:
	// from here on, losing c is a real loss.
	p.handshook = true
	p.noteHelloLocked(h)
	if h.Ctx != 0 {
		// One-way Hello sample: offset only, no RTT bound (rtt = -1).
		// Taken before the connection opens, so the estimate exists by
		// the time any frame crosses it.
		p.clock.sample(now, h.Ctx-now.UnixNano(), -1)
	}
	p.trimAckedLocked(h.Ack)
	for _, ef := range p.unacked {
		if err := p.writeLocked(*ef.buf, TypeEager, false); err != nil {
			p.severLocked(err)
			p.sendMu.Unlock()
			p.recvMu.Unlock()
			return
		}
	}
	if err := p.bw.Flush(); err != nil {
		p.severLocked(err)
		p.sendMu.Unlock()
		p.recvMu.Unlock()
		return
	}
	p.ready = true
	if p.tr.cfg.PingInterval > 0 {
		p.writePingLocked() // immediate probe: short runs get a real RTT
	}
	p.sendMu.Unlock()
	p.recvMu.Unlock()
}

// writePingLocked emits an unsequenced clock probe carrying our wall
// clock (t1) in Xid. Failures are ignored: probes are best-effort and
// the next write will sever a genuinely broken connection.
func (p *tcpPeer) writePingLocked() {
	h := Header{
		Type: TypePing,
		Xid:  uint64(time.Now().UnixNano()),
		Ack:  p.recvSeq.Load(),
	}
	if err := p.writeFrameLocked(&h, nil, false); err != nil {
		p.severLocked(err)
	}
}

// sendPing emits a clock probe if the connection is up.
func (p *tcpPeer) sendPing() {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.conn == nil || !p.ready || p.down {
		return
	}
	p.writePingLocked()
}

// sendPong answers a clock probe: echo t1 (Xid), report our receive
// time t2 (Ctx) and our send time t3 (SendTS, in the span extension).
func (p *tcpPeer) sendPong(t1 uint64, t2 int64) {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.conn == nil || !p.ready || p.down {
		return
	}
	h := Header{
		Type:   TypePong,
		Xid:    t1,
		Ctx:    t2,
		Ack:    p.recvSeq.Load(),
		SendTS: time.Now().UnixNano(),
	}
	if err := p.writeFrameLocked(&h, nil, false); err != nil {
		p.severLocked(err)
	}
}

// handlePong closes the NTP-style loop: with t1 (our probe send), t2
// (peer receive), t3 (peer reply send) and t4 (now), the peer clock
// offset is ((t2-t1)+(t3-t4))/2 and the RTT is (t4-t1)-(t3-t2).
func (p *tcpPeer) handlePong(h *Header) {
	now := time.Now()
	t1 := int64(h.Xid)
	t2 := h.Ctx
	t3 := h.SendTS
	t4 := now.UnixNano()
	if t1 == 0 || t2 == 0 || t3 == 0 {
		return
	}
	offset := ((t2 - t1) + (t3 - t4)) / 2
	rtt := (t4 - t1) - (t3 - t2)
	if rtt < 0 {
		return // nonsense sample (clock stepped mid-flight)
	}
	if p.clock.sample(now, offset, rtt) < clockBurst {
		p.sendPing()
	}
}

// handleAck trims the unacked ring through cumulative ack a.
func (p *tcpPeer) handleAck(a uint64) {
	p.sendMu.Lock()
	p.trimAckedLocked(a)
	p.sendMu.Unlock()
}

func (p *tcpPeer) trimAckedLocked(a uint64) {
	if a > p.sendSeq {
		// A peer cannot legitimately ack beyond what we have sent: this
		// is a stale resume point from a Hello addressed to an earlier
		// incarnation of this process. Honoring it would trim frames
		// queued but never delivered.
		return
	}
	n := 0
	for n < len(p.unacked) && p.unacked[n].seq <= a {
		putEnc(p.unacked[n].buf)
		n++
	}
	if n > 0 {
		rest := len(p.unacked) - n
		copy(p.unacked, p.unacked[n:])
		for i := rest; i < len(p.unacked); i++ {
			p.unacked[i] = encFrame{}
		}
		p.unacked = p.unacked[:rest]
		p.tr.inflight.Add(int64(-n))
	}
}

// sendAck emits a standalone cumulative ack.
func (p *tcpPeer) sendAck() {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.conn == nil || !p.ready {
		return
	}
	h := Header{Type: TypeAck, Ack: p.recvSeq.Load()}
	if err := p.writeFrameLocked(&h, nil, false); err != nil {
		p.severLocked(err)
	}
}

// deferAck arms the quiescence ack unless it is already armed: a frame
// sent back within ackDelay carries the ack, and only a stream that
// stays silent gets a standalone one. A stream that keeps flowing keeps
// the timer armed without touching it per frame; ackFire notices the
// frames that arrived meanwhile.
func (p *tcpPeer) deferAck() {
	if p.ackArmed.CompareAndSwap(false, true) {
		p.ackSeq.Store(p.recvSeq.Load())
		p.ackTimer.Reset(ackDelay)
	}
}

// ackFire runs ackDelay after the timer was armed. If frames arrived
// since, the stream was not quiet for ackDelay: the timer is re-armed
// from now. Otherwise maybeAck sends what is still owed. armed is
// cleared before recvSeq is read, so a frame claimed after that read
// finds the timer disarmed and arms it again: no ack is lost to the race.
func (p *tcpPeer) ackFire() {
	p.ackArmed.Store(false)
	cur := p.recvSeq.Load()
	if cur != p.ackSeq.Load() {
		if p.ackArmed.CompareAndSwap(false, true) {
			p.ackSeq.Store(cur)
			p.ackTimer.Reset(ackDelay)
		}
		return
	}
	p.maybeAck()
}

// stopAck disarms the quiescence ack. The flag is cleared after Stop,
// so a deferAck racing with it cannot leave the flag set with no timer
// pending.
func (p *tcpPeer) stopAck() {
	p.ackTimer.Stop()
	p.ackArmed.Store(false)
}

// maybeAck emits a standalone cumulative ack if received frames are
// still unacknowledged by both standalone and piggybacked acks.
func (p *tcpPeer) maybeAck() {
	p.recvMu.Lock()
	cur := p.recvSeq.Load()
	send := cur > max(p.lastAck, p.ackedOut.Load())
	if send {
		p.lastAck = cur
	}
	p.recvMu.Unlock()
	if send {
		p.sendAck()
	}
}

// markDown declares the peer permanently unreachable.
func (p *tcpPeer) markDown(err error) {
	p.sendMu.Lock()
	if p.down {
		p.sendMu.Unlock()
		return
	}
	p.down = true
	p.downErr = err
	p.dialing = false
	p.clearBatchLocked()
	p.stopAck()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
		p.bw = nil
		p.ready = false
	}
	n := len(p.unacked)
	for _, ef := range p.unacked {
		putEnc(ef.buf)
	}
	p.unacked = nil
	p.tr.inflight.Add(int64(-n))
	p.sendMu.Unlock()
	if !p.tr.closed.Load() {
		p.tr.sink.PeerDown(p.id, &PeerDownError{Peer: p.id, Last: err})
	}
}

// acceptLoop accepts inbound connections and hands each to a handshake
// goroutine.
func (t *TCP) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true) //nolint:errcheck
		}
		go t.handleAccept(conn)
	}
}

// handleAccept reads the dialer's Hello, identifies and validates the
// peer, and decides whether to adopt the connection. Tie-break when a
// connection already exists (simultaneous dial from both ends): the
// connection dialed by the LOWER node id wins, so both sides converge on
// the same socket instead of flapping.
func (t *TCP) handleAccept(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout + 2*time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	var scratch [maxFrameRead]byte
	var h Header
	plen, err := readHeader(br, &h, &scratch)
	var ve *VersionError
	if errors.As(err, &ve) {
		// A different build dialed us. Answer with our own Hello before
		// closing, so its reader fails with the same typed error and
		// declares us down instead of redialing a silent close forever.
		hello := t.hello()
		conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout)) //nolint:errcheck
		conn.Write(AppendFrame(nil, &hello, nil))                 //nolint:errcheck // best effort
	}
	if err != nil || h.Type != TypeHello || plen != 0 {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	peerID := int(h.SrcWorld)
	if peerID < 0 || peerID >= len(t.peers) || peerID == t.cfg.Self || h.Xid != t.cfg.WorldKey {
		conn.Close()
		return
	}
	p := t.peers[peerID]
	p.recvMu.Lock()
	p.sendMu.Lock()
	// A restarted peer announces a higher incarnation: reset the stream,
	// revive it if it was down, and let the fresh connection displace any
	// stale one regardless of the dial tie-break (the old socket belongs
	// to a dead process, so there is no flap to avoid).
	bumped, revived := p.noteHelloLocked(&h)
	if t.closed.Load() || p.down || (p.conn != nil && peerID > t.cfg.Self && !bumped) {
		p.sendMu.Unlock()
		p.recvMu.Unlock()
		conn.Close()
		return
	}
	p.installLocked(conn)
	if err := p.writeHelloLocked(); err != nil {
		p.severLocked(err)
		p.sendMu.Unlock()
		p.recvMu.Unlock()
		return
	}
	p.sendMu.Unlock()
	p.recvMu.Unlock()
	if revived {
		if s, ok := t.sink.(PeerReviver); ok {
			s.PeerUp(peerID)
		}
	}
	// Complete the handshake from their resume point, then read.
	p.handleHello(conn, &h)
	p.runReader(conn, br)
}

// runReader is the per-connection progress goroutine: it decodes frames
// off the connection and routes them. Hello completes handshakes, Ack
// trims the ring, everything else is claimed in order and delivered to
// the sink. A frame of another protocol version means the peer runs a
// different build, which no reconnect can fix: the peer is declared down.
func (p *tcpPeer) runReader(c net.Conn, br *bufio.Reader) {
	t := p.tr
	var scratch [maxFrameRead]byte
	var f Frame // every frame is decoded into f: Sink.Frame does not keep it
	h := &f.Header
	// batch holds batch containers, grown on demand: the container never
	// reaches the sink, and handleBatch copies every sub-frame out of it.
	var batch []byte
	for {
		if t.cfg.ReadIdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(t.cfg.ReadIdleTimeout)) //nolint:errcheck
		}
		plen, err := readHeader(br, h, &scratch)
		if err != nil {
			var ve *VersionError
			if errors.As(err, &ve) {
				c.Close()
				p.markDown(err)
				return
			}
			if !errors.Is(err, io.EOF) || !t.closed.Load() {
				p.sever(c, err)
			}
			return
		}
		var payload []byte
		var token any
		if plen > 0 {
			if t.sink != nil && (h.Type == TypeEager || h.Type == TypeData || h.Type == TypeDataSeg) {
				payload, token = t.sink.Alloc(p.id, h)
			}
			if len(payload) != plen {
				if token != nil {
					t.sink.Free(p.id, token)
					token = nil
				}
				if h.Type == TypeBatch {
					if cap(batch) < plen {
						batch = make([]byte, plen)
					}
					payload = batch[:plen]
				} else {
					payload = make([]byte, plen)
				}
			}
			if _, err := io.ReadFull(br, payload); err != nil {
				if token != nil {
					t.sink.Free(p.id, token)
				}
				p.sever(c, err)
				return
			}
		}
		t.framesRecv.Add(1)
		t.bytesRecv.Add(uint64(frameOverhead + plen))
		switch h.Type {
		case TypeHello:
			p.handleHello(c, h)
		case TypeAck:
			p.handleAck(h.Ack)
		case TypePing:
			// Unsequenced clock probe: answer with our timestamps. The
			// receive time is captured here, before the reply queues.
			p.handleAck(h.Ack)
			p.sendPong(h.Xid, time.Now().UnixNano())
		case TypePong:
			p.handleAck(h.Ack)
			p.handlePong(h)
		case TypeBatch:
			p.handleAck(h.Ack)
			if !p.handleBatch(c, payload, &f) {
				return
			}
			if br.Buffered() == 0 {
				p.quiesce()
			}
		default:
			f.Payload, f.Token = payload, token
			if !p.claimAndDeliver(c, &f) {
				return // connection severed on protocol error
			}
			if br.Buffered() == 0 {
				p.quiesce()
			}
		}
	}
}

// quiesce runs when a delivered frame leaves nothing buffered. A reply
// within ackDelay carries the ack, else the timer sends it, so the
// sender's inflight count drains (world shutdown waits on it). Then the
// reader yields its P: the task the frame woke sits in this P's runnext
// slot and runs at once, on this thread, instead of waiting for the
// reader to reach its next (empty) read and park, or for another thread
// to be woken across CPUs to steal it.
func (p *tcpPeer) quiesce() {
	p.deferAck()
	runtime.Gosched()
}

// claimAndDeliver claims the frame's sequence number in order and hands
// it to the sink under recvMu, so delivery order equals sequence order
// even across connection replacement. Duplicates (retransmission
// overlap) and frames from stale connections are dropped. A sequence gap
// severs the connection to force a resume handshake; it reports false.
// The frame's piggybacked cumulative ack trims the unacked ring in the
// same sendMu section that reads the current connection. f is the
// reader's reused frame; its payload and token are cleared.
func (p *tcpPeer) claimAndDeliver(c net.Conn, f *Frame) bool {
	t := p.tr
	h, token := &f.Header, f.Token
	defer func() { f.Payload, f.Token = nil, nil }()
	p.recvMu.Lock()
	p.sendMu.Lock()
	p.trimAckedLocked(h.Ack)
	cur := p.conn
	p.sendMu.Unlock()
	if cur != c || h.Seq <= p.recvSeq.Load() {
		p.recvMu.Unlock()
		if token != nil {
			t.sink.Free(p.id, token)
		}
		return true
	}
	if h.Seq != p.recvSeq.Load()+1 {
		p.recvMu.Unlock()
		if token != nil {
			t.sink.Free(p.id, token)
		}
		p.sever(c, fmt.Errorf("wire: sequence gap: got %d, expected %d", h.Seq, p.recvSeq.Load()+1))
		return false
	}
	p.recvSeq.Store(h.Seq)
	t.sink.Frame(p.id, f)
	needAck := h.Seq-max(p.lastAck, p.ackedOut.Load()) >= ackEvery
	if needAck {
		p.lastAck = h.Seq
	}
	p.recvMu.Unlock()
	if needAck {
		p.sendAck()
	}
	return true
}

// errBatchSevered aborts a batch walk after claimAndDeliver already
// severed the connection (the sever error, not this sentinel, is what
// surfaces).
var errBatchSevered = errors.New("wire: batch delivery severed")

// handleBatch unpacks a TypeBatch container: each sub-frame goes through
// the same Alloc / ack / in-order claim path as an individually framed
// message, so the MPI layer cannot tell batched and unbatched delivery
// apart. A structurally corrupt batch severs the connection with the
// typed *BatchError. Each sub-frame is decoded into and delivered
// through f, the reader's reused frame, so the walk itself allocates
// nothing.
func (p *tcpPeer) handleBatch(c net.Conn, payload []byte, f *Frame) bool {
	t := p.tr
	severed := false
	h := &f.Header
	_, err := DecodeBatch(payload, h, func(sub []byte) error {
		var body []byte
		var token any
		if len(sub) > 0 {
			if t.sink != nil && (h.Type == TypeEager || h.Type == TypeData || h.Type == TypeDataSeg) {
				body, token = t.sink.Alloc(p.id, h)
			}
			if len(body) != len(sub) {
				if token != nil {
					t.sink.Free(p.id, token)
					token = nil
				}
				body = make([]byte, len(sub))
			}
			copy(body, sub)
		}
		f.Payload, f.Token = body, token
		if !p.claimAndDeliver(c, f) {
			severed = true
			return errBatchSevered
		}
		return nil
	})
	if severed {
		return false
	}
	if err != nil {
		p.sever(c, err)
		return false
	}
	return true
}
