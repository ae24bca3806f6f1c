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

// TCP is the TCP implementation of Transport. Each peer link has three
// parts: a stream (stream.go) that owns reliability and knows nothing of
// sockets, the connection that carries it (conn.go: dial, accept, Hello,
// sever, down), and this file's framing: Send, batching, the encode
// pools and the reader loop.
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

// tcpPeer is one peer link: its stream, connection and pending batch.
// Two mutexes with a strict order (recvMu before sendMu, never the
// reverse): sendMu guards the connection, the writer, the batch and the
// stream's send half; recvMu guards the stream's receive half and
// serializes in-order claim + delivery, so a stale reader can never
// deliver around the current one.
type tcpPeer struct {
	id int
	tr *TCP
	s  stream

	sendMu  sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	wdl     time.Time // write deadline set on conn (zero: none yet)
	dialing bool
	down    bool
	downErr error
	// severCause is the error of the last sever, kept for markDown.
	severCause error
	// hadConn: a connection was installed before, so a redial backs
	// off first. handshook: the last installed connection received the
	// peer's Hello, so writes may use it while it is current, and
	// replacing it is a reconnect. A connection the dial tie-break
	// discards before any Hello arrives is not.
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

	recvMu   sync.Mutex
	ackTimer *time.Timer // fires ackFire ackDelay after it was armed
	clock    clockFilter // fed by the Hello and every pong
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
		p := &tcpPeer{id: i, tr: t, s: stream{inflight: &t.inflight}}
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
		p.closeConnLocked()
		p.sendMu.Unlock()
	}
	return err
}

// Stats snapshots the transport counters.
func (t *TCP) Stats() Stats {
	return Stats{
		FramesSent:     t.framesSent.Load(),
		FramesReceived: t.framesRecv.Load(),
		BytesSent:      t.bytesSent.Load(),
		BytesReceived:  t.bytesRecv.Load(),
		Reconnects:     t.reconnects.Load(),
		Inflight:       uint64(t.inflight.Load()),
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
	hh := *h
	buf := p.s.push(&hh, payload)
	if p.conn == nil || !p.handshook {
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
			p.flushBatchLocked()
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
	if !p.flushBatchLocked() {
		return nil
	}
	if err := p.writeLocked(buf, hh.Type, true); err != nil {
		p.severLocked(err)
		return nil
	}
	p.s.sent(hh.Ack)
	return nil
}

// Flush writes every peer's pending batch now.
func (t *TCP) Flush() {
	if t.batchPending.Load() == 0 {
		return
	}
	for _, p := range t.peers {
		p.flushBatch() // our own peer never holds a batch
	}
}

// Batching reports whether Send coalesces small frames.
func (t *TCP) Batching() bool { return t.cfg.BatchWindow > 0 }

// flushBatch writes the peer's pending batch, if any: the window-deadline
// callback, and Flush's per-peer step.
func (p *tcpPeer) flushBatch() {
	p.sendMu.Lock()
	p.flushBatchLocked()
	p.sendMu.Unlock()
}

// flushBatchLocked writes the pending sub-frames as one TypeBatch
// container, carrying the current cumulative ack. No connection means
// the pending copies are simply dropped: the sub-frames sit in the
// unacked ring and the resume handshake retransmits them individually.
// A failed write severs the connection; it reports false.
func (p *tcpPeer) flushBatchLocked() bool {
	n := p.batchFrames
	if n == 0 {
		return true
	}
	var err error
	if p.conn != nil && p.handshook {
		p.tr.batchesSent.Add(1)
		p.tr.batchedFrames.Add(uint64(n))
		err = p.writeFrameLocked(&Header{Type: TypeBatch, Ack: p.s.recvSeq.Load()}, p.batchBuf, true)
	}
	p.clearBatchLocked()
	if err != nil {
		p.severLocked(err)
		return false
	}
	return true
}

// writeFrameLocked encodes an unsequenced frame into a pooled buffer and
// writes it, noting the cumulative ack it carries.
func (p *tcpPeer) writeFrameLocked(h *Header, payload []byte, coalesce bool) error {
	enc := getEnc(encodedSize(h, len(payload)))
	*enc = AppendFrame(*enc, h, payload)
	err := p.writeLocked(*enc, h.Type, coalesce)
	putEnc(enc)
	if err == nil {
		p.s.sent(h.Ack)
	}
	return err
}

// writeCtlLocked writes an unsequenced control frame (Ack, Ping, Pong)
// with the current cumulative ack and a probe's send time, if a ready
// connection exists. A failure severs it; control frames are best-effort.
func (p *tcpPeer) writeCtlLocked(h *Header) {
	if p.conn == nil || !p.handshook {
		return
	}
	h.Ack = p.s.recvSeq.Load()
	switch h.Type {
	case TypePing:
		h.Xid = uint64(time.Now().UnixNano()) // t1
	case TypePong:
		h.SendTS = time.Now().UnixNano() // t3
	}
	if err := p.writeFrameLocked(h, nil, false); err != nil {
		p.severLocked(err)
	}
}

// sendCtl is writeCtlLocked under sendMu.
func (p *tcpPeer) sendCtl(h *Header) {
	p.sendMu.Lock()
	p.writeCtlLocked(h)
	p.sendMu.Unlock()
}

// clearBatchLocked drops the pending batch without writing it (the
// sub-frames stay in the unacked ring for retransmission).
func (p *tcpPeer) clearBatchLocked() {
	if p.batchFrames > 0 {
		p.tr.batchPending.Add(-1)
	}
	p.batchBuf, p.batchFrames = p.batchBuf[:0], 0
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

// maybeAck emits a standalone cumulative ack if received frames are
// still unacknowledged by both standalone and piggybacked acks.
func (p *tcpPeer) maybeAck() {
	p.recvMu.Lock()
	owed := p.s.ackOwed(1)
	p.recvMu.Unlock()
	if owed {
		p.sendCtl(&Header{Type: TypeAck})
	}
}

// ackFire runs ackDelay after the ack timer was armed, and re-arms it or
// sends what is owed as the stream decides.
func (p *tcpPeer) ackFire() {
	if rearm, quiet := p.s.ackFired(); rearm {
		p.ackTimer.Reset(ackDelay)
	} else if quiet {
		p.maybeAck()
	}
}

// stopAck disarms the quiescence ack. The flag is cleared after Stop,
// so an armAck racing with it cannot leave the flag set with no timer
// pending.
func (p *tcpPeer) stopAck() {
	p.ackTimer.Stop()
	p.s.ackArmed.Store(false)
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
			if h.Type == TypeBatch {
				if cap(batch) < plen {
					batch = make([]byte, plen)
				}
				payload = batch[:plen]
			} else {
				payload, token = p.allocPayload(h, plen)
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
		if h.Type == TypeHello {
			p.handleHello(c, h)
			continue
		}
		if h.Seq == 0 {
			// Unsequenced (Ack, Ping, Pong, Batch): take its cumulative
			// ack here; a sequenced frame's is taken with its claim.
			p.sendMu.Lock()
			p.s.trim(h.Ack)
			p.sendMu.Unlock()
		}
		switch h.Type {
		case TypeAck:
			continue
		case TypePing:
			// Clock probe: answer with our timestamps. The receive time
			// is captured here, before the reply queues.
			p.sendCtl(&Header{Type: TypePong, Xid: h.Xid, Ctx: time.Now().UnixNano()})
			continue
		case TypePong:
			p.handlePong(h)
			continue
		case TypeBatch:
			if !p.handleBatch(c, payload, &f) {
				return
			}
		default:
			f.Payload, f.Token = payload, token
			if !p.claimAndDeliver(c, &f) {
				return // connection severed on protocol error
			}
		}
		if br.Buffered() == 0 {
			p.quiesce()
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
	if p.s.armAck() {
		p.ackTimer.Reset(ackDelay)
	}
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
	p.s.trim(h.Ack)
	cur := p.conn
	p.sendMu.Unlock()
	deliver, err := false, error(nil)
	if cur == c {
		deliver, err = p.s.claim(h.Seq)
	}
	if !deliver {
		p.recvMu.Unlock()
		if token != nil {
			t.sink.Free(p.id, token)
		}
		if err != nil {
			p.sever(c, err)
			return false
		}
		return true
	}
	t.sink.Frame(p.id, f)
	owed := p.s.ackOwed(ackEvery)
	p.recvMu.Unlock()
	if owed {
		p.sendCtl(&Header{Type: TypeAck})
	}
	return true
}

// allocPayload returns the buffer an n-byte payload of h is read into:
// the sink's for eager and data frames, else a fresh one. The token is
// the sink's, or nil.
func (p *tcpPeer) allocPayload(h *Header, n int) ([]byte, any) {
	t := p.tr
	if t.sink != nil && (h.Type == TypeEager || h.Type == TypeData || h.Type == TypeDataSeg) {
		b, token := t.sink.Alloc(p.id, h)
		if len(b) == n {
			return b, token
		}
		if token != nil {
			t.sink.Free(p.id, token)
		}
	}
	return make([]byte, n), nil
}

// errBatchSevered aborts a batch walk after claimAndDeliver severed the
// connection.
var errBatchSevered = errors.New("wire: batch delivery severed")

// handleBatch unpacks a TypeBatch container: each sub-frame goes through
// the same Alloc / ack / in-order claim path as an individually framed
// message, so the MPI layer cannot tell batched and unbatched delivery
// apart. A structurally corrupt batch severs the connection with the
// typed *BatchError. Each sub-frame is decoded into and delivered
// through f, the reader's reused frame, so the walk itself allocates
// nothing.
func (p *tcpPeer) handleBatch(c net.Conn, payload []byte, f *Frame) bool {
	h := &f.Header
	_, err := DecodeBatch(payload, h, func(sub []byte) error {
		f.Payload, f.Token = nil, nil
		if len(sub) > 0 {
			f.Payload, f.Token = p.allocPayload(h, len(sub))
			copy(f.Payload, sub)
		}
		if !p.claimAndDeliver(c, f) {
			return errBatchSevered
		}
		return nil
	})
	if err != nil && err != errBatchSevered {
		p.sever(c, err)
	}
	return err == nil
}
