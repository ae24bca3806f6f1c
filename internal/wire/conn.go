package wire

import (
	"bufio"
	"errors"
	"net"
	"time"
)

// installLocked makes conn the current connection (closing any old one).
// It counts a reconnect only when the last installed connection had
// completed its handshake: a simultaneous first dial from both ends
// installs twice on the higher node without any connection being lost.
func (p *tcpPeer) installLocked(conn net.Conn) {
	p.closeConnLocked()
	p.conn = conn
	p.bw = bufio.NewWriterSize(conn, 64<<10)
	p.wdl = time.Time{}
	if p.handshook {
		p.tr.reconnects.Add(1)
	}
	p.handshook = false
	p.hadConn = true
}

// closeConnLocked closes the current connection, if any; the unacked
// ring stays for the next one to retransmit.
func (p *tcpPeer) closeConnLocked() {
	if p.conn != nil {
		p.conn.Close()
		p.conn, p.bw = nil, nil
	}
}

// severLocked tears the current connection down (keeping the unacked
// ring for retransmission) and triggers a reconnect. err is kept as the
// sever cause: if the redials run out, markDown reports it.
func (p *tcpPeer) severLocked(err error) {
	p.severCause = err
	p.clearBatchLocked()
	p.closeConnLocked()
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

// markDown declares the peer permanently unreachable. The reported
// error joins the last sever cause (what tore the connection down) and
// err (why it could not be restored).
func (p *tcpPeer) markDown(err error) {
	p.sendMu.Lock()
	if p.down {
		p.sendMu.Unlock()
		return
	}
	err = errors.Join(p.severCause, err)
	p.down, p.downErr, p.dialing = true, err, false
	p.clearBatchLocked()
	p.stopAck()
	p.closeConnLocked()
	p.s.drop()
	p.sendMu.Unlock()
	if !p.tr.closed.Load() {
		p.tr.sink.PeerDown(p.id, &PeerDownError{Peer: p.id, Last: err})
	}
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
	bumped := p.noteHelloLocked(&h)
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
	// Complete the handshake from their resume point, then read.
	p.handleHello(conn, &h)
	p.runReader(conn, br)
}

// hello is the Hello header this transport announces itself with: our
// node id, the world key, our process incarnation in Seq (sequence
// numbering starts after the handshake, so the field is free here) and
// our wall clock in Ctx, a crude one-way clock sample. Like every frame
// it carries our Version, which the peer demands be equal to its own.
func (t *TCP) hello() Header {
	return Header{
		Type:     TypeHello,
		Xid:      t.cfg.WorldKey,
		SrcWorld: int32(t.cfg.Self),
		Seq:      t.cfg.Incarnation,
		Ctx:      time.Now().UnixNano(),
	}
}

// writeHelloLocked sends our Hello with our resume point (the highest
// in-order seq received from the peer) in Ack.
func (p *tcpPeer) writeHelloLocked() error {
	h := p.tr.hello()
	h.Ack = p.s.recvSeq.Load()
	return p.writeFrameLocked(&h, nil, false)
}

// noteHelloLocked feeds the incarnation of the peer's Hello to the
// stream. When the stream resets, the pending batch and the ack timer go
// with it, and a peer declared down is revived. Caller holds recvMu and
// sendMu. It reports whether the stream was reset.
func (p *tcpPeer) noteHelloLocked(h *Header) bool {
	if !p.s.noteHello(h.Seq, p.down) {
		return false
	}
	p.clearBatchLocked()
	p.stopAck()
	p.down, p.downErr = false, nil
	return true
}

// handleHello processes the peer's Hello on connection c: note the
// peer's incarnation (resetting the stream if it restarted), acknowledge
// through the peer's resume point, retransmit the unacked tail, and open
// the connection for new writes. The Hello's version already matched
// ours, or readHeader would have refused it.
func (p *tcpPeer) handleHello(c net.Conn, h *Header) {
	now := time.Now()
	p.recvMu.Lock()
	defer p.recvMu.Unlock()
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.conn != c {
		return // stale connection
	}
	// The peer's Hello on our current connection completes the exchange:
	// from here on, losing c is a real loss. Writes may use c once the
	// retransmission below is out (sendMu is held until then).
	p.handshook = true
	p.noteHelloLocked(h)
	if h.Ctx != 0 {
		// One-way Hello sample: offset only, no RTT bound (rtt = -1).
		// Taken before the connection opens, so the estimate exists by
		// the time any frame crosses it.
		p.clock.sample(now, h.Ctx-now.UnixNano(), -1)
	}
	p.s.trim(h.Ack)
	for _, b := range p.s.unacked {
		if err := p.writeLocked(*b, TypeEager, false); err != nil {
			p.severLocked(err)
			return
		}
	}
	if err := p.bw.Flush(); err != nil {
		p.severLocked(err)
		return
	}
	if p.tr.cfg.PingInterval > 0 {
		p.writeCtlLocked(&Header{Type: TypePing}) // immediate probe: short runs get a real RTT
	}
}
