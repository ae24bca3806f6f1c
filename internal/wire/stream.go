package wire

import (
	"fmt"
	"sync/atomic"
)

// stream is the reliable, ordered part of one peer link: sequence
// numbers and cumulative acks both ways, the unacked ring, the peer's
// incarnation, and every decision taken on them. It holds no connection
// and starts no goroutine; tcpPeer drives it from Send, its reader and
// its ack timer.
//
// Locking is the owner's: sendMu guards the send half, recvMu the
// receive half, and recvMu is taken first. The atomics are also read
// without a lock: recvSeq by the send half (every frame piggybacks it),
// ackedOut by the receive half, ackArmed and ackSeq by the ack timer.
type stream struct {
	// Send half (sendMu).
	sendSeq  uint64        // last sequence number assigned
	unacked  []*[]byte     // frames sendSeq-len+1 .. sendSeq, not yet acked
	inflight *atomic.Int64 // the transport's unacked frame count, all peers
	ackedOut atomic.Uint64 // highest ack written on the connection

	// Receive half (recvMu).
	recvSeq atomic.Uint64 // highest in-order seq delivered
	lastAck uint64        // recvSeq when a standalone ack was last owed

	// inc is the highest incarnation the peer announced (0 = none);
	// guarded by recvMu and sendMu both.
	inc uint64

	// Ack timer state: ackArmed is set while the timer is pending, and
	// ackSeq holds recvSeq from when it was armed.
	ackArmed atomic.Bool
	ackSeq   atomic.Uint64
	// firing, when set, runs in ackFired between clearing ackArmed and
	// reading recvSeq (tests place a claim there).
	firing func()
}

// push stamps h with the next sequence number and the current cumulative
// ack, encodes it with payload into a pooled buffer, and keeps that in
// the unacked ring until the peer acks it (a reconnect retransmits from
// the ring). It returns the encoded frame. Caller holds sendMu.
func (s *stream) push(h *Header, payload []byte) []byte {
	s.sendSeq++
	h.Seq = s.sendSeq
	h.Ack = s.recvSeq.Load()
	enc := getEnc(encodedSize(h, len(payload)))
	*enc = AppendFrame(*enc, h, payload)
	s.unacked = append(s.unacked, enc)
	s.inflight.Add(1)
	return *enc
}

// sent records that a frame carrying cumulative ack a was written, so a
// standalone ack through a would be redundant. Caller holds sendMu.
func (s *stream) sent(a uint64) {
	if a > s.ackedOut.Load() {
		s.ackedOut.Store(a)
	}
}

// trim frees the unacked frames that the peer's cumulative ack a covers.
// Caller holds sendMu.
func (s *stream) trim(a uint64) {
	if a > s.sendSeq {
		// A peer cannot legitimately ack beyond what we have sent: this
		// is a stale resume point from a Hello addressed to an earlier
		// incarnation of this process. Honoring it would trim frames
		// queued but never delivered.
		return
	}
	n := len(s.unacked) - int(s.sendSeq-a) // the frames through a
	if n <= 0 {
		return
	}
	for _, b := range s.unacked[:n] {
		putEnc(b)
	}
	rest := copy(s.unacked, s.unacked[n:])
	clear(s.unacked[rest:])
	s.unacked = s.unacked[:rest]
	s.inflight.Add(int64(-n))
}

// drop frees the whole unacked ring. Caller holds sendMu.
func (s *stream) drop() {
	for _, b := range s.unacked {
		putEnc(b)
	}
	s.inflight.Add(int64(-len(s.unacked)))
	s.unacked = nil
}

// claim takes received frame seq in order: deliver when it is the next
// one (recvSeq now counts it), neither for a duplicate (retransmission
// overlap), and err for a gap, which only a resume handshake closes.
// Caller holds recvMu.
func (s *stream) claim(seq uint64) (deliver bool, err error) {
	cur := s.recvSeq.Load()
	switch {
	case seq <= cur:
		return false, nil
	case seq != cur+1:
		return false, fmt.Errorf("wire: sequence gap: got %d, expected %d", seq, cur+1)
	}
	s.recvSeq.Store(seq)
	return true, nil
}

// ackOwed reports whether n or more delivered frames are covered by
// neither a standalone nor a piggybacked ack, and if so records that a
// standalone ack now goes out: n = ackEvery after each delivery, 1 for
// the quiescence ack. Caller holds recvMu.
func (s *stream) ackOwed(n uint64) bool {
	cur := s.recvSeq.Load()
	if cur < max(s.lastAck, s.ackedOut.Load())+n {
		return false
	}
	s.lastAck = cur
	return true
}

// armAck arms the quiescence ack unless it is already armed, and reports
// whether the caller must start the timer. A frame sent back within
// ackDelay carries the ack, so only a stream that stays quiet gets a
// standalone one; a stream that keeps flowing keeps the timer armed
// without touching it per frame.
func (s *stream) armAck() bool {
	if !s.ackArmed.CompareAndSwap(false, true) {
		return false
	}
	s.ackSeq.Store(s.recvSeq.Load())
	return true
}

// ackFired is the ack timer's decision when it fires. If frames were
// delivered since it was armed, the stream was not quiet for ackDelay:
// rearm reports that the caller must start the timer again (unless a
// delivery already re-armed it). Otherwise quiet reports that an owed ack
// goes out now. ackArmed is cleared before recvSeq is read, so a frame
// claimed after that read finds the timer disarmed and arms it again: no
// ack is lost to the race.
func (s *stream) ackFired() (rearm, quiet bool) {
	s.ackArmed.Store(false)
	if s.firing != nil {
		s.firing()
	}
	cur := s.recvSeq.Load()
	if cur == s.ackSeq.Load() {
		return false, true
	}
	if !s.ackArmed.CompareAndSwap(false, true) {
		return false, false
	}
	s.ackSeq.Store(cur)
	return true, false
}

// noteHello records incarnation inc from the peer's Hello (0: none, never
// a reset) and reports whether the stream was reset: inc advanced past
// one already met, or past a peer declared down, so the old sequence
// space belongs to a dead process. Its queued frames are dropped; across
// a respawn the application's recovery owns redelivery. First contact
// with a live peer keeps Sends queued before the handshake: they are
// traffic for exactly this incarnation. Caller holds recvMu and sendMu.
func (s *stream) noteHello(inc uint64, down bool) (reset bool) {
	if inc == 0 || inc <= s.inc {
		return false
	}
	reset = s.inc != 0 || down
	if reset {
		s.reset()
	}
	s.inc = inc
	return reset
}

// reset discards the sequence space of both directions: the unacked
// frames are freed, and the sequence numbers and ack watermarks return
// to zero. Caller holds recvMu and sendMu.
func (s *stream) reset() {
	s.sendSeq = 0
	s.drop()
	s.recvSeq.Store(0)
	s.lastAck = 0
	s.ackedOut.Store(0)
}
