package wire

import (
	"sync"
	"time"
)

// ClockEstimate is a transport's estimate of one peer's wall clock,
// distilled from the NTP-style ping/pong probes and the Hello handshake.
// Offsets are "peer clock minus local clock": adding OffsetNs to a local
// timestamp rebases it onto the peer's clock.
type ClockEstimate struct {
	// OK reports that any sample exists; the other fields are zero
	// without one, except RTTNs.
	OK bool
	// OffsetNs is the offset of the minimum-RTT round trip, or of the
	// Hello's one-way sample until a round trip completes.
	OffsetNs int64
	// RTTNs is the minimum probe round trip, -1 until one completes.
	RTTNs int64
	// DriftPPB is the relative clock drift in parts per billion: the
	// offset change between the first and last round trip over the local
	// time between them. 0 until two round trips span driftMinSpan.
	DriftPPB int64
}

// driftMinSpan is the shortest span of round trips a drift is read
// from. Each offset is uncertain by up to RTT/2, so two round trips of a
// handshake's probe burst, microseconds apart, would read a drift of
// several percent from that noise alone.
const driftMinSpan = time.Second

// clockFilter keeps one peer's ClockEstimate. The minimum-RTT sample
// wins, the standard NTP filter: queueing delay inflates the RTT and
// the offset error is bounded by RTT/2, so the tightest round trip
// bounds the offset tightest. A one-way Hello sample (rtt < 0) has no
// such bound and is kept only until a real round trip arrives.
type clockFilter struct {
	mu       sync.Mutex
	ok       bool
	offsetNs int64
	rttNs    int64
	rounds   int       // round trips sampled
	first    time.Time // local time of the first round trip
	firstOff int64
	last     time.Time // local time of the latest round trip
	lastOff  int64
}

// sample records one probe result taken at local time at; rttNs < 0
// marks a one-way Hello sample. It returns the round trips sampled so
// far.
func (c *clockFilter) sample(at time.Time, offsetNs, rttNs int64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.ok:
		c.ok, c.offsetNs, c.rttNs = true, offsetNs, rttNs
	case rttNs >= 0 && (c.rttNs < 0 || rttNs <= c.rttNs):
		c.offsetNs, c.rttNs = offsetNs, rttNs
	}
	if rttNs < 0 {
		return c.rounds
	}
	c.rounds++
	if c.first.IsZero() {
		c.first, c.firstOff = at, offsetNs
	}
	c.last, c.lastOff = at, offsetNs
	return c.rounds
}

func (c *clockFilter) estimate() ClockEstimate {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ok {
		return ClockEstimate{RTTNs: -1}
	}
	e := ClockEstimate{OK: true, OffsetNs: c.offsetNs, RTTNs: c.rttNs}
	if elapsed := c.last.Sub(c.first); elapsed >= driftMinSpan {
		e.DriftPPB = (c.lastOff - c.firstOff) * 1e9 / elapsed.Nanoseconds()
	}
	return e
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

// pingLoop sends a clock probe to every ready peer once per
// PingInterval until the transport closes.
func (t *TCP) pingLoop() {
	for !t.closed.Load() {
		time.Sleep(t.cfg.PingInterval)
		if t.closed.Load() {
			return
		}
		for _, p := range t.peers {
			p.sendCtl(&Header{Type: TypePing}) // our own peer has no connection
		}
	}
}

// handlePong closes the NTP-style loop: with t1 (our probe send), t2
// (peer receive), t3 (peer reply send) and t4 (now), the peer clock
// offset is ((t2-t1)+(t3-t4))/2 and the RTT is (t4-t1)-(t3-t2).
func (p *tcpPeer) handlePong(h *Header) {
	now := time.Now()
	t1, t2, t3, t4 := int64(h.Xid), h.Ctx, h.SendTS, now.UnixNano()
	if t1 == 0 || t2 == 0 || t3 == 0 {
		return
	}
	offset := ((t2 - t1) + (t3 - t4)) / 2
	rtt := (t4 - t1) - (t3 - t2)
	if rtt < 0 {
		return // nonsense sample (clock stepped mid-flight)
	}
	if p.clock.sample(now, offset, rtt) < clockBurst {
		p.sendCtl(&Header{Type: TypePing})
	}
}
