package metrics

import (
	"strconv"

	"hls/internal/wire"
)

// WireAdapter implements wire.Observer and wire.ClockObserver, exporting
// the inter-node transport's traffic — frames and bytes by direction and
// peer node, reconnects after connection loss, the
// sent-but-unacknowledged frame backlog — and the clock-probe results:
// a wire_rtt_ns round-trip histogram and a per-peer clock-offset gauge.
// The shard index is the peer node, so PerShard breaks every family down
// by remote end as well. Install it with
//
//	wire.Config{Observer: a, Clock: a}
//
// Unlike the other adapters this one names the wire package directly:
// its method signatures carry wire.Type, so a structural match would
// need the import anyway, and wire is a leaf package (stdlib only).
// Constructed over a nil registry every method is a cheap no-op.
type WireAdapter struct {
	// framesSent[peer] etc. are pre-registered per-peer series, so the
	// per-frame path is an index plus a sharded counter bump — no label
	// formatting or map lookups per event.
	framesSent []*Counter
	framesRecv []*Counter
	bytesSent  []*Counter
	bytesRecv  []*Counter
	reconnects *Counter
	inflight   *Gauge

	batchFrames   *Counter
	batchMessages *Counter
	batchFill     *Histogram

	rtt         *Histogram
	clockOffset []*Gauge
}

// NewWireAdapter creates the adapter and registers its metric families,
// one series per (direction, peer node) for the traffic counters. peers
// is the node count (wire.Transport.Peers()); peer ids at or above it
// fall back to series 0. Passing a nil registry yields a disabled
// adapter.
func NewWireAdapter(r *Registry, peers int) *WireAdapter {
	if peers < 1 {
		peers = 1
	}
	a := &WireAdapter{
		framesSent:  make([]*Counter, peers),
		framesRecv:  make([]*Counter, peers),
		bytesSent:   make([]*Counter, peers),
		bytesRecv:   make([]*Counter, peers),
		clockOffset: make([]*Gauge, peers),
		reconnects:  r.Counter("wire_reconnects_total", "connections re-established after loss, by peer node"),
		inflight:    r.Gauge("wire_inflight_frames", "frames sent but not yet acknowledged"),
		rtt:         r.Histogram("wire_rtt_ns", "clock-probe round-trip time to peer nodes, ns"),

		batchFrames:   r.Counter("wire_batch_frames_total", "Batch container frames written, by peer node"),
		batchMessages: r.Counter("wire_batch_messages_total", "sequenced frames coalesced into Batch containers, by peer node"),
		batchFill:     r.Histogram("wire_batch_fill", "sub-frames per Batch container (mean fill = batch_messages/batch_frames)"),
	}
	for p := 0; p < peers; p++ {
		peer := L("peer", strconv.Itoa(p))
		a.framesSent[p] = r.Counter("wire_frames_total", "transport frames by direction and peer node", L("dir", "sent"), peer)
		a.framesRecv[p] = r.Counter("wire_frames_total", "transport frames by direction and peer node", L("dir", "received"), peer)
		a.bytesSent[p] = r.Counter("wire_bytes_total", "transport bytes (headers + payload) by direction and peer node", L("dir", "sent"), peer)
		a.bytesRecv[p] = r.Counter("wire_bytes_total", "transport bytes (headers + payload) by direction and peer node", L("dir", "received"), peer)
		a.clockOffset[p] = r.Gauge("wire_clock_offset_ns", "estimated peer clock minus local clock, ns", peer)
	}
	return a
}

func (a *WireAdapter) series(s []*Counter, peer int) *Counter {
	if peer < 0 || peer >= len(s) {
		peer = 0
	}
	return s[peer]
}

// FrameSent implements wire.Observer.
func (a *WireAdapter) FrameSent(peer int, t wire.Type, bytes int) {
	a.series(a.framesSent, peer).Inc(peer)
	a.series(a.bytesSent, peer).Add(peer, int64(bytes))
}

// FrameReceived implements wire.Observer.
func (a *WireAdapter) FrameReceived(peer int, t wire.Type, bytes int) {
	a.series(a.framesRecv, peer).Inc(peer)
	a.series(a.bytesRecv, peer).Add(peer, int64(bytes))
}

// Reconnect implements wire.Observer.
func (a *WireAdapter) Reconnect(peer int) { a.reconnects.Inc(peer) }

// InflightChanged implements wire.Observer. The delta carries no peer
// attribution (acks trim a shared ring), so the gauge is single-shard.
func (a *WireAdapter) InflightChanged(delta int) { a.inflight.Add(0, int64(delta)) }

// BatchFlushed implements wire.BatchObserver: one Batch container
// carrying frames sub-frames went out to peer. The container itself is
// also reported through FrameSent; these series isolate the coalescing
// so wire_batch_messages_total/wire_batch_frames_total is the mean fill.
func (a *WireAdapter) BatchFlushed(peer int, frames, bytes int) {
	a.batchFrames.Inc(peer)
	a.batchMessages.Add(peer, int64(frames))
	a.batchFill.Observe(peer, int64(frames))
}

// ClockSample implements wire.ClockObserver: round trips feed the RTT
// histogram (sharded by peer), and every sample updates the peer's
// offset gauge. One-way Hello samples (rtt < 0) update only the offset.
func (a *WireAdapter) ClockSample(peer int, offsetNs, rttNs int64) {
	if rttNs >= 0 {
		a.rtt.Observe(peer, rttNs)
	}
	if peer >= 0 && peer < len(a.clockOffset) {
		a.clockOffset[peer].Set(offsetNs)
	}
}
