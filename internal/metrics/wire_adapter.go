package metrics

import (
	"strconv"

	"hls/internal/wire"
)

// WireAdapter exports the inter-node transport's traffic — frames and
// bytes by direction, reconnects after connection loss, the
// sent-but-unacknowledged frame backlog, Batch containers and the
// frames they carried — and the clock-probe results: a wire_rtt_ns
// round-trip histogram and a per-peer clock-offset gauge.
//
// The traffic series are pulled, like MPIAdapter's: each is a
// CounterFunc/GaugeFunc summing wire.Transport.Stats over the
// transports it watches, so the transport counts every frame once and
// an unwatched one pays nothing. Clock samples have no counter store in
// the transport, so they are pushed through wire.ClockObserver. Use it
// as
//
//	a := metrics.NewWireAdapter(reg, len(addrs))
//	tr, _ := wire.NewTCP(wire.Config{..., Clock: a}, ln)
//	defer a.Watch(tr)() // stops after tr is closed
//
// Constructed over a nil registry it registers nothing.
type WireAdapter struct {
	*pull[wire.Transport, wire.Stats]

	rtt         *Histogram
	clockOffset []*Gauge
}

// wireFamilies maps each exported traffic series to its Stats source.
var wireFamilies = []statFamily[wire.Stats]{
	{name: "wire_frames_total", help: "transport frames by direction", label: []Label{L("dir", "sent")},
		value: func(s *wire.Stats) int64 { return int64(s.FramesSent) }},
	{name: "wire_frames_total", help: "transport frames by direction", label: []Label{L("dir", "received")},
		value: func(s *wire.Stats) int64 { return int64(s.FramesReceived) }},
	{name: "wire_bytes_total", help: "transport bytes (headers + payload) by direction", label: []Label{L("dir", "sent")},
		value: func(s *wire.Stats) int64 { return int64(s.BytesSent) }},
	{name: "wire_bytes_total", help: "transport bytes (headers + payload) by direction", label: []Label{L("dir", "received")},
		value: func(s *wire.Stats) int64 { return int64(s.BytesReceived) }},
	{name: "wire_reconnects_total", help: "connections re-established after loss",
		value: func(s *wire.Stats) int64 { return int64(s.Reconnects) }},
	{name: "wire_inflight_frames", help: "frames sent but not yet acknowledged", gauge: true,
		value: func(s *wire.Stats) int64 { return int64(s.Inflight) }},
	{name: "wire_batch_frames_total", help: "Batch container frames written",
		value: func(s *wire.Stats) int64 { return int64(s.BatchesSent) }},
	{name: "wire_batch_messages_total", help: "sequenced frames coalesced into Batch containers (mean fill = batch_messages/batch_frames)",
		value: func(s *wire.Stats) int64 { return int64(s.BatchedFrames) }},
}

// NewWireAdapter creates the adapter and registers its metric families,
// with one clock-offset series per peer node. peers is the node count
// (wire.Transport.Peers()); clock samples from peer ids outside it are
// ignored by the offset gauge. Passing a nil registry yields an adapter
// that exports nothing.
func NewWireAdapter(r *Registry, peers int) *WireAdapter {
	a := &WireAdapter{
		pull:        newPull(r, wireFamilies, wire.Transport.Stats),
		rtt:         r.Histogram("wire_rtt_ns", "clock-probe round-trip time to peer nodes, ns"),
		clockOffset: make([]*Gauge, max(peers, 1)),
	}
	for p := range a.clockOffset {
		a.clockOffset[p] = r.Gauge("wire_clock_offset_ns", "estimated peer clock minus local clock, ns", L("peer", strconv.Itoa(p)))
	}
	return a
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
