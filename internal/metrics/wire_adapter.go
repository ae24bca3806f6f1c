package metrics

import (
	"strconv"

	"hls/internal/wire"
)

// WireAdapter exports the inter-node transport's traffic — frames and
// bytes by direction, reconnects after connection loss, the
// sent-but-unacknowledged frame backlog, Batch containers and the
// frames they carried — and its clock-probe results: per-peer gauges of
// the minimum probe round trip and the clock offset it measured.
//
// Every series is pulled, like MPIAdapter's: a CounterFunc/GaugeFunc
// summing, over the transports it watches, wire.Transport.Stats for the
// traffic and wire.Transport.Clock for the clock gauges, so the
// transport keeps each count and estimate once and an unwatched one
// pays nothing. Use it as
//
//	a := metrics.NewWireAdapter(reg, len(addrs))
//	tr, _ := wire.NewTCP(cfg, ln)
//	defer a.Watch(tr)() // stops after tr is closed
//
// Constructed over a nil registry it registers nothing.
type WireAdapter struct {
	*pull[wire.Transport, wireReading]
}

// wireReading is what one watched transport contributes to a scrape:
// its counters, and the transport itself for the per-peer clock gauges.
type wireReading struct {
	wire.Stats
	tr wire.Transport
}

// wireFamilies maps each exported traffic series to its Stats source.
var wireFamilies = []statFamily[wireReading]{
	{name: "wire_frames_total", help: "transport frames by direction", label: []Label{L("dir", "sent")},
		value: func(s *wireReading) int64 { return int64(s.FramesSent) }},
	{name: "wire_frames_total", help: "transport frames by direction", label: []Label{L("dir", "received")},
		value: func(s *wireReading) int64 { return int64(s.FramesReceived) }},
	{name: "wire_bytes_total", help: "transport bytes (headers + payload) by direction", label: []Label{L("dir", "sent")},
		value: func(s *wireReading) int64 { return int64(s.BytesSent) }},
	{name: "wire_bytes_total", help: "transport bytes (headers + payload) by direction", label: []Label{L("dir", "received")},
		value: func(s *wireReading) int64 { return int64(s.BytesReceived) }},
	{name: "wire_reconnects_total", help: "connections re-established after loss",
		value: func(s *wireReading) int64 { return int64(s.Reconnects) }},
	{name: "wire_inflight_frames", help: "frames sent but not yet acknowledged", gauge: true,
		value: func(s *wireReading) int64 { return int64(s.Inflight) }},
	{name: "wire_batch_frames_total", help: "Batch container frames written",
		value: func(s *wireReading) int64 { return int64(s.BatchesSent) }},
	{name: "wire_batch_messages_total", help: "sequenced frames coalesced into Batch containers (mean fill = batch_messages/batch_frames)",
		value: func(s *wireReading) int64 { return int64(s.BatchedFrames) }},
}

// NewWireAdapter creates the adapter and registers its metric families,
// with one clock-offset and one RTT series per peer node. peers is the
// node count (wire.Transport.Peers()). Passing a nil registry yields an
// adapter that exports nothing.
func NewWireAdapter(r *Registry, peers int) *WireAdapter {
	fams := append([]statFamily[wireReading](nil), wireFamilies...)
	for p := 0; p < max(peers, 1); p++ {
		peer := []Label{L("peer", strconv.Itoa(p))}
		fams = append(fams,
			statFamily[wireReading]{name: "wire_clock_offset_ns", help: "estimated peer clock minus local clock, from the minimum-RTT probe, ns", label: peer, gauge: true,
				value: func(s *wireReading) int64 { return s.tr.Clock(p).OffsetNs }},
			statFamily[wireReading]{name: "wire_rtt_ns", help: "minimum clock-probe round trip to the peer node, ns (0 until a probe completes)", label: peer, gauge: true,
				value: func(s *wireReading) int64 { return max(s.tr.Clock(p).RTTNs, 0) }})
	}
	read := func(tr wire.Transport) wireReading { return wireReading{Stats: tr.Stats(), tr: tr} }
	return &WireAdapter{pull: newPull(r, fams, read)}
}
