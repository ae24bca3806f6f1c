package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"
)

// Sink consumes frames a Transport received. The runtime (internal/mpi)
// implements it; calls arrive on transport progress goroutines, never on
// task goroutines.
type Sink interface {
	// Alloc supplies the buffer an incoming payload is read into, so the
	// transport can read off the socket directly into a pooled eager
	// buffer or a posted receive buffer (zero intermediate copy). It
	// returns the buffer (len == h.PayloadLen) and an opaque token handed
	// back in Frame.Token. Returning a nil buffer tells the transport to
	// use internal scratch space.
	Alloc(peer int, h *Header) ([]byte, any)
	// Frame delivers one decoded frame from peer. The payload buffer is
	// owned by the sink after the call; f is valid only for the duration
	// of the call.
	Frame(peer int, f *Frame)
	// Free returns an Alloc'd buffer whose frame was dropped by the
	// transport (duplicate after retransmission, stale connection)
	// without being delivered.
	Free(peer int, token any)
	// PeerDown reports that the connection to peer is permanently lost
	// (reconnect attempts exhausted or the transport closed it after a
	// protocol violation). err describes the last failure.
	PeerDown(peer int, err error)
}

// Transport moves frames between this node and its peers. Implementations
// must be safe for concurrent Send calls from many goroutines.
type Transport interface {
	// Self returns this node's id (index into the address list).
	Self() int
	// Peers returns the total node count (self included).
	Peers() int
	// Bind installs the sink and starts accepting/delivering frames.
	// Must be called exactly once before Send.
	Bind(s Sink)
	// Send queues frame f for delivery to peer, dialing lazily if no
	// connection exists. Send copies the header and payload before it
	// writes any byte of the frame, so the caller may reuse both once
	// Send returns, and the header even earlier: as soon as the peer may
	// have answered the frame. Send returns an error only if the peer is
	// permanently down or the transport is closed; transient connection
	// failures are absorbed by the reliability layer.
	Send(peer int, h *Header, payload []byte) error
	// Flush writes every pending batch now instead of at the end of its
	// window. The runtime calls it once every local task is blocked, the
	// moment no batch can grow any further; with nothing pending it
	// costs one atomic load.
	Flush()
	// Batching reports whether Send may hold frames back until a Flush,
	// a batch cap, or the batch window.
	Batching() bool
	// Close shuts the transport down: the listener stops, connections
	// close, and pending sends are abandoned.
	Close() error
	// Stats snapshots transport counters.
	Stats() Stats
	// Clock returns the transport's current estimate of peer's clock.
	Clock(peer int) ClockEstimate
}

// Stats are cumulative transport counters, and the transport's only
// counter store: internal/metrics reads them (metrics.WireAdapter.Watch)
// rather than being told of each frame.
type Stats struct {
	FramesSent     uint64
	FramesReceived uint64
	BytesSent      uint64
	BytesReceived  uint64
	Reconnects     uint64
	// Inflight is the number of sent-but-unacked frames at snapshot time.
	Inflight uint64
	// BatchesSent counts Batch container frames written; each is
	// included once in FramesSent. BatchedFrames counts the sequenced
	// sub-frames they carried, so BatchedFrames/BatchesSent is the mean
	// batch fill.
	BatchesSent   uint64
	BatchedFrames uint64
}

// FaultInjector lets internal/chaos perturb the transport
// deterministically. All hooks may be called concurrently.
type FaultInjector interface {
	// WireSend is consulted before writing a sequenced frame. dropConn
	// severs the current connection (the reliability layer recovers);
	// truncate > 0 writes only that many bytes of the encoded frame
	// before severing (a partial frame the peer must survive).
	WireSend(peer int, t Type, bytes int) (dropConn bool, truncate int)
	// WireDial is consulted before a dial attempt; returning false fails
	// the attempt (reconnect-storm pressure).
	WireDial(peer int, attempt int) bool
}

// Config configures the TCP transport.
type Config struct {
	// Addrs lists one listen address per node, in node-id order.
	Addrs []string
	// Self is this node's index into Addrs.
	Self int
	// WorldKey must match across all nodes of a world; it guards against
	// cross-talk between unrelated jobs sharing a host list.
	WorldKey uint64
	// Incarnation identifies this process's lifetime, carried in the
	// Hello handshake. A respawned replacement process must use a higher
	// value than its predecessor (hlsworker uses the start wall clock);
	// peers that see a higher incarnation than they knew discard the old
	// sequence space and — if the peer had been declared down — revive
	// it: Send to that peer works again, and the sink simply starts
	// receiving its frames. 0 (the default) marks an incarnation-unaware
	// process: never reset, never revived.
	Incarnation uint64

	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write (default 10s). A stuck write
	// severs the connection between WriteTimeout and 2*WriteTimeout
	// after it began; reliability retransmits on the next one. (The
	// deadline runs 2*WriteTimeout ahead and is moved only when less
	// than WriteTimeout remains, not on every frame.)
	WriteTimeout time.Duration
	// ReadIdleTimeout bounds silence on a connection (default 0 = none).
	// On expiry the connection is severed and redialed.
	ReadIdleTimeout time.Duration
	// ReconnectMax caps reconnect attempts per outage before the peer is
	// declared down (default 5).
	ReconnectMax int
	// ReconnectBackoff is the initial backoff between attempts, doubled
	// each attempt and capped at 32x (default 50ms).
	ReconnectBackoff time.Duration

	// PingInterval is the period of the unsequenced ping/pong clock
	// probes sent on every ready connection (default 0 = disabled; the
	// Clock estimate then holds only the Hello's one-way sample). An
	// immediate probe also fires when a connection completes its
	// handshake, so a short-lived world still gets real RTT samples.
	PingInterval time.Duration

	// BatchWindow enables frame batching when > 0: small eager frames to
	// a peer are coalesced into one Batch container. A batch is flushed
	// by Flush — which the runtime calls as soon as every local task is
	// blocked — when it holds 16 KiB or 64 sub-frames, before any frame
	// that cannot join it (eager frames over 1 KiB encoded, rendezvous and
	// control frames, so per-peer ordering is preserved), and at the
	// latest when the window expires. The window is a cap on the latency
	// batching may add, not the trigger.
	BatchWindow time.Duration

	Fault FaultInjector
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.DialTimeout <= 0 {
		out.DialTimeout = 2 * time.Second
	}
	if out.WriteTimeout <= 0 {
		out.WriteTimeout = 10 * time.Second
	}
	if out.ReconnectMax <= 0 {
		out.ReconnectMax = 5
	}
	if out.ReconnectBackoff <= 0 {
		out.ReconnectBackoff = 50 * time.Millisecond
	}
	return out
}

// Validate checks the config for obvious misconfiguration.
func (c *Config) Validate() error {
	if len(c.Addrs) < 2 {
		return fmt.Errorf("wire: need at least 2 addresses, have %d", len(c.Addrs))
	}
	if c.Self < 0 || c.Self >= len(c.Addrs) {
		return fmt.Errorf("wire: self %d out of range [0,%d)", c.Self, len(c.Addrs))
	}
	for i, a := range c.Addrs {
		if a == "" {
			return fmt.Errorf("wire: empty address for node %d", i)
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return fmt.Errorf("wire: address %q for node %d: %v", a, i, err)
		}
	}
	return nil
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("wire: transport closed")

// PeerDownError is returned by Send for a peer declared permanently down,
// and passed to Sink.PeerDown.
type PeerDownError struct {
	Peer int
	Last error
}

func (e *PeerDownError) Error() string {
	return fmt.Sprintf("wire: peer %d down: %v", e.Peer, e.Last)
}

// Unwrap exposes the last failure, so errors.As can tell a peer running
// another protocol version (*VersionError) from an unreachable one.
func (e *PeerDownError) Unwrap() error { return e.Last }

// ParseHosts splits a comma-separated host list ("addr0,addr1,...") into
// an address slice, trimming whitespace. It is the bootstrap format of
// HLS_WIRE_HOSTS and hlsworker -hosts.
func ParseHosts(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	addrs := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		addrs = append(addrs, p)
	}
	if len(addrs) < 2 {
		return nil, fmt.Errorf("wire: host list %q has %d entries, need >= 2", list, len(addrs))
	}
	return addrs, nil
}
