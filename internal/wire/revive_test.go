package wire

// revive_test.go — incarnation-based peer revival (a respawned process
// rejoining the world through the same transport) and the
// redial-vs-teardown race regression.

import (
	"net"
	"sync"
	"testing"
	"time"
)

// countingDialFault records every WireDial consultation with its wall
// time, letting tests assert that no dial fires after a given instant.
type countingDialFault struct {
	mu    sync.Mutex
	times []time.Time
}

func (f *countingDialFault) WireSend(peer int, t Type, bytes int) (bool, int) { return false, 0 }

func (f *countingDialFault) WireDial(peer int, attempt int) bool {
	f.mu.Lock()
	f.times = append(f.times, time.Now())
	f.mu.Unlock()
	return true
}

func (f *countingDialFault) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.times)
}

func (f *countingDialFault) lastAfter(t0 time.Time) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.times) > 0 && f.times[len(f.times)-1].After(t0)
}

// TestTCPNoRedialAfterClose: closing the transport while the dial loop
// is sleeping out its backoff must not fire another dial attempt.
// Regression: the closed check used to run only at the top of the loop,
// before the sleep, so a Close landing during the backoff raced teardown
// and dialed a world that no longer existed.
func TestTCPNoRedialAfterClose(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1's address refuses connections: listen then close.
	lnDead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lnDead.Addr().String()
	lnDead.Close()

	fd := &countingDialFault{}
	tr0, err := NewTCP(Config{
		Addrs:            []string{ln0.Addr().String(), deadAddr},
		Self:             0,
		Fault:            fd,
		ReconnectMax:     10,
		ReconnectBackoff: 300 * time.Millisecond,
		DialTimeout:      time.Second,
	}, ln0)
	if err != nil {
		t.Fatal(err)
	}
	tr0.Bind(newTestSink())
	defer tr0.Close()

	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Attempt 1 runs without backoff and fails fast (connection refused).
	waitFor(t, "first dial attempt", func() bool { return fd.count() >= 1 })
	// Give the loop a moment to enter the attempt-2 backoff sleep, then
	// close mid-sleep.
	time.Sleep(50 * time.Millisecond)
	closedAt := time.Now()
	tr0.Close()
	time.Sleep(700 * time.Millisecond) // two backoff periods
	if fd.lastAfter(closedAt) {
		t.Fatalf("dial attempt fired after Close (%d attempts total)", fd.count())
	}
}

// TestTCPIncarnationRevivesDownPeer: after a peer is declared down, a
// replacement process announcing a higher incarnation on the same
// address revives it — the stream resets and traffic flows both ways
// again.
func TestTCPIncarnationRevivesDownPeer(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}

	s0 := newTestSink()
	tr0, err := NewTCP(Config{
		Addrs: addrs, Self: 0, Incarnation: 1,
		ReconnectMax: 2, ReconnectBackoff: time.Millisecond,
	}, ln0)
	if err != nil {
		t.Fatal(err)
	}
	tr0.Bind(s0)
	defer tr0.Close()

	s1a := newTestSink()
	tr1a, err := NewTCP(Config{Addrs: addrs, Self: 1, Incarnation: 100}, ln1)
	if err != nil {
		t.Fatal(err)
	}
	tr1a.Bind(s1a)

	// Establish traffic with the first incarnation.
	if err := tr0.Send(1, &Header{Type: TypeEager, Tag: 1}, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame to first incarnation", func() bool { return s1a.count() == 1 })

	// Kill it; tr0's redials exhaust and declare the peer down.
	tr1a.Close()
	if err := tr0.Send(1, &Header{Type: TypeEager, Tag: 2}, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s0.downCh:
	case <-time.After(5 * time.Second):
		t.Fatal("PeerDown never fired")
	}
	var pd *PeerDownError
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("y")); err == nil || !asPeerDown(err, &pd) {
		t.Fatalf("send to down peer: %v, want PeerDownError", err)
	}

	// Respawn on the same address with a higher incarnation.
	ln1b, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addrs[1], err)
	}
	s1b := newTestSink()
	tr1b, err := NewTCP(Config{Addrs: addrs, Self: 1, Incarnation: 200}, ln1b)
	if err != nil {
		t.Fatal(err)
	}
	tr1b.Bind(s1b)
	defer tr1b.Close()

	// The respawned peer dials in: tr0 must revive it.
	if err := tr1b.Send(0, &Header{Type: TypeEager, Tag: 10}, []byte("hello-again")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame from respawned peer", func() bool { return s0.count() == 1 })
	if got := string(s0.frame(0).Payload); got != "hello-again" {
		t.Fatalf("payload %q", got)
	}

	// And tr0 can send to the new incarnation on a fresh sequence space.
	waitFor(t, "send to revived peer", func() bool {
		return tr0.Send(1, &Header{Type: TypeEager, Tag: 11}, []byte("resumed")) == nil
	})
	waitFor(t, "frame to respawned peer", func() bool { return s1b.count() >= 1 })
	if got := string(s1b.frame(0).Payload); got != "resumed" {
		t.Fatalf("payload %q", got)
	}
}

// TestTCPIncarnationRestartWhileConnected: a peer that restarts before
// the survivor notices (stale connection still installed, peer never
// declared down) still converges — the survivor resets its stream on the
// new incarnation's Hello instead of trimming or ghost-retransmitting
// into the fresh process, and new traffic flows both ways.
func TestTCPIncarnationRestartWhileConnected(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}

	s0 := newTestSink()
	tr0, err := NewTCP(Config{
		Addrs: addrs, Self: 0, Incarnation: 1,
		ReconnectMax: 50, ReconnectBackoff: time.Millisecond,
	}, ln0)
	if err != nil {
		t.Fatal(err)
	}
	tr0.Bind(s0)
	defer tr0.Close()

	s1a := newTestSink()
	tr1a, err := NewTCP(Config{Addrs: addrs, Self: 1, Incarnation: 100}, ln1)
	if err != nil {
		t.Fatal(err)
	}
	tr1a.Bind(s1a)

	if err := tr0.Send(1, &Header{Type: TypeEager, Tag: 1}, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame to first incarnation", func() bool { return s1a.count() == 1 })

	// Restart the peer immediately: tr0 keeps redialing (generous budget)
	// and meets incarnation 200 before ever declaring the peer down.
	tr1a.Close()
	ln1b, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addrs[1], err)
	}
	s1b := newTestSink()
	tr1b, err := NewTCP(Config{Addrs: addrs, Self: 1, Incarnation: 200}, ln1b)
	if err != nil {
		t.Fatal(err)
	}
	tr1b.Bind(s1b)
	defer tr1b.Close()

	// The new incarnation has its own queued traffic; tr0's stale resume
	// point (Ack from incarnation 100) must not trim it away.
	if err := tr1b.Send(0, &Header{Type: TypeEager, Tag: 20}, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frame from restarted peer", func() bool { return s0.count() >= 1 })
	if got := string(s0.frame(0).Payload); got != "fresh" {
		t.Fatalf("payload %q", got)
	}

	// New sends from the survivor land in the new incarnation.
	waitFor(t, "send to restarted peer", func() bool {
		return tr0.Send(1, &Header{Type: TypeEager, Tag: 21}, []byte("onward")) == nil
	})
	waitFor(t, "frame to restarted peer", func() bool { return s1b.count() >= 1 })
	if got := string(s1b.frame(0).Payload); got != "onward" {
		t.Fatalf("payload %q", got)
	}
}

// TestTCPIncarnationFirstContactKeepsQueuedSends: meeting a nonzero
// incarnation for the first time must NOT reset the stream — frames
// queued before the handshake are real traffic for that incarnation.
func TestTCPIncarnationFirstContactKeepsQueuedSends(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{Incarnation: 7}, Config{Incarnation: 9})
	for i := 0; i < 5; i++ {
		if err := tr0.Send(1, &Header{Type: TypeEager, Tag: int32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "queued frames", func() bool { return s1.count() == 5 })
	for i := 0; i < 5; i++ {
		if f := s1.frame(i); f.Tag != int32(i) {
			t.Fatalf("frame %d has tag %d", i, f.Tag)
		}
	}
}
