package wire

// ack_test.go — the ack policy: cumulative acks ride on reverse traffic,
// a standalone Ack goes out only after ackDelay of quiescence or every
// ackEvery frames of one-way traffic.

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// framesSent is the frames both ends of a pair have written. Past the
// handshake, with pings off, every frame a test does not send itself is
// a standalone Ack, so a delta minus the test's data frames counts Acks.
func framesSent(tr0, tr1 *TCP) int {
	return int(tr0.Stats().FramesSent + tr1.Stats().FramesSent)
}

// sigSink is a testSink that signals each delivered frame, so a test can
// wait for one without polling. Frame blocks on delivery number hold
// (counted from 1; 0 = never) until release is closed.
type sigSink struct {
	*testSink
	got     chan struct{} // sized above the frames a test leaves unread, so Frame never blocks on it
	hold    int
	release chan struct{}
}

func newSigSink() *sigSink {
	return &sigSink{testSink: newTestSink(), got: make(chan struct{}, 256), release: make(chan struct{})}
}

func (s *sigSink) Frame(peer int, f *Frame) {
	s.testSink.Frame(peer, f)
	s.got <- struct{}{}
	if s.hold > 0 && s.count() == s.hold {
		<-s.release
	}
}

func (s *sigSink) wait(t *testing.T) {
	t.Helper()
	select {
	case <-s.got:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for a frame")
	}
}

// sendLog times a test's sends, all made from the test's goroutine. In
// the lockstep exchanges below, the ack for the k-th frame rides on a
// frame sent by the end of send k+3 at the latest, and its quiescence
// timer was armed no earlier than send k began. A standalone ack is
// therefore legitimate only if that span reached ackDelay.
type sendLog struct{ start, end []time.Time }

func (l *sendLog) send(t *testing.T, tr *TCP, peer int, payload []byte) {
	t.Helper()
	l.start = append(l.start, time.Now())
	if err := tr.Send(peer, &Header{Type: TypeEager}, payload); err != nil {
		t.Fatal(err)
	}
	l.end = append(l.end, time.Now())
}

// stalled reports whether some frame's span reached ackDelay; read is
// when the test read its counters.
func (l *sendLog) stalled(read time.Time) bool {
	for k, s := range l.start {
		until := read
		if k+3 < len(l.end) {
			until = l.end[k+3]
		}
		if until.Sub(s) >= ackDelay {
			return true
		}
	}
	return false
}

// unstalled calls run with a fresh sendLog until an attempt has no
// stalled span; run checks its counts only on such an attempt. Stalls
// (GC, a descheduled goroutine) are rare but real on a loaded host.
// Each attempt starts once both sides are fully acked, so no ack owed
// from before it is counted in it.
func unstalled(t *testing.T, tr0, tr1 *TCP, run func(l *sendLog) (stalled bool)) {
	t.Helper()
	const attempts = 20
	for a := 0; a < attempts; a++ {
		runtime.GC() // not during the attempt
		waitFor(t, "both sides acked", func() bool { return tr0.Stats().Inflight == 0 && tr1.Stats().Inflight == 0 })
		if !run(&sendLog{}) {
			return
		}
	}
	t.Fatalf("all %d attempts stalled a frame's ack for ackDelay (%v)", attempts, ackDelay)
}

// TestPingPongPiggybacksAcks: in an answered 64 B ping-pong each reply
// carries the ack for the request, and the next request the ack for the
// reply, so a round trip is exactly two frames and no Ack frame is sent
// until the exchange stops.
func TestPingPongPiggybacksAcks(t *testing.T) {
	const n, warm = 200, 20
	s0, s1 := newSigSink(), newSigSink()
	tr0, tr1 := newPairWith(t, Config{}, Config{}, s0, s1)
	payload := make([]byte, 64)
	roundTrips := func(l *sendLog, n int) {
		for i := 0; i < n; i++ {
			l.send(t, tr0, 1, payload)
			s1.wait(t)
			l.send(t, tr1, 0, payload)
			s0.wait(t)
		}
	}
	roundTrips(&sendLog{}, warm)
	unstalled(t, tr0, tr1, func(l *sendLog) bool {
		frames0 := framesSent(tr0, tr1)
		roundTrips(l, n)
		frames := framesSent(tr0, tr1) - frames0
		if l.stalled(time.Now()) {
			return true
		}
		if frames != 2*n {
			t.Fatalf("%d round trips sent %d frames (%d standalone Acks), want %d and 0", n, frames, frames-2*n, 2*n)
		}
		// Once the exchange stops, only the last reply is owed an ack:
		// the last request's rode on that reply.
		waitFor(t, "both sides acked", func() bool { return tr0.Stats().Inflight == 0 && tr1.Stats().Inflight == 0 })
		if acks := framesSent(tr0, tr1) - frames0 - 2*n; acks != 1 {
			t.Fatalf("the quiet exchange sent %d standalone Acks, want 1", acks)
		}
		return false
	})
}

// TestLongPingPongSendsNoAcks: a ping-pong that outlasts the ack timer
// many times over still sends exactly two frames per round trip. The
// timer stays armed across the exchange and each time it fires it finds
// frames that arrived since it was armed, so it re-arms instead of
// acking a request whose reply is not yet written.
func TestLongPingPongSendsNoAcks(t *testing.T) {
	s0, s1 := newSigSink(), newSigSink()
	tr0, tr1 := newPairWith(t, Config{}, Config{}, s0, s1)
	payload := make([]byte, 64)
	roundTrip := func(l *sendLog) {
		l.send(t, tr0, 1, payload)
		s1.wait(t)
		l.send(t, tr1, 0, payload)
		s0.wait(t)
	}
	roundTrip(&sendLog{})
	unstalled(t, tr0, tr1, func(l *sendLog) bool {
		frames0 := framesSent(tr0, tr1)
		n := 0
		for start := time.Now(); time.Since(start) < 20*ackDelay; n++ {
			roundTrip(l)
		}
		frames := framesSent(tr0, tr1) - frames0
		if l.stalled(time.Now()) {
			return true
		}
		if frames != 2*n {
			t.Fatalf("%d round trips over %v sent %d frames (%d standalone Acks), want %d and 0", n, 20*ackDelay, frames, frames-2*n, 2*n)
		}
		return false
	})
}

// TestQuiescentStreamStillAcked: a one-way stream that stops is acked
// after ackDelay, and one that keeps flowing is acked at least every
// ackEvery frames even while quiescence acks cannot fire.
func TestQuiescentStreamStillAcked(t *testing.T) {
	s1 := newSigSink()
	// The sink will hold the last of the second stream's 100 frames.
	s1.hold = 5 + 100
	defer close(s1.release)
	tr0, _ := newPairWith(t, Config{}, Config{}, newTestSink(), s1)
	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := tr0.Send(1, &Header{Type: TypeEager, Tag: int32(i)}, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(5)
	waitFor(t, "quiescence ack drains inflight", func() bool { return tr0.Stats().Inflight == 0 })

	// While the sink holds the last of 100 more frames inside Frame, the
	// receiver's recvMu stays locked, so no quiescence ack can run: only
	// the ackEvery stride acks the frames before it.
	send(100)
	waitFor(t, "the held frame", func() bool { return s1.count() == s1.hold })
	waitFor(t, "stride acks bound inflight", func() bool { return tr0.Stats().Inflight <= ackEvery })
}

// TestBidirectionalStreamNoStrideAcks: when both sides send, each
// side's frames carry its acks, so neither the stride nor the
// quiescence timer sends a standalone Ack.
func TestBidirectionalStreamNoStrideAcks(t *testing.T) {
	const n = 200
	s0, s1 := newSigSink(), newSigSink()
	tr0, tr1 := newPairWith(t, Config{}, Config{}, s0, s1)
	// One round trip first, so the handshake is not a cross-dial.
	warm := &sendLog{}
	warm.send(t, tr0, 1, []byte{1})
	s1.wait(t)
	warm.send(t, tr1, 0, []byte{0})
	s0.wait(t)
	unstalled(t, tr0, tr1, func(l *sendLog) bool {
		frames0 := framesSent(tr0, tr1)
		for i := 0; i < n; i++ {
			l.send(t, tr0, 1, []byte{1})
			l.send(t, tr1, 0, []byte{0})
			s0.wait(t)
			s1.wait(t)
		}
		acks := framesSent(tr0, tr1) - frames0 - 2*n
		if l.stalled(time.Now()) {
			return true
		}
		if acks != 0 {
			t.Fatalf("%d interleaved frames each way sent %d standalone Acks, want 0", n, acks)
		}
		return false
	})
}

// TestCloseAcksWhatItOwes: a transport that closes right after a
// delivery acks it on the way out, so the sender's inflight drains
// instead of waiting for its redials to give up on a closed peer.
func TestCloseAcksWhatItOwes(t *testing.T) {
	s1 := newSigSink()
	s1.hold = 1 // no quiescence timer is armed while the frame is held
	tr0, tr1 := newPairWith(t, Config{ReconnectMax: 100}, Config{}, newTestSink(), s1)
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(s1.release) })
	defer release()
	waitFor(t, "the held frame", func() bool { return s1.count() == 1 })
	closed := make(chan struct{})
	go func() { tr1.Close(); close(closed) }()
	release()
	<-closed
	waitFor(t, "close-time ack drains inflight", func() bool { return tr0.Stats().Inflight == 0 })
}
