package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	h := Header{
		Type: TypeEager, Kind: 8, Seq: 42, Ack: 41, Xid: 7,
		Ctx: -3, SrcComm: 1, SrcWorld: 2, DstWorld: 5, Tag: 99, Elems: 4,
	}
	payload := []byte("hello, wire")
	enc := AppendFrame(nil, &h, payload)
	if len(enc) != frameOverhead+len(payload) {
		t.Fatalf("encoded length %d, want %d", len(enc), frameOverhead+len(payload))
	}
	var got Header
	var scratch [maxFrameRead]byte
	r := bytes.NewReader(enc)
	plen, err := readHeader(r, &got, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if plen != len(payload) {
		t.Fatalf("payload length %d, want %d", plen, len(payload))
	}
	h.PayloadLen = uint32(len(payload))
	if got != h {
		t.Fatalf("header mismatch:\n got  %+v\n want %+v", got, h)
	}
	buf := make([]byte, plen)
	r.Read(buf) //nolint:errcheck
	if !bytes.Equal(buf, payload) {
		t.Fatalf("payload mismatch: %q", buf)
	}
}

// TestFrameRejectsBadVersion: there is one protocol version, so a frame
// from an older or a newer build is refused alike, with a typed error
// naming the version it carried.
func TestFrameRejectsBadVersion(t *testing.T) {
	for _, v := range []uint8{Version - 1, Version + 1} {
		enc := AppendFrame(nil, &Header{Type: TypeAck}, nil)
		enc[lenPrefixSize] = v
		var h Header
		var scratch [maxFrameRead]byte
		_, err := readHeader(bytes.NewReader(enc), &h, &scratch)
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != v {
			t.Fatalf("version %d: want *VersionError{Got: %d}, got %v", v, v, err)
		}
	}
}

func TestParseHosts(t *testing.T) {
	addrs, err := ParseHosts(" 127.0.0.1:7001 , 127.0.0.1:7002 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "127.0.0.1:7001" || addrs[1] != "127.0.0.1:7002" {
		t.Fatalf("bad parse: %v", addrs)
	}
	if _, err := ParseHosts("one-host:1"); err == nil {
		t.Fatal("expected error for single-entry list")
	}
}

func TestConfigFromEnv(t *testing.T) {
	t.Setenv(EnvHosts, "127.0.0.1:7001,127.0.0.1:7002")
	t.Setenv(EnvNode, "1")
	cfg, ok, err := ConfigFromEnv()
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if cfg.Self != 1 || len(cfg.Addrs) != 2 || cfg.WorldKey == 0 {
		t.Fatalf("bad config: %+v", cfg)
	}
	t.Setenv(EnvNode, "2")
	if _, _, err := ConfigFromEnv(); err == nil {
		t.Fatal("expected out-of-range node error")
	}
}

// testSink records delivered frames in order.
type testSink struct {
	mu     sync.Mutex
	frames []*Frame
	downCh chan error
}

func newTestSink() *testSink {
	return &testSink{downCh: make(chan error, 4)}
}

func (s *testSink) Alloc(peer int, h *Header) ([]byte, any) { return nil, nil }

func (s *testSink) Frame(peer int, f *Frame) {
	cp := *f
	cp.Payload = append([]byte(nil), f.Payload...)
	s.mu.Lock()
	s.frames = append(s.frames, &cp)
	s.mu.Unlock()
}

func (s *testSink) Free(peer int, token any) {}

func (s *testSink) PeerDown(peer int, err error) {
	select {
	case s.downCh <- err:
	default:
	}
}

func (s *testSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

func (s *testSink) frame(i int) *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames[i]
}

// newPair builds two bound transports talking over loopback.
func newPair(t *testing.T, cfg0, cfg1 Config) (*TCP, *TCP, *testSink, *testSink) {
	t.Helper()
	s0, s1 := newTestSink(), newTestSink()
	tr0, tr1 := newPairWith(t, cfg0, cfg1, s0, s1)
	return tr0, tr1, s0, s1
}

// newPairWith is newPair with caller-supplied sinks.
func newPairWith(t *testing.T, cfg0, cfg1 Config, s0, s1 Sink) (*TCP, *TCP) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	cfg0.Addrs, cfg0.Self = addrs, 0
	cfg1.Addrs, cfg1.Self = addrs, 1
	tr0, err := NewTCP(cfg0, ln0)
	if err != nil {
		t.Fatal(err)
	}
	tr1, err := NewTCP(cfg1, ln1)
	if err != nil {
		t.Fatal(err)
	}
	tr0.Bind(s0)
	tr1.Bind(s1)
	t.Cleanup(func() { tr0.Close(); tr1.Close() })
	return tr0, tr1
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPDeliversInOrder(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{}, Config{})
	const n = 100
	for i := 0; i < n; i++ {
		h := Header{Type: TypeEager, Tag: int32(i), SrcWorld: 0, DstWorld: 1}
		if err := tr0.Send(1, &h, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery", func() bool { return s1.count() == n })
	for i := 0; i < n; i++ {
		f := s1.frame(i)
		if f.Tag != int32(i) || string(f.Payload) != fmt.Sprintf("msg-%d", i) {
			t.Fatalf("frame %d: tag=%d payload=%q", i, f.Tag, f.Payload)
		}
	}
	st := tr0.Stats()
	if st.FramesSent < n || st.BytesSent == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
	waitFor(t, "acks drain inflight", func() bool { return tr0.Stats().Inflight < n })
}

func TestTCPBidirectionalAndWorldKeyGuard(t *testing.T) {
	tr0, tr1, s0, s1 := newPair(t, Config{WorldKey: 1}, Config{WorldKey: 1})
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tr1.Send(0, &Header{Type: TypeEager}, []byte("b")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both directions", func() bool { return s0.count() == 1 && s1.count() == 1 })
}

// faultDropper drops the connection on the Nth sequenced write.
type faultDropper struct {
	n     atomic.Int64
	dropN int64
}

func (f *faultDropper) WireSend(peer int, t Type, bytes int) (bool, int) {
	return f.n.Add(1) == f.dropN, 0
}
func (f *faultDropper) WireDial(peer int, attempt int) bool { return true }

func TestTCPRetransmitsAfterDrop(t *testing.T) {
	fd := &faultDropper{dropN: 3}
	tr0, _, _, s1 := newPair(t, Config{Fault: fd, ReconnectBackoff: 5 * time.Millisecond}, Config{})
	const n = 10
	for i := 0; i < n; i++ {
		if err := tr0.Send(1, &Header{Type: TypeEager, Tag: int32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames despite drop", func() bool { return s1.count() == n })
	for i := 0; i < n; i++ {
		if s1.frame(i).Tag != int32(i) {
			t.Fatalf("frame %d has tag %d: reordered", i, s1.frame(i).Tag)
		}
	}
	if tr0.Stats().Reconnects == 0 {
		t.Fatal("expected a reconnect after injected drop")
	}
}

// faultDialBlock fails every dial to simulate an unreachable peer.
type faultDialBlock struct{}

func (faultDialBlock) WireSend(peer int, t Type, bytes int) (bool, int) { return false, 0 }
func (faultDialBlock) WireDial(peer int, attempt int) bool              { return false }

func TestTCPPeerDownAfterReconnectExhaustion(t *testing.T) {
	tr0, _, s0, _ := newPair(t, Config{
		Fault:            faultDialBlock{},
		ReconnectMax:     2,
		ReconnectBackoff: time.Millisecond,
	}, Config{})
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s0.downCh:
		if err == nil {
			t.Fatal("nil PeerDown error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PeerDown never fired")
	}
	err := tr0.Send(1, &Header{Type: TypeEager}, []byte("y"))
	var pd *PeerDownError
	if err == nil {
		t.Fatal("send to down peer succeeded")
	} else if !asPeerDown(err, &pd) || pd.Peer != 1 {
		t.Fatalf("wrong error: %v", err)
	}
}

func asPeerDown(err error, out **PeerDownError) bool {
	if e, ok := err.(*PeerDownError); ok {
		*out = e
		return true
	}
	return false
}

func TestTCPConcurrentSendersOneConnection(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{}, Config{})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h := Header{Type: TypeEager, SrcComm: int32(w), Tag: int32(i)}
				if err := tr0.Send(1, &h, []byte{byte(w), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, "all concurrent frames", func() bool { return s1.count() == workers*per })
	// Per-sender order must be preserved (transport is FIFO per peer,
	// so each worker's tags arrive ascending).
	next := make([]int32, workers)
	for i := 0; i < workers*per; i++ {
		f := s1.frame(i)
		if f.Tag != next[f.SrcComm] {
			t.Fatalf("worker %d: tag %d before %d", f.SrcComm, f.Tag, next[f.SrcComm])
		}
		next[f.SrcComm]++
	}
}

// TestSendLastSenderFlushes: once every Send call has returned, no
// framed bytes may remain buffered on the connection. writeLocked
// defers its flush to a sender still counted in pendingSends; if that
// count outlives the critical section, two departing senders can each
// leave the flush to the other, stranding the final frames of a
// conversation in the bufio.Writer — the peer then blocks forever on a
// message its partner believes was sent.
func TestSendLastSenderFlushes(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{}, Config{})
	p := tr0.peers[1]

	// Prime the link so the handshake is out of the way.
	h := Header{Type: TypeEager}
	if err := tr0.Send(1, &h, []byte{0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first frame", func() bool { return s1.count() == 1 })

	sent := 1
	for round := 0; round < 20000; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hh := Header{Type: TypeEager}
				if err := tr0.Send(1, &hh, []byte{1}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		sent += 2
		p.sendMu.Lock()
		buffered := 0
		if p.bw != nil {
			buffered = p.bw.Buffered()
		}
		p.sendMu.Unlock()
		if buffered != 0 {
			t.Fatalf("round %d: %d framed bytes stranded in the writer after all senders returned", round, buffered)
		}
	}
	waitFor(t, "all frames delivered", func() bool { return s1.count() == sent })
}

// TestTCPCrossDialFirstContact models the distributed cold start: two
// fresh transports whose very first frames race in opposite directions,
// so both sides dial simultaneously and the tie-break must converge on
// one socket without losing either side's frame (they ride the unacked
// ring through the handshake retransmit). A dropped frame here is a
// silent cross-process deadlock in any first collective.
func TestTCPCrossDialFirstContact(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		ln0, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln1, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
		tr0, err := NewTCP(Config{Addrs: addrs, Self: 0}, ln0)
		if err != nil {
			t.Fatal(err)
		}
		tr1, err := NewTCP(Config{Addrs: addrs, Self: 1}, ln1)
		if err != nil {
			t.Fatal(err)
		}
		s0, s1 := newTestSink(), newTestSink()
		tr0.Bind(s0)
		tr1.Bind(s1)

		var wg sync.WaitGroup
		for _, snd := range []struct {
			tr   *TCP
			peer int
		}{{tr0, 1}, {tr1, 0}} {
			wg.Add(1)
			go func(tr *TCP, peer int) {
				defer wg.Done()
				h := Header{Type: TypeEager, Tag: int32(round)}
				if err := tr.Send(peer, &h, []byte{byte(peer)}); err != nil {
					t.Error(err)
				}
			}(snd.tr, snd.peer)
		}
		wg.Wait()
		deadline := time.Now().Add(10 * time.Second)
		for s0.count() < 1 || s1.count() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: first-contact frame lost (node0 got %d, node1 got %d)",
					round, s0.count(), s1.count())
			}
			time.Sleep(100 * time.Microsecond)
		}
		tr0.Close()
		tr1.Close()
	}
}
