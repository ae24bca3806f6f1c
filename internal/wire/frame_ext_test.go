package wire

import (
	"bytes"
	"testing"
	"time"
)

func TestFrameSpanExtRoundTrip(t *testing.T) {
	h := Header{
		Type: TypeEager, Kind: 8, Seq: 3, Ack: 2, Xid: 1,
		Ctx: 10, SrcComm: 0, SrcWorld: 1, DstWorld: 2, Tag: 7, Elems: 4,
		Span: 0x123456789a, SendTS: 987654321,
	}
	payload := []byte("span payload")
	enc := AppendFrame(nil, &h, payload)
	if len(enc) != frameOverhead+extSize+len(payload) {
		t.Fatalf("encoded length %d, want %d", len(enc), frameOverhead+extSize+len(payload))
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

func TestFrameSpanExtOmittedWhenUnused(t *testing.T) {
	// No span, no timestamp: the frame must be byte-for-byte a plain
	// fixed-header frame (tracing off costs nothing on the wire).
	enc := AppendFrame(nil, &Header{Type: TypeEager, Tag: 5}, []byte("x"))
	if len(enc) != frameOverhead+1 {
		t.Fatalf("extension emitted for a span-less frame: %d bytes", len(enc))
	}
}

func TestTCPCarriesSpanEndToEnd(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{}, Config{})
	h := Header{Type: TypeEager, Tag: 1, SrcWorld: 0, DstWorld: 1, Span: 4242, SendTS: 1717}
	if err := tr0.Send(1, &h, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "span delivery", func() bool { return s1.count() == 1 })
	f := s1.frame(0)
	if f.Span != 4242 || f.SendTS != 1717 {
		t.Fatalf("span lost in transit: %+v", f.Header)
	}
}

func TestTCPPingPongClockSamples(t *testing.T) {
	tr0, _, _, s1 := newPair(t,
		Config{PingInterval: 10 * time.Millisecond},
		Config{})
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("kick")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "kick delivery", func() bool { return s1.count() == 1 })
	// The handshake fires an immediate ping: a completed round trip
	// replaces the Hello's one-way sample, whose RTT reads -1.
	waitFor(t, "a probe round trip", func() bool {
		e := tr0.Clock(1)
		return e.OK && e.RTTNs >= 0
	})
	if e := tr0.Clock(0); e.OK {
		t.Errorf("Clock(self) = %+v, want no samples", e)
	}
}
