package wire

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestBatchCoalescesSmallFrames bursts small eager frames through a
// batching connection: every frame must arrive individually and in
// order at the sink (batching is invisible above the transport), and
// the sender's stats must show real coalescing — far fewer Batch
// containers than sub-frames.
func TestBatchCoalescesSmallFrames(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{BatchWindow: 5 * time.Millisecond}, Config{})
	// Establish the connection first: pre-handshake sends bypass the
	// batch (they are retransmitted from the unacked ring on Hello).
	if err := tr0.Send(1, &Header{Type: TypeEager, Tag: -1}, []byte("kick")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool { return s1.count() == 1 })

	const n = 100
	for i := 0; i < n; i++ {
		h := Header{Type: TypeEager, Tag: int32(i), SrcWorld: 0, DstWorld: 1}
		if err := tr0.Send(1, &h, []byte(fmt.Sprintf("b-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "batched delivery", func() bool { return s1.count() == n+1 })
	for i := 0; i < n; i++ {
		f := s1.frame(i + 1)
		if f.Type != TypeEager || f.Tag != int32(i) || string(f.Payload) != fmt.Sprintf("b-%d", i) {
			t.Fatalf("frame %d: type=%v tag=%d payload=%q", i, f.Type, f.Tag, f.Payload)
		}
	}
	st := tr0.Stats()
	if st.BatchesSent == 0 {
		t.Fatal("no Batch containers sent despite BatchWindow")
	}
	if st.BatchedFrames < 2*st.BatchesSent {
		t.Fatalf("mean batch fill %d/%d < 2: burst did not coalesce", st.BatchedFrames, st.BatchesSent)
	}
	waitFor(t, "acks drain inflight", func() bool { return tr0.Stats().Inflight == 0 })
}

// TestBatchCapsFlushWithoutWindow: under a window no test outlives, every
// frame must still arrive, because the fixed caps flush a batch on their
// own — the frame count cap, the byte cap, and a frame too large to join
// (which flushes what is pending ahead of itself to keep order). The
// sender's counters pin exactly which flush fired when.
func TestBatchCapsFlushWithoutWindow(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{BatchWindow: time.Hour}, Config{})
	send := func(tag int, payload []byte) {
		t.Helper()
		if err := tr0.Send(1, &Header{Type: TypeEager, Tag: int32(tag)}, payload); err != nil {
			t.Fatal(err)
		}
	}
	// The pre-handshake kick is retransmitted from the unacked ring on
	// Hello, never batched.
	send(0, []byte("kick"))
	waitFor(t, "handshake", func() bool { return s1.count() == 1 })
	tag := 1

	// Count cap: batchMaxFrames tiny frames make exactly one full batch.
	for i := 0; i < batchMaxFrames; i++ {
		send(tag, []byte{byte(i)})
		tag++
	}
	waitFor(t, "count-capped batch", func() bool { return s1.count() == tag })

	// Cutoff: one pending tiny frame, then one too large to batch.
	send(tag, []byte("pending"))
	tag++
	send(tag, make([]byte, batchCutoff))
	tag++
	waitFor(t, "flush ahead of an oversized frame", func() bool { return s1.count() == tag })

	// Byte cap: frames just under the cutoff fill batchMaxBytes before
	// the count cap.
	mid := make([]byte, batchCutoff-frameOverhead)
	perBatch := (batchMaxBytes + batchCutoff - 1) / batchCutoff
	for i := 0; i < perBatch; i++ {
		send(tag, mid)
		tag++
	}
	waitFor(t, "byte-capped batch", func() bool { return s1.count() == tag })

	for i := 0; i < tag; i++ {
		if f := s1.frame(i); f.Tag != int32(i) {
			t.Fatalf("frame %d carries tag %d: batching reordered delivery", i, f.Tag)
		}
	}
	st := tr0.Stats()
	if want := uint64(batchMaxFrames + 1 + perBatch); st.BatchesSent != 3 || st.BatchedFrames != want {
		t.Fatalf("batches=%d sub-frames=%d, want 3 and %d", st.BatchesSent, st.BatchedFrames, want)
	}
}

// TestFlushWritesPendingBatch: under a window no test outlives, pending
// frames stay in their batch until Flush, which writes them as one
// container before it returns. Flush with nothing pending, or on a
// transport that does not batch, writes nothing.
func TestFlushWritesPendingBatch(t *testing.T) {
	tr0, _, _, s1 := newPair(t, Config{BatchWindow: time.Hour}, Config{})
	if !tr0.Batching() {
		t.Fatal("Batching() = false with BatchWindow set")
	}
	if err := tr0.Send(1, &Header{Type: TypeEager, Tag: 0}, []byte("kick")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "handshake", func() bool { return s1.count() == 1 })
	sent := func() uint64 { return tr0.Stats().FramesSent }

	before := sent()
	tr0.Flush()
	if got := sent(); got != before {
		t.Fatalf("Flush with nothing pending wrote %d frames", got-before)
	}
	const n = 3
	for i := 1; i <= n; i++ {
		if err := tr0.Send(1, &Header{Type: TypeEager, Tag: int32(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr0.Stats(); st.BatchesSent != 0 || st.FramesSent != before {
		t.Fatalf("batch left before Flush: %+v", st)
	}
	tr0.Flush()
	if st := tr0.Stats(); st.BatchesSent != 1 || st.BatchedFrames != n || st.FramesSent != before+1 {
		t.Fatalf("after Flush: %+v, want one batch of %d frames", st, n)
	}
	waitFor(t, "flushed delivery", func() bool { return s1.count() == n+1 })
	for i := 1; i <= n; i++ {
		if f := s1.frame(i); f.Tag != int32(i) {
			t.Fatalf("frame %d carries tag %d", i, f.Tag)
		}
	}
	before = sent()
	tr0.Flush()
	if got := sent(); got != before {
		t.Fatalf("second Flush wrote %d frames", got-before)
	}

	off, _, _, s3 := newPair(t, Config{}, Config{})
	if off.Batching() {
		t.Fatal("Batching() = true without BatchWindow")
	}
	if err := off.Send(1, &Header{Type: TypeEager}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unbatched delivery", func() bool { return s3.count() == 1 })
	before = off.Stats().FramesSent
	off.Flush()
	if st := off.Stats(); st.FramesSent != before || st.BatchesSent != 0 {
		t.Fatalf("Flush without batching wrote frames: %+v", st)
	}
}

// TestDecodeBatchRoundTrip packs three frames — including one carrying
// the span extension — into a batch payload and walks it back out.
func TestDecodeBatchRoundTrip(t *testing.T) {
	subs := []struct {
		h       Header
		payload string
	}{
		{Header{Type: TypeEager, Seq: 1, Tag: 10, DstWorld: 1}, "first"},
		{Header{Type: TypeEager, Seq: 2, Tag: 11, DstWorld: 1, Span: 77, SendTS: 88}, "second"},
		{Header{Type: TypeRTS, Seq: 3, Xid: 5, Elems: 2048}, ""},
	}
	var payload []byte
	for i := range subs {
		payload = AppendFrame(payload, &subs[i].h, []byte(subs[i].payload))
	}
	var got []Header
	var h Header
	n, err := DecodeBatch(payload, &h, func(sub []byte) error {
		if string(sub) != subs[len(got)].payload {
			t.Fatalf("sub-frame %d payload %q", len(got), sub)
		}
		got = append(got, h)
		return nil
	})
	if err != nil || n != len(subs) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	for i, h := range got {
		want := subs[i].h
		if h.Seq != want.Seq || h.Tag != want.Tag || h.Type != want.Type ||
			h.Span != want.Span || h.SendTS != want.SendTS || h.Xid != want.Xid {
			t.Fatalf("sub-frame %d decoded %+v, want %+v", i, h, want)
		}
	}
}

// TestDecodeBatchFaults feeds every class of malformed batch payload to
// the decoder: each must surface a typed *BatchError — never a partial
// silent success or a panic — with the count of sub-frames that decoded
// cleanly before the fault.
func TestDecodeBatchFaults(t *testing.T) {
	good := AppendFrame(nil, &Header{Type: TypeEager, Seq: 9, Tag: 1}, []byte("ok"))
	corruptVer := append([]byte(nil), good...)
	corruptVer[lenPrefixSize] = Version + 40
	nested := AppendFrame(append([]byte(nil), good...), &Header{Type: TypeBatch}, []byte("x"))

	cases := []struct {
		name    string
		payload []byte
		frames  int // sub-frames decoded before the fault
	}{
		{"empty", nil, 0},
		{"truncated header", good[:frameOverhead-1], 0},
		{"frame past payload", append(append([]byte(nil), good...), good[:len(good)-1]...), 1},
		{"bad version", corruptVer, 0},
		{"nested batch", nested, 1},
	}
	for _, tc := range cases {
		n, err := DecodeBatch(tc.payload, new(Header), func(sub []byte) error { return nil })
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("%s: want *BatchError, got %v", tc.name, err)
		}
		if n != tc.frames || be.Frames != tc.frames {
			t.Fatalf("%s: decoded %d/%d sub-frames, want %d", tc.name, n, be.Frames, tc.frames)
		}
	}

	// A callback error passes through untouched (no BatchError wrapping).
	sentinel := errors.New("stop")
	if _, err := DecodeBatch(good, new(Header), func(sub []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not passed through: %v", err)
	}
}

// TestDecodeBatchAllocs: the walk decodes every sub-frame into the
// caller's header, so unpacking a 16-sub-frame container allocates
// nothing (one Header per sub-frame escaped when the walk owned it).
func TestDecodeBatchAllocs(t *testing.T) {
	var payload []byte
	for i := 0; i < 16; i++ {
		h := Header{Type: TypeEager, Seq: uint64(i + 1), Tag: int32(i), DstWorld: 1}
		if i%2 == 1 {
			h.Span, h.SendTS = uint64(i), int64(i)
		}
		payload = AppendFrame(payload, &h, []byte("sixteen bytes..."))
	}
	var h Header
	var bytes int
	allocs := testing.AllocsPerRun(100, func() {
		n, err := DecodeBatch(payload, &h, func(sub []byte) error {
			bytes += len(sub)
			return nil
		})
		if n != 16 || err != nil {
			t.Fatalf("decoded %d sub-frames: %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeBatch of 16 sub-frames: %v allocs/op, want 0", allocs)
	}
}

// TestCorruptBatchSeversConnection dials the transport as node 1 and
// sends a batch with a truncated payload: the transport must sever the
// connection promptly (the fake peer reads EOF) instead of hanging or
// desynchronizing its frame stream.
func TestCorruptBatchSeversConnection(t *testing.T) {
	// One redial, to a node that no longer listens: the sever is followed
	// by the peer going down, and the down error must still carry the
	// sever's cause.
	tr0, sink, ln1 := newLoneTCP(t, Config{WorldKey: 7, ReconnectMax: 1, ReconnectBackoff: time.Millisecond})
	ln1.Close()
	conn, err := net.Dial("tcp", tr0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(helloAt(Version)); err != nil {
		t.Fatal(err)
	}
	var scratch [maxFrameRead]byte
	var h Header
	if _, err := readHeader(conn, &h, &scratch); err != nil || h.Type != TypeHello {
		t.Fatalf("no hello reply: %+v err=%v", h, err)
	}

	// A batch whose payload is ten garbage bytes: too short for even one
	// sub-frame header.
	bad := AppendFrame(nil, &Header{Type: TypeBatch}, make([]byte, 10))
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	// The transport severs: our next read must fail fast with EOF/reset,
	// not time out.
	if _, err := conn.Read(scratch[:1]); err == nil {
		t.Fatal("connection survived a corrupt batch")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("transport hung on a corrupt batch instead of severing")
	}
	select {
	case down := <-sink.downCh:
		var be *BatchError
		if !errors.As(down, &be) {
			t.Fatalf("PeerDown error %v does not carry the sever's *BatchError", down)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer not declared down after its one redial failed")
	}
}
