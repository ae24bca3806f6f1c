package wire

// stream_test.go — the reliable stream without a socket: the ack timer's
// decision against a concurrent claim, and the stream against a list
// model under loss, duplication, reordering, stale acks, resume and
// reset.

import (
	"bytes"
	"sync/atomic"
	"testing"
)

func newStream() *stream { return &stream{inflight: new(atomic.Int64)} }

// deliver is the reader's part of one frame that leaves nothing
// buffered: claim it in order, then arm the quiescence ack.
func deliver(t *testing.T, s *stream, seq uint64) {
	t.Helper()
	if ok, err := s.claim(seq); !ok || err != nil {
		t.Fatalf("claim(%d) = %v, %v; want delivery", seq, ok, err)
	}
	s.armAck()
}

// TestAckFireVsClaim places a claim at each point of the ack timer's
// decision: before ackFired clears ackArmed, between the clear and the
// recvSeq read, and after that read. The timer was armed at frame 1,
// and in the busy case frame 2 arrived while it was pending. Each
// claim's ack must stay covered: either the timer is armed after it (by
// the claim or by the fire), or the fire found the stream quiet with the
// claim already counted, so the ack it sends includes it. A fire that
// declares the stream quiet without having seen a claim whose arm it
// refused acks a frame younger than ackDelay and leaves no timer for it.
func TestAckFireVsClaim(t *testing.T) {
	const (
		beforeClear = iota
		beforeRead
		afterRead
	)
	for _, busy := range []bool{false, true} {
		for at, name := range []string{"before clear", "between clear and read", "after read"} {
			s := newStream()
			deliver(t, s, 1)
			if busy {
				deliver(t, s, 2)
			}
			claimed := s.recvSeq.Load() + 1
			claim := func() { deliver(t, s, claimed) }
			if at == beforeClear {
				claim()
			}
			if at == beforeRead {
				s.firing = claim
			}
			_, quiet := s.ackFired()
			if at == afterRead {
				claim()
			}
			if s.recvSeq.Load() != claimed {
				t.Fatalf("busy=%v, claim %s: recvSeq %d, want %d", busy, name, s.recvSeq.Load(), claimed)
			}
			armed := s.ackArmed.Load()
			quietWithClaim := quiet && s.ackSeq.Load() >= claimed
			if !armed && !quietWithClaim {
				t.Errorf("busy=%v, claim %s: frame %d neither re-armed nor acked (quiet=%v at ackSeq %d)",
					busy, name, claimed, quiet, s.ackSeq.Load())
			}
		}
	}
}

// FuzzStream drives a sending and a receiving stream through a byte
// script of sends, deliveries (in order, out of order, duplicated),
// fresh, stale and impossible acks, connection resumes and peer
// restarts, and checks them against a list model after every step:
//   - delivery is exactly once and in order (the receiver's frames are
//     the sender's, 1..recvSeq, each once);
//   - the ring holds the sent frames the receiver has not acked, no
//     more and no fewer, and the inflight count matches it;
//   - no ack past sendSeq trims anything.
func FuzzStream(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 1, 0, 3, 7, 4, 0, 1, 0, 1, 2})
	f.Add([]byte{0, 0, 6, 0, 0, 5, 0, 0, 1, 0, 4, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 4, 1, 0, 1, 0, 5, 0, 0, 1, 0, 2, 0, 1, 0, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		tx, rx := newStream(), newStream()
		var (
			wire     [][]byte // encoded frames in flight on the connection
			acks     []uint64 // cumulative acks the receiver has sent
			acked    uint64   // highest ack the sender honored
			got      []int32  // tags delivered since the last restart
			inc      uint64   = 1
			epochTag int32    // tags restart at 1 with each incarnation
		)
		if tx.noteHello(inc, false) {
			t.Fatal("first contact reset the stream")
		}
		var scratch [maxFrameRead]byte
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%7, int(script[i+1])
			switch op {
			case 0: // send
				epochTag++
				h := Header{Type: TypeEager, Tag: epochTag}
				buf := tx.push(&h, bytes.Repeat([]byte{byte(epochTag)}, arg%4))
				wire = append(wire, append([]byte(nil), buf...))
			case 1, 2: // deliver frame arg (1: off the wire; 2: a duplicate)
				if len(wire) == 0 {
					continue
				}
				k := arg % len(wire)
				var h Header
				if _, err := readHeader(bytes.NewReader(wire[k]), &h, &scratch); err != nil {
					t.Fatalf("ring frame does not decode: %v", err)
				}
				if op == 1 {
					wire = append(wire[:k], wire[k+1:]...)
				}
				prev := rx.recvSeq.Load()
				ok, err := rx.claim(h.Seq)
				switch {
				case h.Seq == prev+1:
					if !ok || err != nil {
						t.Fatalf("next frame %d not delivered: %v, %v", h.Seq, ok, err)
					}
					got = append(got, h.Tag)
					acks = append(acks, h.Seq)
				case h.Seq <= prev:
					if ok || err != nil {
						t.Fatalf("duplicate %d (recvSeq %d): %v, %v", h.Seq, prev, ok, err)
					}
				default:
					if ok || err == nil {
						t.Fatalf("gap %d (recvSeq %d): %v, %v", h.Seq, prev, ok, err)
					}
				}
			case 3: // an ack the receiver sent, possibly stale
				if len(acks) == 0 {
					continue
				}
				a := acks[arg%len(acks)]
				tx.trim(a)
				acked = max(acked, a)
			case 4: // an ack past anything sent: a stale resume point
				tx.trim(tx.sendSeq + 1 + uint64(arg))
			case 5: // the connection drops; the next one resumes
				a := rx.recvSeq.Load()
				tx.trim(a)
				acked = max(acked, a)
				wire = wire[:0]
				for _, b := range tx.unacked {
					wire = append(wire, append([]byte(nil), *b...))
				}
			case 6: // the receiver restarts with a higher incarnation
				if tx.noteHello(inc-1, false) || tx.noteHello(0, false) {
					t.Fatal("a stale or absent incarnation reset the stream")
				}
				inc++
				if !tx.noteHello(inc, arg%2 == 1) {
					t.Fatal("a new incarnation did not reset the stream")
				}
				rx = newStream()
				wire, acks, acked, got, epochTag = wire[:0], acks[:0], 0, got[:0], 0
			}

			if n := uint64(len(got)); rx.recvSeq.Load() != n {
				t.Fatalf("recvSeq %d after %d deliveries", rx.recvSeq.Load(), n)
			}
			for j, tag := range got {
				if tag != int32(j+1) {
					t.Fatalf("delivery %d carries frame %d: %v", j+1, tag, got)
				}
			}
			if want := tx.sendSeq - acked; uint64(len(tx.unacked)) != want {
				t.Fatalf("ring holds %d frames, want sent %d - acked %d", len(tx.unacked), tx.sendSeq, acked)
			}
			if n := tx.inflight.Load(); n != int64(len(tx.unacked)) {
				t.Fatalf("inflight %d, ring %d", n, len(tx.unacked))
			}
			for j, b := range tx.unacked {
				var h Header
				if _, err := readHeader(bytes.NewReader(*b), &h, &scratch); err != nil || h.Seq != acked+uint64(j)+1 {
					t.Fatalf("ring slot %d holds seq %d (err %v), want %d", j, h.Seq, err, acked+uint64(j)+1)
				}
			}
		}
	})
}
