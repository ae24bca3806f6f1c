package wire

import (
	"bytes"
	"testing"
	"time"
)

// TestEncClassEdges pins the encode pool's size classes at their edges:
// a frame of exactly a class's size is staged in that class, one byte
// more moves it to the next, and a frame past the top class is staged in
// an exact-size buffer that never enters a pool.
func TestEncClassEdges(t *testing.T) {
	for k := 0; k <= encMaxClassBits-encMinClassBits; k++ {
		size := 1 << (encMinClassBits + k)
		if got := encClass(size); got != k {
			t.Errorf("encClass(%d) = %d, want %d", size, got, k)
		}
		want := k + 1
		if k == encMaxClassBits-encMinClassBits {
			want = -1
		}
		if got := encClass(size + 1); got != want {
			t.Errorf("encClass(%d) = %d, want %d", size+1, got, want)
		}
		if got := encFit(size); got != k {
			t.Errorf("encFit(%d) = %d, want %d", size, got, k)
		}
	}
	if got := encClass(0); got != 0 {
		t.Errorf("encClass(0) = %d, want 0", got)
	}
	if encMaxClassBits < 20 {
		t.Errorf("top class is %d B, want at least 1 MiB", 1<<encMaxClassBits)
	}

	// Staged through the real encoder: a frame whose encoding is exactly
	// a class's size fills its buffer without growing it.
	const class = 4096
	h := Header{Type: TypeData, Seq: 1}
	for _, tc := range []struct {
		payload, capacity int
	}{
		{class - frameOverhead, class},
		{class - frameOverhead + 1, 2 * class},
	} {
		payload := make([]byte, tc.payload)
		n := encodedSize(&h, len(payload))
		enc := getEnc(n)
		base := cap(*enc)
		*enc = AppendFrame(*enc, &h, payload)
		if len(*enc) != n || cap(*enc) != base || base != tc.capacity {
			t.Errorf("%d B payload: encoded %d B (want %d) into cap %d (staged %d, want %d)",
				tc.payload, len(*enc), n, cap(*enc), base, tc.capacity)
		}
		putEnc(enc)
	}
	hs := Header{Type: TypeData, Span: 9}
	if got, want := encodedSize(&hs, 10), len(AppendFrame(nil, &hs, make([]byte, 10))); got != want {
		t.Errorf("encodedSize with span extension = %d, encoded %d", got, want)
	}

	// Past the top class: an exact-size buffer, never pooled.
	big := 1<<encMaxClassBits + 1
	if b := getEnc(big); cap(*b) != big {
		t.Errorf("getEnc(%d) cap = %d, want exactly %d", big, cap(*b), big)
	}

	// Only a capacity that is exactly a class size goes back.
	for _, c := range []int{0, 100, 1 << (encMinClassBits - 1), 3000, 3 << 18, 1<<encMaxClassBits + 1, 1 << (encMaxClassBits + 1)} {
		if got := encFit(c); got != -1 {
			t.Errorf("encFit(%d) = %d, want -1 (never pooled)", c, got)
		}
		b := make([]byte, 0, c)
		putEnc(&b)
		for k := range encPools {
			for v := encPools[k].Get(); v != nil; v = encPools[k].Get() {
				if v.(*[]byte) == &b {
					t.Errorf("a buffer of capacity %d was pooled", c)
				}
			}
		}
	}
}

// TestRetransmitRecycledEncBuffers: encode buffers return to their class
// when an ack trims them from the unacked ring and are reused by later
// frames. A connection drop in the middle of such a stream retransmits
// the ring, so a buffer handed back while still in the ring would go out
// overwritten. Every payload must arrive intact and in order, and the
// ring must drain.
func TestRetransmitRecycledEncBuffers(t *testing.T) {
	const frames, size = 64, 256 << 10
	// 32 sequenced writes in the first half, then the 8th of the second.
	fd := &faultDropper{dropN: frames/2 + 8}
	tr0, _, _, s1 := newPair(t, Config{Fault: fd, ReconnectBackoff: 5 * time.Millisecond}, Config{})
	src := make([]byte, size) // one source, rewritten per frame
	fill := func(b []byte, i int) {
		for j := range b {
			b[j] = byte(i*131 + j*7 + j>>8)
		}
	}
	send := func(i int) {
		fill(src, i)
		if err := tr0.Send(1, &Header{Type: TypeEager, Tag: int32(i)}, src); err != nil {
			t.Fatal(err)
		}
	}
	// First half acked and recycled before the second half is staged.
	for i := 0; i < frames/2; i++ {
		send(i)
	}
	waitFor(t, "first half acked", func() bool { return tr0.Stats().Inflight == 0 })
	for i := frames / 2; i < frames; i++ {
		send(i)
	}
	waitFor(t, "every frame despite the drop", func() bool { return s1.count() == frames })
	want := make([]byte, size)
	for i := 0; i < frames; i++ {
		f := s1.frame(i)
		fill(want, i)
		if f.Tag != int32(i) || !bytes.Equal(f.Payload, want) {
			t.Fatalf("frame %d: tag %d, payload intact %v", i, f.Tag, bytes.Equal(f.Payload, want))
		}
	}
	if tr0.Stats().Reconnects == 0 {
		t.Fatal("the injected drop forced no reconnect")
	}
	waitFor(t, "unacked ring drains", func() bool { return tr0.Stats().Inflight == 0 })
}
