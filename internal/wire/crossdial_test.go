package wire

import "testing"

// TestCrossDialIsNotAReconnect: two transports whose first frames leave
// at the same instant both dial, and the dial tie-break discards one of
// the two connections. That is first contact, not a lost connection, so
// Reconnects must read 0 on both ends, every time.
func TestCrossDialIsNotAReconnect(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr0, tr1, s0, s1 := newPair(t, Config{}, Config{})
		start := make(chan struct{})
		errs := make(chan error, 2)
		for _, snd := range []struct {
			tr   *TCP
			peer int
		}{{tr0, 1}, {tr1, 0}} {
			go func(tr *TCP, peer int) {
				<-start
				h := Header{Type: TypeEager, Tag: int32(round)}
				errs <- tr.Send(peer, &h, []byte{byte(peer)})
			}(snd.tr, snd.peer)
		}
		close(start)
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "both first frames", func() bool { return s0.count() == 1 && s1.count() == 1 })
		r0, r1 := tr0.Stats().Reconnects, tr1.Stats().Reconnects
		tr0.Close()
		tr1.Close()
		if r0 != 0 || r1 != 0 {
			t.Fatalf("round %d: Reconnects = %d / %d on a fault-free cross-dial, want 0 / 0", round, r0, r1)
		}
	}
}
