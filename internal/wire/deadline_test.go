package wire

import (
	"net"
	"testing"
	"time"
)

// TestStuckWriteSeveredWithinBound plays a node 1 that completes the
// Hello and then stops reading. Sends to it fill the socket buffers
// until one blocks in the kernel; the write deadline must sever that
// connection no earlier than WriteTimeout after the blocked Send began
// and no later than 2*WriteTimeout (Config.WriteTimeout's bound). The
// test idles for 0.4*WriteTimeout after the handshake first, so a
// deadline refreshed too lazily (one left with less than WriteTimeout to
// run) fails a stuck write early. The transport then redials: a second
// connection shows the first was severed.
func TestStuckWriteSeveredWithinBound(t *testing.T) {
	const wt = 300 * time.Millisecond
	tr0, _, ln1 := newLoneTCP(t, Config{WorldKey: 7, WriteTimeout: wt})

	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	conn, err := ln1.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var scratch [maxFrameRead]byte
	var hello Header
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := readHeader(conn, &hello, &scratch); err != nil || hello.Type != TypeHello {
		t.Fatalf("no hello: %+v err=%v", hello, err)
	}
	if _, err := conn.Write(helloAt(Version)); err != nil {
		t.Fatal(err)
	}
	// Hello and the retransmitted warm frame: the connection is ready.
	waitFor(t, "handshake", func() bool { return tr0.Stats().FramesSent == 2 })
	time.Sleep(wt * 4 / 10)

	blocked := make(chan time.Duration, 1)
	go func() {
		payload := make([]byte, 256<<10)
		for i := 0; i < 256; i++ {
			start := time.Now()
			if err := tr0.Send(1, &Header{Type: TypeEager}, payload); err != nil {
				break
			}
			if d := time.Since(start); d >= wt/4 {
				blocked <- d
				return
			}
		}
		close(blocked)
	}()
	select {
	case d, ok := <-blocked:
		if !ok {
			t.Fatal("64 MiB of Sends to a peer that reads nothing never blocked")
		}
		if d < wt || d > 2*wt+wt/2 {
			t.Fatalf("the stuck Send returned after %v, want between WriteTimeout (%v) and 2*WriteTimeout (%v)", d, wt, 2*wt)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Send stuck on a peer that reads nothing was never severed")
	}

	ln1.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	again, err := ln1.Accept()
	if err != nil {
		t.Fatalf("no redial after the stuck write: %v", err)
	}
	again.Close()
}
