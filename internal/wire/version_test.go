package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// newLoneTCP builds node 0 of a two-node world, bound to a recording
// sink, and returns node 1's listener unserved so a test can play node 1
// by hand with raw frames.
func newLoneTCP(t *testing.T, cfg Config) (*TCP, *testSink, net.Listener) {
	t.Helper()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addrs, cfg.Self = []string{ln0.Addr().String(), ln1.Addr().String()}, 0
	tr, err := NewTCP(cfg, ln0)
	if err != nil {
		t.Fatal(err)
	}
	sink := newTestSink()
	tr.Bind(sink)
	t.Cleanup(func() { tr.Close(); ln1.Close() })
	return tr, sink, ln1
}

// helloAt encodes node 1's Hello for world key 7, stamped with version v.
func helloAt(v uint8) []byte {
	enc := AppendFrame(nil, &Header{Type: TypeHello, Xid: 7, SrcWorld: 1}, nil)
	enc[lenPrefixSize] = v
	return enc
}

// TestTCPRefusesOlderPeer plays a build of an older protocol revision
// against the transport: it answers the transport's Hello with its own,
// stamped with its version. There is nothing to negotiate down to, so
// the transport must declare the peer down with a *VersionError — at
// once, without delivering the frame it had queued and without redialing
// a peer no reconnect can make compatible.
func TestTCPRefusesOlderPeer(t *testing.T) {
	tr0, s0, ln1 := newLoneTCP(t, Config{WorldKey: 7})

	// Queue a traced frame: it waits in the unacked ring for a handshake
	// that never completes.
	h := Header{Type: TypeEager, Tag: 11, DstWorld: 1, Span: 31337, SendTS: 1234}
	if err := tr0.Send(1, &h, []byte("old peer")); err != nil {
		t.Fatal(err)
	}
	conn, err := ln1.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck

	var scratch [maxFrameRead]byte
	var hello Header
	if _, err := readHeader(conn, &hello, &scratch); err != nil || hello.Type != TypeHello {
		t.Fatalf("no hello at version %d: %+v err=%v", Version, hello, err)
	}
	if _, err := conn.Write(helloAt(Version - 1)); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-s0.downCh:
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != Version-1 {
			t.Fatalf("PeerDown cause %v, want *VersionError{Got: %d}", err, Version-1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer of another version never declared down")
	}
	// The connection is closed with nothing written past the Hello: the
	// queued frame never reached a peer that could misparse it.
	if n, err := conn.Read(scratch[:1]); err == nil {
		t.Fatalf("read %d bytes after the refused handshake", n)
	}
	var pd *PeerDownError
	if err := tr0.Send(1, &Header{Type: TypeEager}, []byte("y")); !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("send to the refused peer: %v", err)
	}
	ln1.(*net.TCPListener).SetDeadline(time.Now().Add(300 * time.Millisecond)) //nolint:errcheck
	if c, err := ln1.Accept(); err == nil {
		c.Close()
		t.Fatal("transport redialed a peer refused for its version")
	}
	if st := tr0.Stats(); st.Reconnects != 0 || s0.count() != 0 {
		t.Fatalf("refused peer: reconnects=%d delivered=%d", st.Reconnects, s0.count())
	}
}

// TestTCPAnswersMismatchedHello dials the transport as a build of a newer
// protocol revision. The acceptor must not adopt the connection, but it
// answers with its own Hello before closing, so the dialer's reader hits
// the same *VersionError (and gives up) instead of redialing a silent
// close forever.
func TestTCPAnswersMismatchedHello(t *testing.T) {
	tr0, s0, _ := newLoneTCP(t, Config{WorldKey: 7})
	conn, err := net.Dial("tcp", tr0.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(helloAt(Version + 1)); err != nil {
		t.Fatal(err)
	}

	var scratch [maxFrameRead]byte
	var hello Header
	if _, err := readHeader(conn, &hello, &scratch); err != nil {
		t.Fatalf("no hello answer: %v", err)
	}
	if hello.Type != TypeHello || hello.SrcWorld != 0 || hello.Xid != 7 {
		t.Fatalf("answer is not node 0's hello: %+v", hello)
	}
	if n, err := conn.Read(scratch[:1]); err == nil {
		t.Fatalf("connection adopted: read %d more bytes", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("acceptor kept a mismatched connection open")
	}
	if s0.count() != 0 {
		t.Fatalf("frames delivered from a mismatched dialer: %d", s0.count())
	}
}
