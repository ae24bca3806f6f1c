package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzWireFrame feeds arbitrary bytes to the frame decoders a reader
// runs on untrusted stream input: readHeader plus the payload read that
// follows it, frame after frame, and DecodeBatch on the raw bytes and on
// every batch container the stream yields. Neither may panic or consume
// bytes that are not there; a batch fault must surface as a *BatchError,
// a wrong version byte as a *VersionError. The same bytes, cut into
// header fields, must survive AppendFrame followed by readHeader.
func FuzzWireFrame(f *testing.F) {
	plain := AppendFrame(nil, &Header{
		Type: TypeEager, Kind: 8, Seq: 42, Ack: 41, Xid: 7,
		Ctx: -3, SrcComm: 1, SrcWorld: 2, DstWorld: 5, Tag: 99, Elems: 4,
	}, []byte("hello, wire"))
	spanned := AppendFrame(nil, &Header{
		Type: TypeEager, Kind: 8, Seq: 3, Ack: 2, Xid: 1,
		Ctx: 10, SrcWorld: 1, DstWorld: 2, Tag: 7, Elems: 4,
		Span: 0x123456789a, SendTS: 987654321,
	}, []byte("span payload"))
	badVer := append([]byte(nil), plain...)
	badVer[lenPrefixSize] = Version + 1
	var batch []byte
	batch = AppendFrame(batch, &Header{Type: TypeEager, Seq: 1, Tag: 10, DstWorld: 1}, []byte("first"))
	batch = AppendFrame(batch, &Header{Type: TypeEager, Seq: 2, Tag: 11, DstWorld: 1, Span: 77, SendTS: 88}, []byte("second"))
	batch = AppendFrame(batch, &Header{Type: TypeRTS, Seq: 3, Xid: 5, Elems: 2048}, nil)
	nested := AppendFrame(append([]byte(nil), plain...), &Header{Type: TypeBatch}, []byte("x"))
	for _, seed := range [][]byte{
		plain, spanned, badVer, batch, nested,
		append(append([]byte(nil), plain...), spanned...),
		AppendFrame(nil, &Header{Type: TypeBatch, Seq: 4}, batch),
		AppendFrame(nil, &Header{Type: TypeAck}, nil),
		plain[:frameOverhead-1],
		append(append([]byte(nil), plain...), plain[:len(plain)-1]...),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameStream(t, data)
		checkBatch(t, data)
		checkHeaderRoundTrip(t, data)
	})
}

// checkFrameStream decodes data as a reader's stream: header, payload,
// next header, until the first error.
func checkFrameStream(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	var h Header
	var scratch [maxFrameRead]byte
	for r.Len() > 0 {
		start := len(data) - r.Len()
		plen, err := readHeader(r, &h, &scratch)
		if err != nil {
			checkVersionFault(t, data[start:], err)
			return
		}
		hdr := len(data) - r.Len() - start
		flags := data[start+lenPrefixSize+3]
		if want := frameOverhead + extSize*int(flags&flagSpanExt); hdr != want {
			t.Fatalf("readHeader consumed %d header bytes, want %d", hdr, want)
		}
		if plen != int(h.PayloadLen) {
			t.Fatalf("readHeader returned %d payload bytes, header says %d", plen, h.PayloadLen)
		}
		// Read the payload the way a reader does, without sizing a
		// buffer from the untrusted length first.
		var payload bytes.Buffer
		if n, err := io.CopyN(&payload, r, int64(plen)); err != nil {
			if n != int64(len(data)-start-hdr) || !errors.Is(err, io.EOF) {
				t.Fatalf("short payload read %d of %d: %v", n, plen, err)
			}
			return
		}
		frame := data[start : start+hdr+plen]
		enc := AppendFrame(nil, &h, payload.Bytes())
		// A set extension flag with a zero span and timestamp re-encodes
		// without the extension; every other frame re-encodes exactly.
		if (hasExt(&h) || flags&flagSpanExt == 0) && !bytes.Equal(enc, frame) {
			t.Fatalf("frame re-encodes differently:\n got  %x\n want %x", enc, frame)
		}
		if h.Type == TypeBatch {
			checkBatch(t, payload.Bytes())
		}
	}
}

// checkVersionFault checks a readHeader error against the bytes it was
// given: a complete, in-range header with a foreign version byte must be
// refused as a *VersionError naming that byte, and a *VersionError must
// not be reported for any other input.
func checkVersionFault(t *testing.T, rest []byte, err error) {
	var ve *VersionError
	isVer := errors.As(err, &ve)
	foreign := len(rest) >= frameOverhead && rest[lenPrefixSize] != Version &&
		frameLenOK(binary.LittleEndian.Uint32(rest))
	if foreign != isVer {
		t.Fatalf("readHeader error %v, foreign version byte: %v", err, foreign)
	}
	if isVer && ve.Got != rest[lenPrefixSize] {
		t.Fatalf("VersionError names version %d, frame carries %d", ve.Got, rest[lenPrefixSize])
	}
}

func frameLenOK(n uint32) bool { return n >= headerSize && n <= headerSize+extSize+MaxPayload }

// checkBatch walks data as a batch payload. Every sub-frame must be a
// view of data right after the previous one, and must decode the same
// way through readHeader into a fresh header, although DecodeBatch
// reuses one that starts dirty; a fault must be a *BatchError counting
// the sub-frames delivered before it.
func checkBatch(t *testing.T, data []byte) {
	next := 0 // where the next sub-frame starts
	h := &Header{Type: TypeBatch, Kind: 0xff, Seq: ^uint64(0), Ack: 1, Xid: 1, Ctx: -1,
		SrcComm: -1, SrcWorld: -1, DstWorld: -1, Tag: -1, Elems: -1, PayloadLen: 1, Span: 1, SendTS: 1}
	n, err := DecodeBatch(data, h, func(sub []byte) error {
		at := cap(data) - cap(sub) // sub views data[at : at+len(sub)]
		end := at + len(sub)
		if at < next || end > len(data) {
			t.Fatalf("sub-frame payload [%d,%d) outside the batch [%d,%d)", at, end, next, len(data))
		}
		if h.Type == TypeBatch {
			t.Fatal("nested batch frame delivered")
		}
		var rh Header
		var scratch [maxFrameRead]byte
		r := bytes.NewReader(data[next:end])
		plen, err := readHeader(r, &rh, &scratch)
		if err != nil || plen != len(sub) || r.Len() != plen || rh != *h {
			t.Fatalf("sub-frame at %d: readHeader gives %+v, %d bytes, %v; DecodeBatch gave %+v, %d bytes",
				next, rh, plen, err, *h, len(sub))
		}
		next = end
		return nil
	})
	if err == nil {
		if n == 0 || next != len(data) {
			t.Fatalf("batch of %d bytes decoded %d sub-frames up to %d without error", len(data), n, next)
		}
		return
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("batch fault is %T (%v), want *BatchError", err, err)
	}
	if be.Frames != n {
		t.Fatalf("BatchError counts %d sub-frames, DecodeBatch returned %d", be.Frames, n)
	}
	rest := data[next:]
	if len(rest) >= frameOverhead && rest[lenPrefixSize] != Version {
		fl := binary.LittleEndian.Uint32(rest)
		var ve *VersionError
		if frameLenOK(fl) && lenPrefixSize+int(fl) <= len(rest) && !errors.As(err, &ve) {
			t.Fatalf("sub-frame with version byte %d: %v, want a *VersionError inside", rest[lenPrefixSize], err)
		}
	}
}

// checkHeaderRoundTrip cuts data into header fields and a payload and
// requires readHeader to return exactly what AppendFrame encoded.
func checkHeaderRoundTrip(t *testing.T, data []byte) {
	const fields = 1 + 1 + 8*4 + 4*5 + 8*2
	var raw [fields]byte
	copy(raw[:], data)
	payload := data[min(len(data), fields):]
	le := binary.LittleEndian
	h := Header{
		Type: Type(raw[0]), Kind: raw[1],
		Seq: le.Uint64(raw[2:]), Ack: le.Uint64(raw[10:]), Xid: le.Uint64(raw[18:]),
		Ctx:      int64(le.Uint64(raw[26:])),
		SrcComm:  int32(le.Uint32(raw[34:])),
		SrcWorld: int32(le.Uint32(raw[38:])),
		DstWorld: int32(le.Uint32(raw[42:])),
		Tag:      int32(le.Uint32(raw[46:])),
		Elems:    int32(le.Uint32(raw[50:])),
		Span:     le.Uint64(raw[54:]),
		SendTS:   int64(le.Uint64(raw[62:])),
	}
	enc := AppendFrame(nil, &h, payload)
	if len(enc) != encodedSize(&h, len(payload)) {
		t.Fatalf("AppendFrame wrote %d bytes, encodedSize says %d", len(enc), encodedSize(&h, len(payload)))
	}
	var got Header
	var scratch [maxFrameRead]byte
	r := bytes.NewReader(enc)
	plen, err := readHeader(r, &got, &scratch)
	if err != nil {
		t.Fatalf("readHeader of an AppendFrame encoding: %v", err)
	}
	h.PayloadLen = uint32(len(payload))
	if got != h || plen != len(payload) {
		t.Fatalf("header round trip:\n got  %+v (%d payload bytes)\n want %+v", got, plen, h)
	}
	if !bytes.Equal(enc[len(enc)-r.Len():], payload) {
		t.Fatal("payload does not follow the header")
	}
}
