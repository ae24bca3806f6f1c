// Package wire is the inter-node transport under the MPI runtime: a
// length-prefixed binary frame protocol and a TCP implementation with
// per-peer pooled connections, write coalescing, an async progress
// goroutine per connection, and a sequence/ack reliability layer so a
// dropped connection (chaos, flaky network) is survived by reconnecting
// and retransmitting instead of losing messages.
//
// The package is deliberately free of runtime imports: internal/mpi
// layers the MPI semantics (eager payloads, the rendezvous RTS/CTS/DATA
// handshake, rank-failure notification) on top of the Frame type and the
// Transport/Sink interfaces defined here. internal/metrics reads the
// transport's own counters (Transport.Stats) and clock estimates
// (Transport.Clock); internal/chaos plugs in through FaultInjector.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Version is the frame-format version of this build, stamped on every
// frame. A world is always built from one source tree, so there is no
// negotiation: every frame kind and the span extension are always
// available, and a frame carrying any other version byte is refused
// with a *VersionError (see the Hello handshake in tcp.go).
const Version = 5

// Type enumerates the frame kinds of the protocol.
type Type uint8

const (
	// TypeHello opens a connection: it authenticates the peer (node id,
	// world key, version) and carries the receiver's resume point — the
	// next transport sequence number it expects — so the sender can
	// retransmit everything the old connection lost.
	TypeHello Type = iota + 1
	// TypeAck is a standalone cumulative acknowledgement, emitted when
	// one-way traffic gives the receiver no frame to piggyback its ack on.
	TypeAck
	// TypeEager carries a complete eager message: matching metadata plus
	// the payload.
	TypeEager
	// TypeRTS (ready-to-send) opens a rendezvous transfer: matching
	// metadata, no payload. The receiver answers with CTS once a matching
	// receive is posted.
	TypeRTS
	// TypeCTS (clear-to-send) tells the sender the receive is matched and
	// the payload may flow.
	TypeCTS
	// TypeData carries a rendezvous payload, correlated by Xid.
	TypeData
	// TypeFailure announces the death of a rank (ULFM-style), so remote
	// ranks fail fast instead of waiting for messages that cannot come.
	TypeFailure
	// TypeControl carries collective control payloads for layers above
	// the runtime (reserved; collectives built on p2p use Eager/RTS).
	TypeControl
	// TypePing is an unsequenced clock probe: Xid carries the
	// sender's wall clock in unix nanoseconds (t1). The receiver answers
	// immediately with TypePong.
	TypePing
	// TypePong answers a ping: Xid echoes t1, Ctx carries the
	// receive time t2, and the SendTS extension field carries the reply
	// time t3 — everything an NTP-style offset/RTT estimate needs.
	TypePong
	// TypeBatch is an unsequenced container: its payload is a
	// concatenation of complete encoded frames, each keeping its own
	// sequence number, so many small eager messages cost one wire write
	// and one length-prefixed read. The container's Ack field carries the
	// sender's cumulative ack at flush time. Batches are never
	// retransmitted as batches — the sub-frames live individually in the
	// unacked ring and are resent one by one after a reconnect.
	TypeBatch
	// TypeDataSeg carries one packed segment of a typed rendezvous
	// payload, correlated by Xid like TypeData. Elems holds the segment's
	// element offset within the packed message; the payload length gives
	// its span. Segments of one transfer arrive in order (the transport
	// serializes per-peer delivery) and the transfer completes when the
	// received element count reaches the total announced by the RTS.
	TypeDataSeg
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeAck:
		return "ack"
	case TypeEager:
		return "eager"
	case TypeRTS:
		return "rts"
	case TypeCTS:
		return "cts"
	case TypeData:
		return "data"
	case TypeFailure:
		return "failure"
	case TypeControl:
		return "control"
	case TypePing:
		return "ping"
	case TypePong:
		return "pong"
	case TypeBatch:
		return "batch"
	case TypeDataSeg:
		return "dataseg"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header is the fixed-size frame header. The integer fields mirror what
// the MPI matching engine needs (context, source, tag, element count)
// plus the transport's own sequencing; unused fields are zero for
// control frames.
type Header struct {
	Type Type
	// Kind is the element type of the payload as a reflect.Kind value.
	// Datatype matching across processes is by kind: a named scalar type
	// matches its underlying kind on the far side.
	Kind uint8
	// Seq is the transport-level sequence number of the frame on its
	// (sender, peer) stream; 0 marks an unsequenced control frame
	// (hello, ack, ping, pong) that is never retransmitted.
	Seq uint64
	// Ack acknowledges every sequenced frame up to and including Ack, in
	// the opposite direction. Piggybacked on every frame.
	Ack uint64
	// Xid correlates the RTS/CTS/DATA legs of one rendezvous transfer.
	Xid uint64
	// Ctx is the communication context (communicator + user/collective
	// split) the message belongs to.
	Ctx int64
	// SrcComm is the sender's rank within the communicator of Ctx.
	SrcComm int32
	// SrcWorld / DstWorld are world ranks: the sending task and the task
	// the frame is addressed to. For TypeFailure, SrcWorld is the dead
	// rank, and Tag is 1 when it died re-raising a peer's failure.
	SrcWorld int32
	DstWorld int32
	Tag      int32
	// Elems is the element count of the message (eager and RTS frames).
	Elems int32
	// PayloadLen is the byte length of the payload following the header.
	PayloadLen uint32

	// Span and SendTS travel in the header extension, present only when
	// at least one is nonzero: the sender's trace span id and send
	// timestamp, linking this frame's message into the cross-process
	// trace flow graph. Zero when tracing is off — the extension costs
	// nothing unless used.
	Span   uint64
	SendTS int64
}

// Frame is one decoded frame: the header plus its payload. Payload views
// a buffer supplied by the receiving Sink's Alloc (or an internal
// scratch buffer); Token is whatever Alloc returned alongside it, so the
// consumer can recycle the buffer.
type Frame struct {
	Header
	Payload []byte
	Token   any
}

// Frame wire format, little endian:
//
//	u32  frame length (everything after this field)
//	u8   version
//	u8   type
//	u8   kind
//	u8   flags (bit 0 = span extension present)
//	u64  seq
//	u64  ack
//	u64  xid
//	i64  ctx
//	i32  srcComm
//	i32  srcWorld
//	i32  dstWorld
//	i32  tag
//	i32  elems
//	u32  payloadLen
//	[u64 span, i64 sendTS]  (16 bytes, only when flags bit 0 is set)
//	...  payload (payloadLen bytes)
const (
	lenPrefixSize = 4
	headerSize    = 1 + 1 + 1 + 1 + 8 + 8 + 8 + 8 + 4*5 + 4 // after the length prefix
	frameOverhead = lenPrefixSize + headerSize

	// flagSpanExt announces the 16-byte span/timestamp extension between
	// the fixed header and the payload.
	flagSpanExt = 0x01
	extSize     = 8 + 8

	// maxFrameRead is the scratch a reader needs for the length prefix,
	// the fixed header and the largest extension.
	maxFrameRead = frameOverhead + extSize

	// MaxPayload bounds a single frame's payload. Eager messages are
	// bounded by the MPI eager limit; rendezvous payloads are sent whole
	// in one Data frame, so the cap is generous.
	MaxPayload = 1 << 30
)

// AppendFrame encodes header h and payload into dst and returns the
// extended slice. PayloadLen is taken from len(payload). The span
// extension is emitted only when h.Span or h.SendTS is nonzero, so
// frames from untraced runs carry the fixed header alone.
func AppendFrame(dst []byte, h *Header, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("wire: payload %d exceeds MaxPayload", len(payload)))
	}
	ext := hasExt(h)
	var flags byte
	if ext {
		flags |= flagSpanExt
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(encodedSize(h, len(payload))-lenPrefixSize))
	dst = append(dst, Version, byte(h.Type), h.Kind, flags)
	dst = binary.LittleEndian.AppendUint64(dst, h.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, h.Ack)
	dst = binary.LittleEndian.AppendUint64(dst, h.Xid)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Ctx))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.SrcComm))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.SrcWorld))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.DstWorld))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Tag))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(h.Elems))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	if ext {
		dst = binary.LittleEndian.AppendUint64(dst, h.Span)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(h.SendTS))
	}
	return append(dst, payload...)
}

// hasExt reports whether h's encoding carries the span extension.
func hasExt(h *Header) bool { return h.Span != 0 || h.SendTS != 0 }

// encodedSize is the exact length AppendFrame adds for header h and an
// n-byte payload, length prefix included.
func encodedSize(h *Header, n int) int {
	if hasExt(h) {
		return frameOverhead + extSize + n
	}
	return frameOverhead + n
}

// VersionError reports a frame whose version byte is not this build's
// Version: the peer runs a different build of the protocol. The version
// byte sits at the same offset in every revision, so this is the one
// check that holds across builds; the transport declares such a peer
// down rather than redialing it (see runReader and handleAccept).
type VersionError struct {
	Got uint8
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: peer frames at version %d, this build speaks version %d", e.Got, Version)
}

// decodeHeader parses the fixed header from buf (headerSize bytes, after
// the length prefix). It reports whether the span extension follows the
// fixed header; the caller consumes it with decodeExt.
func decodeHeader(h *Header, buf []byte) (ext bool, err error) {
	if v := buf[0]; v != Version {
		return false, &VersionError{Got: v}
	}
	flags := buf[3]
	if flags&^byte(flagSpanExt) != 0 {
		return false, fmt.Errorf("wire: unknown frame flags %#x", flags)
	}
	h.Type = Type(buf[1])
	h.Kind = buf[2]
	h.Seq = binary.LittleEndian.Uint64(buf[4:])
	h.Ack = binary.LittleEndian.Uint64(buf[12:])
	h.Xid = binary.LittleEndian.Uint64(buf[20:])
	h.Ctx = int64(binary.LittleEndian.Uint64(buf[28:]))
	h.SrcComm = int32(binary.LittleEndian.Uint32(buf[36:]))
	h.SrcWorld = int32(binary.LittleEndian.Uint32(buf[40:]))
	h.DstWorld = int32(binary.LittleEndian.Uint32(buf[44:]))
	h.Tag = int32(binary.LittleEndian.Uint32(buf[48:]))
	h.Elems = int32(binary.LittleEndian.Uint32(buf[52:]))
	h.PayloadLen = binary.LittleEndian.Uint32(buf[56:])
	h.Span = 0
	h.SendTS = 0
	return flags&flagSpanExt != 0, nil
}

// decodeExt parses the span extension (extSize bytes following the fixed
// header) into h.
func decodeExt(h *Header, buf []byte) {
	h.Span = binary.LittleEndian.Uint64(buf)
	h.SendTS = int64(binary.LittleEndian.Uint64(buf[8:]))
}

// readHeader reads one frame's length prefix, header and optional
// extension from r. It returns the payload length still to be consumed
// from r.
func readHeader(r io.Reader, h *Header, scratch *[maxFrameRead]byte) (int, error) {
	if _, err := io.ReadFull(r, scratch[:lenPrefixSize]); err != nil {
		return 0, err
	}
	frameLen := binary.LittleEndian.Uint32(scratch[:lenPrefixSize])
	if frameLen < headerSize || frameLen > headerSize+extSize+MaxPayload {
		return 0, fmt.Errorf("wire: frame length %d out of range", frameLen)
	}
	if _, err := io.ReadFull(r, scratch[lenPrefixSize:frameOverhead]); err != nil {
		return 0, err
	}
	ext, err := decodeHeader(h, scratch[lenPrefixSize:frameOverhead])
	if err != nil {
		return 0, err
	}
	want := int(frameLen) - headerSize
	if ext {
		if want < extSize {
			return 0, fmt.Errorf("wire: frame length %d too short for extension", frameLen)
		}
		if _, err := io.ReadFull(r, scratch[frameOverhead:frameOverhead+extSize]); err != nil {
			return 0, err
		}
		decodeExt(h, scratch[frameOverhead:frameOverhead+extSize])
		want -= extSize
	}
	if int(h.PayloadLen) != want {
		return 0, fmt.Errorf("wire: payload length %d inconsistent with frame length %d", h.PayloadLen, frameLen)
	}
	return int(h.PayloadLen), nil
}

// BatchError reports a malformed TypeBatch payload: a truncated or
// inconsistent sub-frame, or an illegally nested batch. The transport
// severs the connection with it, so a corrupt batch surfaces as a typed
// error instead of a desynchronized stream.
type BatchError struct {
	// Frames counts the sub-frames decoded successfully before the fault.
	Frames int
	// Reason describes the fault.
	Reason string
	// Err is the underlying sub-frame decode error, if any.
	Err error
}

func (e *BatchError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wire: batch frame corrupt after %d sub-frames: %s: %v", e.Frames, e.Reason, e.Err)
	}
	return fmt.Sprintf("wire: batch frame corrupt after %d sub-frames: %s", e.Frames, e.Reason)
}

func (e *BatchError) Unwrap() error { return e.Err }

// DecodeBatch walks the payload of a TypeBatch frame — a concatenation
// of complete encoded frames — decoding each sub-frame's header into h
// and calling fn with its payload (a view into payload, valid only
// during the call). The caller owns h, so the walk allocates nothing; h
// holds the last sub-frame decoded when DecodeBatch returns. It returns
// the number of sub-frames delivered; any structural fault yields a
// *BatchError. An error from fn aborts the walk and is returned as-is.
func DecodeBatch(payload []byte, h *Header, fn func(sub []byte) error) (int, error) {
	n := 0
	for off := 0; off < len(payload); {
		if len(payload)-off < frameOverhead {
			return n, &BatchError{Frames: n, Reason: "truncated sub-frame header"}
		}
		frameLen := int(binary.LittleEndian.Uint32(payload[off:]))
		if frameLen < headerSize || frameLen > headerSize+extSize+MaxPayload {
			return n, &BatchError{Frames: n, Reason: fmt.Sprintf("sub-frame length %d out of range", frameLen)}
		}
		end := off + lenPrefixSize + frameLen
		if end > len(payload) {
			return n, &BatchError{Frames: n, Reason: "sub-frame extends past batch payload"}
		}
		ext, err := decodeHeader(h, payload[off+lenPrefixSize:off+frameOverhead])
		if err != nil {
			return n, &BatchError{Frames: n, Reason: "sub-frame header", Err: err}
		}
		body := payload[off+frameOverhead : end]
		if ext {
			if len(body) < extSize {
				return n, &BatchError{Frames: n, Reason: "sub-frame too short for extension"}
			}
			decodeExt(h, body[:extSize])
			body = body[extSize:]
		}
		if int(h.PayloadLen) != len(body) {
			return n, &BatchError{Frames: n, Reason: fmt.Sprintf("sub-frame payload length %d inconsistent with frame length %d", h.PayloadLen, frameLen)}
		}
		if h.Type == TypeBatch {
			return n, &BatchError{Frames: n, Reason: "nested batch frame"}
		}
		if err := fn(body); err != nil {
			return n, err
		}
		n++
		off = end
	}
	if n == 0 {
		return 0, &BatchError{Reason: "empty batch"}
	}
	return n, nil
}
