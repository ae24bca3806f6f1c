package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"hls/internal/wire"
)

// WireConfig attaches an inter-node transport to a world, so one MPI
// world spans one process per node: each process runs the tasks pinned
// to its node (Config.Machine + Config.Pin decide which), delivers
// same-node messages through the in-process datapath as before, and
// routes messages to ranks on other nodes over the transport.
type WireConfig struct {
	// Transport connects this process to the other nodes. Its Self() is
	// this process's node, and Peers() must equal Machine.Nodes(). Build
	// one with wire.NewTCP; the world binds and, at the end of Run,
	// closes it.
	Transport wire.Transport
}

// wirePendingSend is a rendezvous send parked on its CTS. Pooled: onCTS
// recycles it once the data has gone to the transport; a record taken
// off the table by a failure is left to the GC.
type wirePendingSend struct {
	msg      *message
	src, dst int // world ranks

	// h frames the data. It lives in the record so the transport call
	// boxes no fresh header per transfer.
	h wire.Header
}

var wireSendPool = sync.Pool{New: func() any { return new(wirePendingSend) }}

func putWireSend(ps *wirePendingSend) {
	*ps = wirePendingSend{}
	wireSendPool.Put(ps)
}

// wirePendingRecv is a matched remote rendezvous waiting for its data
// frame; the payload is read off the socket directly into pr's buffer.
// Pooled like wirePendingSend: completeWireRecv recycles it, and the
// failure paths leave it to the GC together with pr.
type wirePendingRecv struct {
	// h frames the CTS answering the RTS.
	h wire.Header

	xid     uint64
	pr      *postedRecv
	src     int // world rank of the sender
	srcComm int // sender's rank in the message's communicator
	tag     int
	elems   int
	bytes   int

	// got counts the packed elements received so far on the pipelined
	// segment path (TypeDataSeg). Segments of one transfer arrive on one
	// transport goroutine (per-peer delivery is serialized), so plain
	// increments suffice; the transfer completes when got reaches elems.
	got int

	// span / sendNs from the RTS frame, reported to TraceHooks when the
	// data frame completes the receive.
	span   uint64
	sendNs int64
}

var wireRecvPool = sync.Pool{New: func() any { return new(wirePendingRecv) }}

func putWireRecv(wr *wirePendingRecv) {
	*wr = wirePendingRecv{}
	wireRecvPool.Put(wr)
}

// netLayer implements wire.Sink and owns the world's distributed state:
// rank→node routing, the rendezvous transaction tables, and the
// failure-frame protocol. Lock order: endpoint/recv locks are always
// taken before netLayer.mu, which is always taken before transport
// internals — netLayer methods never call back into the endpoint layer
// while holding mu.
type netLayer struct {
	w      *World
	tr     wire.Transport
	self   int   // this process's node
	nodeOf []int // world rank -> node

	mu     sync.Mutex
	xidSeq uint64
	sends  map[uint64]*wirePendingSend
	recvs  map[uint64]*wirePendingRecv
	// draining is stored under mu (with the table swap in shutdown), so a
	// check made under mu is ordered against the swap; the per-frame
	// checks in onEager and onRTS read it without the lock.
	draining atomic.Bool
}

func (w *World) initWire(cfg *WireConfig) error {
	tr := cfg.Transport
	if tr == nil {
		return fmt.Errorf("mpi: WireConfig.Transport is nil")
	}
	if got, want := tr.Peers(), w.machine.Nodes(); got != want {
		return fmt.Errorf("mpi: transport spans %d nodes, machine has %d", got, want)
	}
	if tr.Self() < 0 || tr.Self() >= w.machine.Nodes() {
		return fmt.Errorf("mpi: transport self %d out of range [0,%d)", tr.Self(), w.machine.Nodes())
	}
	n := &netLayer{
		w:      w,
		tr:     tr,
		self:   tr.Self(),
		nodeOf: w.pin.NodeOf(),
		sends:  make(map[uint64]*wirePendingSend),
		recvs:  make(map[uint64]*wirePendingRecv),
	}
	local := 0
	for _, node := range n.nodeOf {
		if node == n.self {
			local++
		}
	}
	if local == 0 {
		return fmt.Errorf("mpi: no rank is pinned to node %d under this machine/pin policy", n.self)
	}
	w.net = n
	if tr.Batching() {
		w.idle = &idleFlush{tr: tr}
	}
	return nil
}

// idleFlush flushes a batched world's pending batches the moment every
// local task is blocked: after that no batch can grow, so waiting out
// the window would only add latency. busy counts the local tasks that
// are running or have been woken but have not run yet. Run starts it at
// the local task count and a returning task takes one off. Beyond Run
// the count moves in two places only. park, under every request wait
// (Task.await, Waitall, Waitany), takes the waiter off; the completer
// that claims a parked request (claimParked) adds it back before the
// waiter runs. Task.enter/leave, under Probe's cond wait and every
// Block/Unblock bracket (the fast-path collective phases, hls and rma
// waits), take the task off and add it back when it runs again; a
// bracket is closed before its wait raises, so the raising task's exit
// takes it off only once.
// Whoever moves the count to zero flushes. The window still bounds every
// batch, so a miscount can only flush early or fall back to the window:
// it cannot lose, reorder or strand a frame.
type idleFlush struct {
	busy atomic.Int32
	tr   wire.Transport
}

func (f *idleFlush) add(d int32) {
	if f.busy.Add(d) == 0 {
		f.tr.Flush()
	}
}

// localRank reports whether world rank r runs in this process.
func (n *netLayer) localRank(r int) bool { return n.nodeOf[r] == n.self }

// localRanks returns the world ranks this process runs, all of them for
// a single-process world.
func (w *World) localRanks() []int {
	if w.net == nil {
		out := make([]int, w.cfg.NumTasks)
		for r := range out {
			out[r] = r
		}
		return out
	}
	var out []int
	for r, node := range w.net.nodeOf {
		if node == w.net.self {
			out = append(out, r)
		}
	}
	return out
}

// WireStats snapshots the transport counters of a distributed world; ok
// is false for single-process worlds.
func (w *World) WireStats() (wire.Stats, bool) {
	if w.net == nil {
		return wire.Stats{}, false
	}
	return w.net.tr.Stats(), true
}

// kindTypes maps each wire-encodable reflect.Kind to its canonical Go
// type, the element type under which remote messages enter the matching
// engine (kind-only matching; see typesMatch). int and uint are 64-bit
// on every supported platform.
var kindTypes = map[reflect.Kind]reflect.Type{
	reflect.Int:     reflect.TypeOf(int(0)),
	reflect.Int8:    reflect.TypeOf(int8(0)),
	reflect.Int16:   reflect.TypeOf(int16(0)),
	reflect.Int32:   reflect.TypeOf(int32(0)),
	reflect.Int64:   reflect.TypeOf(int64(0)),
	reflect.Uint:    reflect.TypeOf(uint(0)),
	reflect.Uint8:   reflect.TypeOf(uint8(0)),
	reflect.Uint16:  reflect.TypeOf(uint16(0)),
	reflect.Uint32:  reflect.TypeOf(uint32(0)),
	reflect.Uint64:  reflect.TypeOf(uint64(0)),
	reflect.Float32: reflect.TypeOf(float32(0)),
	reflect.Float64: reflect.TypeOf(float64(0)),
}

// isendRemote is isend's over-the-wire tail: the destination rank runs
// in another process. Eager messages are encoded into a frame (the
// transport copies the payload before Send returns, so the message is
// complete immediately, like the in-process eager path); rendezvous
// sends park in the transaction table and the frame exchange
// RTS → CTS → Data completes sreq once the receiver has matched.
func (n *netLayer) isendRemote(t *Task, msg *message, worldDst int, op string) *Request {
	w := n.w
	sreq := msg.sreq
	dup := false
	if w.faultHooks != nil {
		act := w.faultHooks.FaultP2P(t.rank, worldDst, msg.bytes, msg.rendezvous)
		if act.Delay > 0 {
			time.Sleep(act.Delay)
			t.checkPeer(op, worldDst)
		}
		if act.Drop {
			if sreq != nil {
				sreq.complete(Status{})
			}
			putMessage(msg)
			return sreq
		}
		// Duplicate applies to eager frames; a duplicated RTS would open
		// a second rendezvous transaction nobody answers.
		dup = act.Duplicate && !msg.rendezvous && msg.bytes > 0
	}
	w.stats.messages.Add(1)
	w.stats.bytes.Add(int64(msg.bytes))
	node := n.nodeOf[worldDst]
	h := &w.eps[t.rank].wireHdr
	*h = wire.Header{
		Kind:     uint8(msg.etype.Kind()),
		Ctx:      msg.ctx,
		SrcComm:  int32(msg.src),
		SrcWorld: int32(t.rank),
		DstWorld: int32(worldDst),
		Tag:      int32(msg.tag),
		Elems:    int32(msg.elems),
		// Trace context rides the frame extension (zero when tracing is
		// off, which elides the extension entirely).
		Span:   msg.span,
		SendTS: msg.sendNs,
	}
	if msg.rendezvous {
		h.Type = wire.TypeRTS
		n.mu.Lock()
		// The dead check shares mu with onRankFailed's table scan: either
		// the scan already ran (the death is visible here) or it runs
		// after this registration and fails the parked send. Checked
		// outside the mutex, a death could slip between check and
		// registration and the send would park forever.
		if w.rankDead(worldDst) {
			n.mu.Unlock()
			putMessage(msg)
			panic(&DeadRankError{Rank: t.rank, Op: op, Dead: worldDst})
		}
		n.xidSeq++
		// Xids carry the sending node in the high bits so transactions
		// from different processes can never collide at the receiver.
		xid := uint64(n.self+1)<<48 | n.xidSeq
		h.Xid = xid
		ps := wireSendPool.Get().(*wirePendingSend)
		ps.msg, ps.src, ps.dst = msg, t.rank, worldDst
		n.sends[xid] = ps
		n.mu.Unlock()
		if err := n.tr.Send(node, h, nil); err != nil {
			n.mu.Lock()
			delete(n.sends, xid)
			n.mu.Unlock()
			putMessage(msg)
			panic(&DeadRankError{Rank: t.rank, Op: op, Dead: worldDst})
		}
		return sreq
	}
	h.Type = wire.TypeEager
	// A typed eager message packs into a pooled buffer before framing:
	// the wire carries dense payloads only, and the transport copies the
	// frame before Send returns, so the scratch is released immediately.
	var pb *eagerBuf
	if msg.sdt != nil {
		pb = w.pool.get(t.rank, msg.bytes)
		dtPack(pb.data[:msg.bytes], msg.sdata, msg.sdt, int(msg.etype.Size()))
		msg.sdata = pb.data[:msg.bytes]
		msg.sdt = nil
	}
	err := n.tr.Send(node, h, msg.sdata)
	if err == nil && dup {
		err = n.tr.Send(node, h, msg.sdata)
	}
	if pb != nil {
		w.pool.release(pb)
	}
	putMessage(msg)
	if err != nil {
		panic(&DeadRankError{Rank: t.rank, Op: op, Dead: worldDst})
	}
	return nil
}

// sink implementation ------------------------------------------------

// Alloc supplies receive buffers so payloads are read off the socket
// with no intermediate copy: eager payloads land in a pooled eager
// buffer (acquired without rank identity — the progress goroutine has
// none), rendezvous data frames land directly in the posted receive's
// buffer, claimed from the transaction table. A claim is undone by Free
// if the read fails mid-payload, so the retransmitted frame can claim
// again.
func (n *netLayer) Alloc(peer int, h *wire.Header) ([]byte, any) {
	switch h.Type {
	case wire.TypeEager:
		if h.PayloadLen == 0 {
			return nil, nil
		}
		b := n.w.pool.get(poolNoRank, int(h.PayloadLen))
		return b.data[:h.PayloadLen], b
	case wire.TypeData:
		n.mu.Lock()
		wr := n.recvs[h.Xid]
		// A strided receive (rdt != nil) must not let packed bytes land
		// raw in its buffer: the claim is refused and the payload arrives
		// in a pooled scratch instead, unpacked by onData.
		if wr != nil && wr.bytes == int(h.PayloadLen) && wr.pr.rdt == nil {
			delete(n.recvs, h.Xid)
			n.mu.Unlock()
			return wr.pr.rdata[:h.PayloadLen], wr
		}
		n.mu.Unlock()
		if h.PayloadLen == 0 {
			return nil, nil
		}
		b := n.w.pool.get(poolNoRank, int(h.PayloadLen))
		return b.data[:h.PayloadLen], b
	case wire.TypeDataSeg:
		if h.PayloadLen == 0 {
			return nil, nil
		}
		b := n.w.pool.get(poolNoRank, int(h.PayloadLen))
		return b.data[:h.PayloadLen], b
	}
	return nil, nil
}

// Free returns a buffer whose frame was dropped by the transport.
func (n *netLayer) Free(peer int, token any) {
	switch v := token.(type) {
	case *eagerBuf:
		n.w.pool.release(v)
	case *wirePendingRecv:
		n.mu.Lock()
		n.recvs[v.xid] = v // un-claim: the data frame will be retransmitted
		n.mu.Unlock()
	}
}

// Frame routes one delivered frame. Runs on a transport progress
// goroutine; per-peer delivery is serialized by the transport, so
// injection order equals the sender's send order (non-overtaking across
// the wire).
func (n *netLayer) Frame(peer int, f *wire.Frame) {
	switch f.Type {
	case wire.TypeEager:
		n.onEager(f)
	case wire.TypeRTS:
		n.onRTS(peer, f)
	case wire.TypeCTS:
		n.onCTS(f)
	case wire.TypeData:
		n.onData(f)
	case wire.TypeDataSeg:
		n.onDataSeg(f)
	case wire.TypeFailure:
		n.onFailure(f)
	}
}

// frameDst validates the destination rank of a frame; returns -1 for
// frames this process must drop (malformed or mis-routed).
func (n *netLayer) frameDst(f *wire.Frame) int {
	dst := int(f.DstWorld)
	if dst < 0 || dst >= len(n.nodeOf) || !n.localRank(dst) {
		return -1
	}
	return dst
}

func (n *netLayer) onEager(f *wire.Frame) {
	w := n.w
	buf, _ := f.Token.(*eagerBuf)
	release := func() {
		if buf != nil {
			w.pool.release(buf)
		}
	}
	dst := n.frameDst(f)
	etype := kindTypes[reflect.Kind(f.Kind)]
	if dst < 0 || etype == nil || n.draining.Load() {
		release()
		return
	}
	m := getMessage()
	m.ctx = f.Ctx
	m.src = int(f.SrcComm)
	m.tag = int(f.Tag)
	m.elems = int(f.Elems)
	m.bytes = int(f.PayloadLen)
	m.etype = etype
	m.kindOnly = true
	m.sdata = f.Payload
	m.payload = buf
	m.span = f.Span
	m.sendNs = f.SendTS
	if !w.inject(m, int(f.SrcWorld), dst) {
		release()
		putMessage(m)
	}
}

func (n *netLayer) onRTS(peer int, f *wire.Frame) {
	w := n.w
	dst := n.frameDst(f)
	etype := kindTypes[reflect.Kind(f.Kind)]
	if dst < 0 || etype == nil || n.draining.Load() {
		return
	}
	m := getMessage()
	m.ctx = f.Ctx
	m.src = int(f.SrcComm)
	m.tag = int(f.Tag)
	m.elems = int(f.Elems)
	m.bytes = int(f.Elems) * int(etype.Size())
	m.etype = etype
	m.kindOnly = true
	m.rendezvous = true
	m.wireXid = f.Xid
	m.wireNode = peer
	m.wireSrc = int(f.SrcWorld)
	m.span = f.Span
	m.sendNs = f.SendTS
	if !w.inject(m, int(f.SrcWorld), dst) {
		putMessage(m)
	}
}

// matchedRTS runs when the matching engine pairs a remote RTS with a
// posted receive (from deliverTo, on either a task or a progress
// goroutine). It performs the receiver-side validation deliverTo would,
// registers the transaction, and answers CTS. On a validation error the
// receive fails locally but CTS is still sent — the payload left the
// sender correctly, so its handshake completes and the data frame is
// discarded on arrival (no transaction to claim).
func (n *netLayer) matchedRTS(msg *message, pr *postedRecv) {
	w := n.w
	var err error
	switch {
	case !typesMatch(msg, pr):
		err = &Error{Rank: pr.recvRank, Op: "Recv",
			Msg: fmt.Sprintf("datatype mismatch: receive buffer is []%v, message holds []%v", pr.etype, msg.etype)}
	case msg.elems > pr.relems:
		err = &Error{Rank: pr.recvRank, Op: "Recv",
			Msg: fmt.Sprintf("message truncated: %d elements into buffer of %d", msg.elems, pr.relems)}
	}
	cts := wire.Header{
		Type:     wire.TypeCTS,
		Xid:      msg.wireXid,
		SrcWorld: int32(pr.recvRank),
		DstWorld: int32(msg.wireSrc),
	}
	node := msg.wireNode
	if err != nil {
		// A copy escapes to the transport, so only this path boxes one.
		h := cts
		n.tr.Send(node, &h, nil) //nolint:errcheck // receive already failed
		pr.req.fail(err)
		putMessage(msg)
		// No transaction was registered, so the arriving data frame finds
		// nothing to claim and is discarded — pr's buffer is never touched
		// and can be recycled now.
		putPostedRecv(pr)
		return
	}
	xid, src := msg.wireXid, msg.wireSrc
	wr := wireRecvPool.Get().(*wirePendingRecv)
	*wr = wirePendingRecv{
		h:       cts,
		xid:     xid,
		pr:      pr,
		src:     src,
		srcComm: msg.src,
		tag:     msg.tag,
		elems:   msg.elems,
		bytes:   msg.bytes,
		span:    msg.span,
		sendNs:  msg.sendNs,
	}
	putMessage(msg)
	n.mu.Lock()
	if n.draining.Load() || w.rankDead(src) {
		n.mu.Unlock()
		pr.req.fail(&DeadRankError{Rank: pr.recvRank, Op: "Recv", Dead: src})
		return
	}
	n.recvs[xid] = wr
	n.mu.Unlock()
	// Once the CTS is out, the data frame may complete and recycle wr
	// before Send returns; only the locals are read after it. Send copies
	// the header before it writes.
	if serr := n.tr.Send(node, &wr.h, nil); serr != nil {
		n.mu.Lock()
		if n.recvs[xid] == wr {
			delete(n.recvs, xid)
			n.mu.Unlock()
			pr.req.fail(&DeadRankError{Rank: pr.recvRank, Op: "Recv", Dead: src})
			return
		}
		n.mu.Unlock()
	}
}

func (n *netLayer) onCTS(f *wire.Frame) {
	n.mu.Lock()
	ps := n.sends[f.Xid]
	delete(n.sends, f.Xid)
	n.mu.Unlock()
	if ps == nil {
		return // transaction already failed (peer death, cancel)
	}
	msg := ps.msg
	if th := n.w.traceHooks; th != nil && msg.span != 0 {
		// The receiver matched: from here on the sender's wait is wire
		// transfer time, not late-receiver time.
		th.SpanCts(ps.src, msg.span)
	}
	ps.h = wire.Header{
		Type:     wire.TypeData,
		Kind:     uint8(msg.etype.Kind()),
		Xid:      f.Xid,
		Ctx:      msg.ctx,
		SrcComm:  int32(msg.src),
		SrcWorld: int32(ps.src),
		DstWorld: int32(ps.dst),
		Tag:      int32(msg.tag),
		Elems:    int32(msg.elems),
	}
	var err error
	if msg.sdt != nil {
		err = n.sendTypedData(ps, msg)
	} else {
		// msg.sdata still views the sender's buffer: the sending task is
		// blocked on sreq, which completes only below, after the transport
		// has copied the payload into its frame.
		err = n.tr.Send(n.nodeOf[ps.dst], &ps.h, msg.sdata)
	}
	if err != nil {
		msg.sreq.fail(&DeadRankError{Rank: ps.src, Op: "Send", Dead: ps.dst})
	} else {
		msg.sreq.complete(Status{})
	}
	putMessage(msg)
	putWireSend(ps)
}

// wireTypedChunk is the packed segment size of the pipelined typed
// rendezvous datapath: the sender packs this many bytes at a time into
// one reused scratch buffer and streams them as DataSeg frames, so a
// large strided transfer never exists fully packed on either side.
const wireTypedChunk = 64 << 10

// sendTypedData is onCTS's tail for a typed rendezvous send, framed
// through ps.h (already set up as the Data header). The payload streams
// as pipelined packed segments; under Config.ForcePack (the ablation
// knob) it is packed whole into a pooled buffer and shipped as a single
// Data frame instead, exactly like a contiguous send.
func (n *netLayer) sendTypedData(ps *wirePendingSend, msg *message) error {
	w := n.w
	node := n.nodeOf[ps.dst]
	esz := int(msg.etype.Size())
	if w.cfg.ForcePack {
		b := w.pool.get(poolNoRank, msg.bytes)
		dtPack(b.data[:msg.bytes], msg.sdata, msg.sdt, esz)
		err := n.tr.Send(node, &ps.h, b.data[:msg.bytes])
		w.pool.release(b)
		return err
	}
	chunkElems := max(wireTypedChunk/esz, 1)
	scratch := w.pool.get(poolNoRank, chunkElems*esz)
	defer w.pool.release(scratch)
	ps.h.Type = wire.TypeDataSeg
	for off := 0; off < msg.elems; off += chunkElems {
		nel := min(chunkElems, msg.elems-off)
		seg := scratch.data[:nel*esz]
		dtPackRange(seg, msg.sdata, msg.sdt, esz, off, off+nel)
		// Elems carries the segment's element offset within the packed
		// message; the total rode the RTS.
		ps.h.Elems = int32(off)
		if err := n.tr.Send(node, &ps.h, seg); err != nil {
			return err
		}
	}
	return nil
}

func (n *netLayer) onData(f *wire.Frame) {
	w := n.w
	if wr, ok := f.Token.(*wirePendingRecv); ok {
		// The payload was read directly into wr.pr.rdata by the transport.
		n.completeWireRecv(wr)
		return
	}
	// The payload arrived packed in a pooled scratch: either the receive
	// is strided (the Alloc claim was refused so raw packed bytes never
	// touch the user buffer) or there is no transaction to claim
	// (validation failed at RTS time) and the frame is dropped.
	buf, _ := f.Token.(*eagerBuf)
	n.mu.Lock()
	wr := n.recvs[f.Xid]
	if wr != nil && wr.bytes == int(f.PayloadLen) && wr.pr.rdt != nil {
		delete(n.recvs, f.Xid)
	} else {
		wr = nil
	}
	n.mu.Unlock()
	if wr != nil {
		dtUnpack(wr.pr.rdata, f.Payload, wr.pr.rdt, int(wr.pr.etype.Size()))
	}
	if buf != nil {
		w.pool.release(buf)
	}
	if wr != nil {
		n.completeWireRecv(wr)
	}
}

// onDataSeg applies one packed segment of a pipelined typed rendezvous
// transfer and completes the receive when the element count announced by
// the RTS has fully arrived.
func (n *netLayer) onDataSeg(f *wire.Frame) {
	w := n.w
	buf, _ := f.Token.(*eagerBuf)
	release := func() {
		if buf != nil {
			w.pool.release(buf)
		}
	}
	n.mu.Lock()
	wr := n.recvs[f.Xid]
	n.mu.Unlock()
	if wr == nil {
		release()
		return
	}
	pr := wr.pr
	esz := int(pr.etype.Size())
	off := int(f.Elems)
	nel := len(f.Payload) / esz
	if off < 0 || nel <= 0 || off+nel > wr.elems || len(f.Payload) != nel*esz {
		release()
		return
	}
	if pr.rdt != nil {
		dtUnpackRange(pr.rdata, f.Payload, pr.rdt, esz, off, off+nel)
	} else {
		copy(pr.rdata[off*esz:], f.Payload)
	}
	release()
	wr.got += nel
	if wr.got < wr.elems {
		return
	}
	// Transfer complete: claim the transaction. It may have been failed
	// concurrently (onRankFailed, failAll), so re-check identity under
	// the lock — a failed receive must not complete twice.
	n.mu.Lock()
	if n.recvs[f.Xid] != wr {
		n.mu.Unlock()
		return
	}
	delete(n.recvs, f.Xid)
	n.mu.Unlock()
	n.completeWireRecv(wr)
}

// completeWireRecv is the shared completion tail of the three wire
// rendezvous datapaths (direct landing, whole-pack unpack, segments).
func (n *netLayer) completeWireRecv(wr *wirePendingRecv) {
	w := n.w
	pr := wr.pr
	if w.cfg.Hooks != nil {
		w.cfg.Hooks.OnDeliver(pr.recvRank, nil)
	}
	pr.req.complete(Status{Source: wr.srcComm, Tag: wr.tag, Count: wr.elems, Bytes: wr.bytes})
	if w.traceHooks != nil && wr.span != 0 {
		w.traceHooks.SpanDeliver(pr.recvRank, wr.span, wr.sendNs, pr.postNs, 0, wr.bytes, true, true)
	}
	putPostedRecv(pr)
	putWireRecv(wr)
}

func (n *netLayer) onFailure(f *wire.Frame) {
	r := int(f.SrcWorld)
	if r < 0 || r >= len(n.nodeOf) || n.localRank(r) {
		return
	}
	msg := "remote rank failed"
	if len(f.Payload) > 0 {
		msg = string(f.Payload)
	}
	var cause error = &RankFailure{Rank: r, Cause: errors.New(msg)}
	if f.Tag == failReraised {
		cause = remoteReraise{errors.New(msg)}
	}
	n.w.rankFailed(r, cause)
}

// failReraised is a failure frame's Tag when the rank died re-raising.
const failReraised = 1

// PeerDown turns a permanently lost node into a ULFM-style failure of
// every rank that lived on it.
func (n *netLayer) PeerDown(peer int, err error) {
	if n.draining.Load() {
		return
	}
	for r, node := range n.nodeOf {
		if node == peer {
			n.w.rankFailed(r, &RankFailure{Rank: r, Cause: err})
		}
	}
}

// failure/cancel integration ------------------------------------------

// onRankFailed runs at the tail of rankFailed: it fails the wire
// transactions that involve the dead rank with err, the world's failure
// for r, and — when the rank died in this process — broadcasts a failure
// frame carrying cause so the other nodes cascade too. Failure frames for
// remotely-learned deaths are not rebroadcast.
func (n *netLayer) onRankFailed(r int, err, cause error) {
	n.mu.Lock()
	var failSends []*wirePendingSend
	for xid, ps := range n.sends {
		if ps.dst == r {
			failSends = append(failSends, ps)
			delete(n.sends, xid)
		}
	}
	var failRecvs []*wirePendingRecv
	for xid, wr := range n.recvs {
		if wr.src == r {
			failRecvs = append(failRecvs, wr)
			delete(n.recvs, xid)
		}
	}
	n.mu.Unlock()
	for _, ps := range failSends {
		ps.msg.sreq.fail(attribute(err, ps.src, "Send"))
		putMessage(ps.msg)
	}
	for _, wr := range failRecvs {
		wr.pr.req.fail(attribute(err, wr.pr.recvRank, "Recv"))
		// pr is not recycled: a data frame already in flight may still be
		// read into its buffer by the transport before the stream carries
		// the failure news; leaking one pooled object is the safe choice.
	}
	if !n.localRank(r) {
		return
	}
	h := wire.Header{Type: wire.TypeFailure, SrcWorld: int32(r)}
	if reraised(cause) {
		h.Tag = failReraised
	}
	payload := []byte(cause.Error())
	for node := 0; node < n.tr.Peers(); node++ {
		if node == n.self {
			continue
		}
		n.tr.Send(node, &h, payload) //nolint:errcheck // dead peers are already handled
	}
}

// failAll fails every parked wire transaction with err, the world's
// CancelledError — the cancel path (timeout, explicit Cancel).
func (n *netLayer) failAll(err error) {
	n.mu.Lock()
	sends := n.sends
	recvs := n.recvs
	n.sends = make(map[uint64]*wirePendingSend)
	n.recvs = make(map[uint64]*wirePendingRecv)
	n.mu.Unlock()
	for _, ps := range sends {
		ps.msg.sreq.fail(attribute(err, ps.src, "Send"))
		putMessage(ps.msg)
	}
	for _, wr := range recvs {
		wr.pr.req.fail(attribute(err, wr.pr.recvRank, "Recv"))
	}
}

// shutdown runs after every local task finished: late frames are
// discarded from here on (their buffers released, keeping pool
// accounting balanced), sent-but-unacked frames get a short grace period
// to reach their peers, then the transport closes.
func (n *netLayer) shutdown() {
	n.mu.Lock()
	n.draining.Store(true)
	sends := n.sends
	n.sends = make(map[uint64]*wirePendingSend)
	n.recvs = make(map[uint64]*wirePendingRecv)
	n.mu.Unlock()
	for _, ps := range sends {
		putMessage(ps.msg) // rank died mid-rendezvous; nobody waits on sreq
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && n.tr.Stats().Inflight > 0 {
		time.Sleep(2 * time.Millisecond)
	}
	n.tr.Close() //nolint:errcheck
}
