// Package obs is the distributed tracing plane: it turns the runtime's
// per-message trace hooks into Chrome-trace flow events that survive
// crossing a process boundary, aligns each process's recorder onto one
// reference clock using the wire transport's NTP-style probes, gathers
// every process's ring buffer to rank 0 at teardown, and attributes
// blocked time to its cause (late sender, late receiver, directive
// imbalance, wire stall) including the run's critical path.
//
// The pieces compose around one span-id scheme: every message — in
// process or over the wire — gets a 64-bit id minted at send time,
//
//	span = (worldSrc+1) << 40 | seq
//
// so the id is world-unique without coordination (the sender rank is
// world-unique, the sequence is process-local) and the source rank can
// be decoded from the id alone. The id rides the in-process message
// struct and the wire frames' span extension, and surfaces as the ID of
// a flow-event pair: "s" on the sender's timeline at send time, "f" on
// the receiver's at delivery. Perfetto draws the pair as one arrow;
// Analyze joins them back into wait attributions.
package obs

import (
	"sync/atomic"

	"hls/internal/trace"
)

// spanSrcShift positions the source rank above a 40-bit per-process
// sequence (~10^12 messages before wrap, far past any run's lifetime).
const spanSrcShift = 40

// SpanSrc decodes the world source rank from a span id.
func SpanSrc(span uint64) int { return int(span>>spanSrcShift) - 1 }

// Tracer implements mpi.TraceHooks over a trace.Recorder. One Tracer
// serves a whole process (all its ranks); install it with
// mpi.Config{Trace: tracer} and — to capture HLS directive spans —
// hls.WithObserver(tracer.Sync()).
//
// Event economy on the hot path: an in-process send emits nothing at
// SpanStart (the id and timestamp ride the message struct) and both
// halves of the flow arrow at delivery under one recorder lock; only
// remote sends emit the flow start eagerly, because the matching flow
// end lands in a different process's recorder. Flow starts carry the
// message size in Aux, negated for rendezvous messages, so an analyzer
// can fall back to the pair's extent (send → delivery) for a blocked
// send whose wait slice is missing — e.g. filtered as sub-microsecond.
type Tracer struct {
	rec *trace.Recorder
	seq atomic.Uint64
	// The event names, interned once so the per-message emitters
	// never look one up.
	msg, cts, wait, sendWait trace.Name
	algs                     [len(collAlgs)]trace.Name
}

// collAlgs are the algorithm families mpi reports to SpanCollective.
var collAlgs = [...]string{"chan", "shm", "2l"}

// NewTracer wraps a recorder. Bound recorders (trace.WithMaxEvents) are
// recommended for long runs; Dropped reports the overwritten count.
func NewTracer(rec *trace.Recorder) *Tracer {
	t := &Tracer{rec: rec,
		msg:      rec.Intern("msg", "msg"),
		cts:      rec.Intern("cts", "msg"),
		wait:     rec.Intern("wait", "wait"),
		sendWait: rec.Intern("send-wait", "wait"),
	}
	for i, a := range collAlgs {
		t.algs[i] = rec.Intern(a, "coll")
	}
	return t
}

// Recorder returns the underlying recorder (for dumps and Sync).
func (t *Tracer) Recorder() *trace.Recorder { return t.rec }

// Dropped returns how many events the recorder's ring overwrote.
func (t *Tracer) Dropped() int64 { return t.rec.Dropped() }

// Sync returns an hls.SyncObserver recording directive spans (cat
// "hls") into the same recorder, so Analyze can attribute
// directive-imbalance waits.
func (t *Tracer) Sync() *trace.SyncAdapter { return &trace.SyncAdapter{R: t.rec} }

// Now implements mpi.TraceHooks.
func (t *Tracer) Now() int64 { return t.rec.NowNs() }

// SpanStart implements mpi.TraceHooks: mint the message's span id and
// send timestamp. Remote sends emit the flow-start here — its other
// half lands in the receiving process — while in-process sends defer
// both halves to SpanDeliver. Under trace.WithSampling(n), only one in
// n messages gets a span (the rest return span 0, which the runtime
// already treats as "untraced"); the send timestamp is still real, so
// wait slices of unsampled rendezvous sends keep correct extents.
func (t *Tracer) SpanStart(worldSrc, worldDst, bytes int, rendezvous, remote bool) (span uint64, sendNs int64) {
	seq := t.seq.Add(1)
	sendNs = t.rec.NowNs()
	if n := t.rec.SampleEvery(); n > 1 && seq%uint64(n) != 0 {
		return 0, sendNs
	}
	span = uint64(worldSrc+1)<<spanSrcShift | (seq & (1<<spanSrcShift - 1))
	if remote {
		t.rec.FlowStartNs(worldSrc, t.msg, span, sendNs, flowAux(bytes, rendezvous))
	}
	return span, sendNs
}

// flowAux encodes the message size on a flow start; rendezvous messages
// carry it negated, so the analyzer can reconstruct in-process send
// waits from the pair alone.
func flowAux(bytes int, rendezvous bool) int64 {
	if rendezvous {
		return -int64(bytes)
	}
	return int64(bytes)
}

// SpanDeliver implements mpi.TraceHooks: close the flow arrow on the
// receiver's timeline. postNs (when the receive was posted) rides the
// flow end's Aux so wait attribution needs no separate per-receive
// event; for in-process pairs the flow start's Aux marks rendezvous
// (negative byte count), which is also the sender's wait evidence.
// deliverNs is the runtime's match-time hint (see mpi.TraceHooks); 0
// means no recent local read exists and the tracer reads its clock.
func (t *Tracer) SpanDeliver(worldDst int, span uint64, sendNs, postNs, deliverNs int64, bytes int, rendezvous, remote bool) {
	if deliverNs == 0 {
		deliverNs = t.rec.NowNs()
	}
	if remote {
		// The matching "s" was recorded by the sending process.
		t.rec.FlowEndNs(worldDst, t.msg, span, deliverNs, postNs)
		return
	}
	t.rec.FlowPairNs(t.msg, span, SpanSrc(span), sendNs, flowAux(bytes, rendezvous), worldDst, deliverNs, postNs)
}

// minWaitNs filters wait slices below one microsecond: an eager send's
// "wait" is an already-completed request, and recording a slice per
// eager message would dominate the ring for zero attribution value.
const minWaitNs = 1000

// SpanWait implements mpi.TraceHooks: a blocking op's wait slice,
// tagged with the span it waited on (0 when unknown). Sub-microsecond
// waits are dropped (see minWaitNs). The event name is selected from
// names interned up front — concatenation here would allocate per
// blocking send.
func (t *Tracer) SpanWait(rank int, op string, span uint64, beginNs int64) {
	end := t.rec.NowNs()
	if end-beginNs < minWaitNs {
		return
	}
	name := t.wait
	if op == "send" {
		name = t.sendWait
	}
	t.rec.WaitSliceNs(rank, name, span, beginNs, end)
}

// SpanCts implements mpi.TraceHooks: the sender observed the receiver's
// clear-to-send for a rendezvous message. The instant's Aux carries the
// span id, splitting the sender's wait into late-receiver (before CTS)
// and wire-stall (after).
func (t *Tracer) SpanCts(worldSrc int, span uint64) {
	t.rec.InstantNs(worldSrc, t.cts, t.rec.NowNs(), int64(span))
}

// SpanCollective implements mpi.TraceHooks: a rank entered collective
// seq on communication context ctx. (ctx, seq) is world-agreed — every
// participant computes the same pair — so merged timelines can line up
// one collective across processes without exchanging ids; alg labels
// the algorithm family the runtime selected ("chan", "shm", "2l").
// Sampling keys on the world-agreed seq, so either every rank records a
// given collective or none does. The event carries trace.CollArgs, which
// the recorder rebuilds from the record's fields on export.
func (t *Tracer) SpanCollective(rank int, ctx, seq int64, alg string) {
	if n := t.rec.SampleEvery(); n > 1 && seq%int64(n) != 0 {
		return
	}
	t.rec.CollectiveNs(rank, t.algName(alg), t.rec.NowNs(), ctx, seq)
}

// algName returns alg's interned name, interning one mpi has not
// reported before.
func (t *Tracer) algName(alg string) trace.Name {
	for i, a := range collAlgs {
		if a == alg {
			return t.algs[i]
		}
	}
	return t.rec.Intern(alg, "coll")
}
