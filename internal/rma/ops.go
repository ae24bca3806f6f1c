package rma

import (
	"hls/internal/mpi"
)

// Put copies buf into target's segment at element offset
// (MPI_Put). Requires an open epoch to target; the transfer is applied
// eagerly (tasks share one address space) and becomes visible to the
// target under MPI-3 rules when the epoch closes. Concurrent conflicting
// Puts to the same location are erroneous, as in MPI.
func (w *Window[T]) Put(t *mpi.Task, buf []T, target, offset int) {
	me := w.originCheck(t, "Put", target, offset, len(buf))
	bytes := len(buf) * elemBytes[T]()
	begin := w.beginOp(me, opPut, bytes)
	defer w.endOp(t, "put", begin, target, bytes)
	copy(w.segs[target][offset:], buf)
}

// Get copies len(buf) elements from target's segment at element offset
// into buf (MPI_Get). Requires an open epoch to target.
func (w *Window[T]) Get(t *mpi.Task, buf []T, target, offset int) {
	me := w.originCheck(t, "Get", target, offset, len(buf))
	bytes := len(buf) * elemBytes[T]()
	begin := w.beginOp(me, opGet, bytes)
	defer w.endOp(t, "get", begin, target, bytes)
	copy(buf, w.segs[target][offset:offset+len(buf)])
}

// Accumulate folds buf into target's segment at element offset with the
// given reduce operator (MPI_Accumulate with the predefined ops of
// internal/mpi). Requires an open epoch to target. Unlike Put,
// concurrent Accumulates to the same location are well-defined: a
// per-target mutex serializes them, which implies MPI-3's element-wise
// atomicity guarantee.
func (w *Window[T]) Accumulate(t *mpi.Task, buf []T, target, offset int, op mpi.Op) {
	me := w.originCheck(t, "Accumulate", target, offset, len(buf))
	bytes := len(buf) * elemBytes[T]()
	begin := w.beginOp(me, opAccumulate, bytes)
	defer w.endOp(t, "accumulate", begin, target, bytes)
	st := w.st[target]
	st.accMu.Lock()
	mpi.ApplyOp(op, w.segs[target][offset:offset+len(buf)], buf)
	st.accMu.Unlock()
}

// PutTyped is Put with derived datatypes on both sides: odt selects the
// elements of buf that travel (nil = all of it) and tdt scatters them
// into target's segment starting at element offset (nil = contiguously).
// The transfer moves strided-to-strided through the shared window with
// no intermediate packed buffer — counted by mpi.Stats().PackElisions.
func (w *Window[T]) PutTyped(t *mpi.Task, buf []T, odt *mpi.Datatype, target, offset int, tdt *mpi.Datatype) {
	n, bytes := typedSpan[T](len(buf), odt, tdt)
	me := w.originCheck(t, "PutTyped", target, offset, n)
	begin := w.beginOp(me, opPut, bytes)
	defer w.endOp(t, "put", begin, target, bytes)
	mpi.TypedCopy(t, w.segs[target][offset:], tdt, buf, odt, "rma.PutTyped")
}

// GetTyped is Get with derived datatypes on both sides: tdt selects the
// elements of target's segment (from element offset) that travel and odt
// scatters them into buf.
func (w *Window[T]) GetTyped(t *mpi.Task, buf []T, odt *mpi.Datatype, target, offset int, tdt *mpi.Datatype) {
	n, bytes := typedSpan[T](len(buf), odt, tdt)
	me := w.originCheck(t, "GetTyped", target, offset, n)
	begin := w.beginOp(me, opGet, bytes)
	defer w.endOp(t, "get", begin, target, bytes)
	mpi.TypedCopy(t, buf, odt, w.segs[target][offset:], tdt, "rma.GetTyped")
}

// AccumulateTyped is Accumulate with derived datatypes on both sides,
// folding odt's selection of buf into tdt's selection of target's
// segment under the per-target accumulate mutex.
func (w *Window[T]) AccumulateTyped(t *mpi.Task, buf []T, odt *mpi.Datatype, target, offset int, tdt *mpi.Datatype, op mpi.Op) {
	n, bytes := typedSpan[T](len(buf), odt, tdt)
	me := w.originCheck(t, "AccumulateTyped", target, offset, n)
	begin := w.beginOp(me, opAccumulate, bytes)
	defer w.endOp(t, "accumulate", begin, target, bytes)
	st := w.st[target]
	st.accMu.Lock()
	mpi.TypedApply(t, w.segs[target][offset:], tdt, buf, odt, op, "rma.AccumulateTyped")
	st.accMu.Unlock()
}

// typedSpan computes the target-side element footprint of a typed RMA
// call (for bounds checking: a strided target touches its layout's full
// extent) and the packed transfer size in bytes (for tracing).
func typedSpan[T any](bufLen int, odt, tdt *mpi.Datatype) (span, bytes int) {
	packed := bufLen
	if odt != nil {
		packed = odt.Size()
	}
	span = packed
	if tdt != nil {
		span = tdt.Extent()
	}
	return span, packed * elemBytes[T]()
}

// originCheck validates a communication call: membership, target range,
// an open epoch covering target, and segment bounds. It returns the
// caller's comm rank.
func (w *Window[T]) originCheck(t *mpi.Task, op string, target, offset, n int) int {
	me := w.rankOf(t, op)
	if target < 0 || target >= w.comm.Size() {
		raise(t.Rank(), op, "target rank %d out of range [0,%d)", target, w.comm.Size())
	}
	ep := w.eps[me]
	if _, locked := ep.locked[target]; !ep.fence && !ep.started[target] && !locked {
		raise(t.Rank(), op, "no RMA epoch open to target %d on window %q (call Fence, Start, or Lock first)", target, w.name)
	}
	if offset < 0 || offset+n > len(w.segs[target]) {
		raise(t.Rank(), op, "elements [%d,%d) outside target %d's %d-element segment of window %q",
			offset, offset+n, target, len(w.segs[target]), w.name)
	}
	return me
}
