package main

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// spanName identifies what a span brackets: the whole op, or one call
// from a workload into a layer.
type spanName uint8

const (
	spOp spanName = iota // root: one op on one rank
	spSend
	spRecv
	spSendrecvTyped
	spBarrier
	spAllreduce
	spBcast
	spHLSSingle
	spHLSSliceCompute
	numSpanNames
)

// spanNames are the names written to the trace file.
var spanNames = [numSpanNames]string{
	"op", "send", "recv", "sendrecv_typed", "barrier", "allreduce", "bcast",
	"hls_single", "hls_slice+compute",
}

// selfMetric names the per-layer metric carrying each span's self time;
// the root's self time is what the op spent outside every layer call.
var selfMetric = [numSpanNames]string{
	"self.harness_us", "self.send_us", "self.recv_us", "self.sendrecv_typed_us",
	"self.barrier_us", "self.allreduce_us", "self.bcast_us",
	"self.hls_single_us", "self.hls_slice_compute_us",
}

// span is one recorded interval. Parent is the index of the enclosing
// span in the same rank's buffer, -1 for a root; Op is the op sequence
// number, the identifier all ranks' spans of one op share.
type span struct {
	Name       spanName
	Op         int32
	Parent     int32
	Start, End int64 // ns since the recorder's epoch
}

// rankTrace is one rank's in-memory span buffer. A nil *rankTrace is the
// untraced run: begin and end are then a single branch, so one op body
// serves both runs. Each rank owns its buffer; nothing is shared until
// the ranks have stopped.
type rankTrace struct {
	epoch time.Time
	spans []span
	root  int32
	op    int32
}

func newRankTrace(epoch time.Time, capacity int) *rankTrace {
	return &rankTrace{epoch: epoch, spans: make([]span, 0, capacity), root: -1}
}

// reset drops the spans recorded so far (the warm-up's).
func (t *rankTrace) reset() {
	if t != nil {
		t.spans = t.spans[:0]
	}
}

// beginOp opens the root span of op i; endOp closes it.
func (t *rankTrace) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = int32(i)
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{Name: spOp, Op: t.op, Parent: -1, Start: int64(time.Since(t.epoch))})
}

func (t *rankTrace) endOp() {
	if t == nil {
		return
	}
	t.spans[t.root].End = int64(time.Since(t.epoch))
}

// begin opens a child of the current op's root and returns its index
// for end.
func (t *rankTrace) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.root, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *rankTrace) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTimes returns, per span name, the total self time in ns over one
// rank's spans: a span's duration minus the part of it its child spans
// cover. A rank runs its layer calls one after another inside the op, so
// the children of one parent never overlap and the covered part is the
// sum of their durations.
func selfTimes(spans []span) [numSpanNames]int64 {
	var self [numSpanNames]int64
	for _, s := range spans {
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= d
		}
	}
	return self
}

// writeSpans writes every rank's spans as one JSON document: a name
// table and one row per span, [rank, op, name, start_ns, end_ns, parent]
// with parent a row index within the same rank (-1 for a root).
func writeSpans(w io.Writer, workload string, ranks [][]span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"workload\":%q,\"names\":[", workload)
	for i, n := range spanNames {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q", n)
	}
	bw.WriteString("],\"columns\":[\"rank\",\"op\",\"name\",\"start_ns\",\"end_ns\",\"parent\"],\"spans\":[")
	first := true
	for r, spans := range ranks {
		for _, s := range spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			fmt.Fprintf(bw, "\n[%d,%d,%d,%d,%d,%d]", r, s.Op, s.Name, s.Start, s.End, s.Parent)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
