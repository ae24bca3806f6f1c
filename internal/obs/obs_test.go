package obs_test

import (
	"bytes"
	"strings"
	"testing"

	"hls/internal/obs"
	"hls/internal/trace"
)

func TestSpanSrcRoundTrip(t *testing.T) {
	tr := obs.NewTracer(trace.NewRecorder())
	for _, src := range []int{0, 1, 7, 1023} {
		span, _ := tr.SpanStart(src, 0, 64, false, false)
		if got := obs.SpanSrc(span); got != src {
			t.Errorf("SpanSrc(SpanStart(src=%d)) = %d", src, got)
		}
	}
	// Ids must be distinct across calls even from one source.
	a, _ := tr.SpanStart(3, 0, 8, false, false)
	b, _ := tr.SpanStart(3, 0, 8, false, false)
	if a == b {
		t.Errorf("two spans from one source collided: %#x", a)
	}
}

// A traced collective boxes nothing: ctx, seq and the algorithm ride
// the ring record, and the export rebuilds the same CollArgs JSON.
func TestSpanCollectiveDoesNotAllocate(t *testing.T) {
	rec := trace.NewRecorder(trace.WithMaxEvents(64))
	tr := obs.NewTracer(rec)
	if allocs := testing.AllocsPerRun(100, func() { tr.SpanCollective(1, 7, 42, "shm") }); allocs != 0 {
		t.Errorf("SpanCollective made %v allocs, want 0", allocs)
	}
	tr.SpanCollective(2, -1, 3, "custom") // an algorithm not interned up front
	var got []trace.Event
	for _, e := range rec.Events() {
		if e.Tid == 2 {
			got = append(got, e)
		}
	}
	want := trace.Event{Name: "collective", Cat: "coll", Ph: "i", Tid: 2,
		Args: trace.CollArgs{Ctx: -1, Seq: 3, Alg: "custom"}}
	if len(got) != 1 {
		t.Fatalf("tid 2 holds %d events, want 1", len(got))
	}
	if got[0].Ts = 0; got[0] != want {
		t.Errorf("collective event = %+v, want %+v", got[0], want)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"args":{"ctx":7,"seq":42,"alg":"shm"}`) {
		t.Errorf("trace JSON lacks the CollArgs payload: %s", buf.String())
	}
}

// TestMergeRebasesOntoReferenceClock builds two synthetic dumps whose
// recorders started 1ms apart on clocks offset by 200us, and checks the
// merged timeline puts the cross-process flow in true order.
func TestMergeRebasesOntoReferenceClock(t *testing.T) {
	// Process 1's wall clock runs 200us ahead; its recorder epoch reads
	// 1200us after process 0's (started 1000us later, plus 200us skew).
	// True send time (proc 0 clock): 3000us; true delivery: 3100us,
	// which process 1's recorder logs as ts = (3100+200) - 1200 =
	// 2100us; the true 3050us receive post logs as 2050us.
	d0 := &obs.ProcDump{
		Node: 0, EpochUnixNano: 1_000_000_000,
		Events: []trace.Event{
			{Name: "msg", Cat: "msg", Ph: "s", Ts: 3000, Tid: 0, ID: 42, Aux: 64},
		},
	}
	d1 := &obs.ProcDump{
		Node: 1, EpochUnixNano: 1_000_000_000 + 1_000_000 + 200_000,
		OffsetNs: -200_000, HasOffset: true, RTTNs: 50_000,
		Events: []trace.Event{
			{Name: "msg", Cat: "msg", Ph: "f", BP: "e", Ts: 2100, Tid: 1, ID: 42, Aux: 2_050_000},
		},
	}
	m := obs.Merge([]*obs.ProcDump{d0, d1})
	if len(m.Events) != 2 {
		t.Fatalf("merged %d events, want 2", len(m.Events))
	}
	s, f := m.Events[0], m.Events[1]
	if s.Ph != "s" || f.Ph != "f" {
		t.Fatalf("merged order: got %q then %q, want s then f", s.Ph, f.Ph)
	}
	if s.Pid != 0 || f.Pid != 1 {
		t.Errorf("pids = %d, %d; want 0, 1", s.Pid, f.Pid)
	}
	if f.Ts-s.Ts < 99 || f.Ts-s.Ts > 101 {
		t.Errorf("rebased flight time = %.1fus, want ~100us", f.Ts-s.Ts)
	}
	// The receive-post timestamp rebases with its process: true post
	// time 3050us on the reference clock.
	wantAux := int64(3_050_000)
	if f.Aux < wantAux-1000 || f.Aux > wantAux+1000 {
		t.Errorf("rebased post ts = %dns, want ~%d", f.Aux, wantAux)
	}
	if m.AdjustedFlows != 0 {
		t.Errorf("AdjustedFlows = %d on a well-ordered trace", m.AdjustedFlows)
	}

	// A backwards arrow (offset error larger than flight time) clamps.
	d1.Events[0].Ts = 1990 // lands 10us before the send after rebasing
	m = obs.Merge([]*obs.ProcDump{d0, d1})
	if m.AdjustedFlows != 1 {
		t.Fatalf("AdjustedFlows = %d, want 1", m.AdjustedFlows)
	}
	for _, e := range m.Events {
		if e.Ph == "f" && e.Ts < 3000 {
			t.Errorf("clamped flow end at %.1fus, before its start", e.Ts)
		}
	}
}

func TestMergedTraceWriteReadRoundTrip(t *testing.T) {
	m := obs.Merge([]*obs.ProcDump{
		{Node: 0, Events: []trace.Event{
			{Name: "msg", Cat: "msg", Ph: "s", Ts: 10, Tid: 0, ID: 7},
			{Name: "msg", Cat: "msg", Ph: "f", Ts: 20, Tid: 1, ID: 7, Aux: 5_000},
		}},
	})
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read back %d events, want 2 (metadata stripped)", len(events))
	}
	if events[0].ID != 7 || events[1].Aux != 5_000 {
		t.Errorf("round trip lost fields: %+v", events)
	}
}

// TestAnalyzeAttribution feeds hand-built timelines through Analyze and
// checks each wait lands in its bucket.
func TestAnalyzeAttribution(t *testing.T) {
	events := []trace.Event{
		// Rank 1 posts at 1000us, rank 0 sends at 1800us, delivery at
		// 1810us, same process: 810us of late-sender on rank 1.
		{Name: "msg", Cat: "msg", Ph: "s", Ts: 1800, Pid: 0, Tid: 0, ID: 1, Aux: 64},
		{Name: "msg", Cat: "msg", Ph: "f", Ts: 1810, Pid: 0, Tid: 1, ID: 1, Aux: 1_000_000},
		// Rank 2 posts at 1000us, rank 0 (other process) sends at
		// 1500us, delivery at 1700us: 500us late-sender + 200us
		// wire-stall on rank 2.
		{Name: "msg", Cat: "msg", Ph: "s", Ts: 1500, Pid: 0, Tid: 0, ID: 2, Aux: 64},
		{Name: "msg", Cat: "msg", Ph: "f", Ts: 1700, Pid: 1, Tid: 2, ID: 2, Aux: 1_000_000},
		// Rank 0 blocks in a rendezvous send 2000..2600us; CTS at
		// 2400us: 400us late-receiver + 200us wire-stall on rank 0.
		{Name: "send-wait", Cat: "wait", Ph: "X", Ts: 2000, Dur: 600, Pid: 0, Tid: 0, ID: 3},
		{Name: "cts", Cat: "msg", Ph: "i", Ts: 2400, Pid: 0, Tid: 0, Aux: 3},
		// Rank 3 rendezvous-sends in process at 2000us (negative flow-
		// start Aux marks rendezvous), delivered at 2450us the instant
		// rank 1 posts: 450us of flow-derived late-receiver on rank 3,
		// no wait slice in the trace.
		{Name: "msg", Cat: "msg", Ph: "s", Ts: 2000, Pid: 0, Tid: 3, ID: 4, Aux: -8192},
		{Name: "msg", Cat: "msg", Ph: "f", Ts: 2450, Pid: 0, Tid: 1, ID: 4, Aux: 2_450_000},
		// Directive bracket on rank 1: 300us of imbalance.
		{Name: "tbl", Cat: "hls", Ph: "X", Ts: 3000, Dur: 300, Pid: 0, Tid: 1},
	}
	a := obs.Analyze(events)
	get := func(r int) obs.RankWait {
		for _, rw := range a.Ranks {
			if rw.Rank == r {
				return rw
			}
		}
		t.Fatalf("rank %d missing from analysis", r)
		return obs.RankWait{}
	}
	close := func(got, want float64, what string) {
		if got < want-1 || got > want+1 {
			t.Errorf("%s = %.1fus, want %.1f", what, got, want)
		}
	}
	close(get(1).LateSenderUs, 810, "rank1 late-sender")
	close(get(1).DirectiveUs, 300, "rank1 directive")
	close(get(2).LateSenderUs, 500, "rank2 late-sender")
	close(get(2).WireStallUs, 200, "rank2 wire-stall")
	close(get(0).LateReceiverUs, 400, "rank0 late-receiver")
	close(get(0).WireStallUs, 200, "rank0 wire-stall")
	close(get(3).LateReceiverUs, 450, "rank3 late-receiver (flow-derived)")
	if a.SpanUs < 3300-1 {
		t.Errorf("SpanUs = %.1f, want >= 3300", a.SpanUs)
	}
	if len(a.Path) == 0 || a.PathWaitUs <= 0 {
		t.Errorf("critical path empty: %d segs, wait %.1fus", len(a.Path), a.PathWaitUs)
	}
	// The last event is the rank-1 directive; the path must cross it.
	last := a.Path[len(a.Path)-1]
	if last.Rank != 1 {
		t.Errorf("critical path ends on rank %d, want 1", last.Rank)
	}
}
