package trace

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// The ring's compact layout is the point of records: a quarter of an
// Event's 128 bytes.
func TestRecordIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got > 32 {
		t.Fatalf("record is %d bytes, want <= 32", got)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A bounded recorder allocates only the stripes that record: two ranks'
// traffic on a 1<<16-event recorder holds two 8192-record rings, not
// eight rings of Events.
func TestLazyRingsHoldOnlyWrittenStripes(t *testing.T) {
	const perStripe = (1 << 16) / recorderStripes
	before := liveHeap()
	r := NewRecorder(WithMaxEvents(1 << 16))
	msg := r.Intern("msg", "msg")
	for i := 0; i < 2*perStripe; i++ {
		src, dst := i&1, (i+1)&1
		r.FlowPairNs(msg, uint64(i), src, int64(i), 64, dst, int64(i)+100, int64(i))
	}
	grew := int64(liveHeap()) - int64(before)
	if r.Len() != 2*perStripe || r.Dropped() != 2*perStripe {
		t.Fatalf("Len %d, Dropped %d; want %d each", r.Len(), r.Dropped(), 2*perStripe)
	}
	const want, slack = 2 * perStripe * 32, 64 << 10
	if grew > want+slack {
		t.Errorf("recording on 2 tids grew the heap by %d B, want <= %d + %d", grew, want, slack)
	}
	runtime.KeepAlive(r)
}

func TestHotEmittersDoNotAllocate(t *testing.T) {
	r := NewRecorder(WithMaxEvents(64))
	msg, alg := r.Intern("msg", "msg"), r.Intern("shm", "coll")
	allocs := testing.AllocsPerRun(100, func() {
		r.FlowStartNs(0, msg, 1, 10, 64)
		r.FlowEndNs(1, msg, 1, 20, 15)
		r.FlowPairNs(msg, 2, 0, 30, 64, 1, 40, 35)
		r.WaitSliceNs(0, msg, 2, 30, 45)
		r.InstantNs(0, msg, 50, 2)
		r.CollectiveNs(0, alg, 60, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("hot emitters made %v allocs per round, want 0", allocs)
	}
}

// An overwritten slot drops the Args it held: the next event in that
// slot decodes without them, and the side slice keeps nothing alive.
func TestOverwriteClearsArgs(t *testing.T) {
	r := NewRecorder(WithMaxEvents(recorderStripes)) // one slot a stripe
	r.Instant(0, "with", "c", map[string]int{"k": 1})
	r.InstantNs(0, r.Intern("without", "c"), 5, 0)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Name != "without" || ev[0].Args != nil {
		t.Fatalf("events after overwrite: %+v", ev)
	}
	if side := r.stripes[0].side; side[0] != nil {
		t.Fatalf("side slot still holds %v", side[0])
	}
}

// Past 32 768 distinct pairs the cold emitters keep their names in the
// side slice, leaving the rest of the table to Intern, which refuses
// only once all 65 536 are taken.
func TestNameTableOverflow(t *testing.T) {
	r := NewRecorder(WithMaxEvents(2 * recorderStripes))
	for i := 0; i < maxColdNames; i++ {
		r.Instant(0, fmt.Sprint(i), "c", nil)
	}
	r.Instant(1, "overflow", "late", map[string]int{"k": 1})
	r.Instant(1, "overflow", "late", nil)
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("held %d events, want 4", len(ev))
	}
	if got := ev[0].Name; got != fmt.Sprint(maxColdNames-2) {
		t.Errorf("last interned names decode as %q", got)
	}
	a, b := ev[2], ev[3]
	if a.Name != "overflow" || a.Cat != "late" || a.Args == nil || b.Name != "overflow" || b.Args != nil {
		t.Errorf("overflowed events decode as %+v, %+v", a, b)
	}
	hot := r.Intern("msg", "msg")
	r.InstantNs(2, hot, 7, 0)
	if got := r.Events(); got[len(got)-1].Name != "msg" {
		t.Errorf("a name interned past the cold half decodes as %q", got[len(got)-1].Name)
	}
	for i := maxColdNames + 1; i < maxNames; i++ {
		r.Intern(fmt.Sprint(i), "hot")
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern on a full table did not panic")
		}
	}()
	r.Intern("one", "more")
}

// BenchmarkFlowPairNs times the in-process delivery write: both halves
// of a flow arrow under one stripe lock, on a wrapped ring.
func BenchmarkFlowPairNs(b *testing.B) {
	r := NewRecorder(WithMaxEvents(1 << 16))
	msg := r.Intern("msg", "msg")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := int64(i)
		r.FlowPairNs(msg, uint64(i), 0, ts, 64, 1, ts+100, ts+50)
	}
}
