package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/topology"
)

func TestSpanAndInstant(t *testing.T) {
	r := NewRecorder()
	end := r.Span(3, "compute", "phase")
	r.Instant(3, "tick", "misc", map[string]int{"i": 1})
	end()
	if r.Len() != 2 {
		t.Fatalf("events = %d, want 2", r.Len())
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("parsed %d events", len(parsed.TraceEvents))
	}
	var span, instant bool
	for _, e := range parsed.TraceEvents {
		switch e.Ph {
		case "X":
			span = e.Name == "compute" && e.Tid == 3 && e.Dur >= 0
		case "i":
			instant = e.Name == "tick"
		}
	}
	if !span || !instant {
		t.Errorf("span=%v instant=%v; events: %+v", span, instant, parsed.TraceEvents)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Instant(g, "e", "c", nil)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Errorf("events = %d, want 800", r.Len())
	}
}

func TestSyncAdapterBracketsDirectives(t *testing.T) {
	rec := NewRecorder()
	machine := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 8, Machine: machine,
		Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := hls.New(w, hls.WithObserver(&SyncAdapter{R: rec}))
	v := hls.Declare[int](reg, "tv", topology.Node, 1)
	if err := w.Run(func(task *mpi.Task) error {
		v.Single(task, func([]int) {})
		v.SingleNowait(task, func([]int) {})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 8 single spans + 1 nowait span (executor) + 7 nowait instants.
	if got := rec.Len(); got != 16 {
		t.Errorf("events = %d, want 16", got)
	}
	var sb strings.Builder
	if err := rec.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"cat":"hls"`) {
		t.Error("no hls-category events in output")
	}
}

// TestAdaptersWithoutInner: a SyncAdapter used outside any world records
// an arrive/depart pair as one slice and a lone depart as an instant.
func TestAdaptersWithoutInner(t *testing.T) {
	rec := NewRecorder()
	s := &SyncAdapter{R: rec}
	s.Arrive("k", 0)
	s.Depart("k", 0)
	s.Depart("unopened", 1) // nowait skip path
	if rec.Len() != 2 {
		t.Errorf("events = %d, want 2", rec.Len())
	}
}

func TestWriteJSONSortsByTimestamp(t *testing.T) {
	r := NewRecorder()
	// Append out of order by hand: concurrent tasks do this naturally.
	n := func(name string) Name { return r.Intern(name, "") }
	r.InstantNs(0, n("late"), 300_000, 0)
	r.InstantNs(0, n("early"), 100_000, 0)
	r.InstantNs(0, n("mid"), 200_000, 0)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "mid", "late"}
	for i, e := range parsed.TraceEvents {
		if e.Name != want[i] {
			t.Fatalf("event %d = %q, want %q (not sorted by Ts)", i, e.Name, want[i])
		}
	}
	// The writer must not mutate the recorder's live buffer.
	if r.Len() != 3 {
		t.Fatalf("Len = %d after WriteJSON", r.Len())
	}
}

func TestRingBufferBoundsEvents(t *testing.T) {
	// 32 total = 4 per stripe; every event lands on tid 0's stripe, so
	// this exercises one stripe's ring exactly.
	r := NewRecorder(WithMaxEvents(4 * recorderStripes))
	for i := 0; i < 10; i++ {
		r.InstantNs(0, r.Intern("e", ""), int64(i)*1000, 0)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (bounded)", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []Event        `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatal(err)
	}
	// The survivors are the most recent 4, sorted despite wrap-around.
	if len(parsed.TraceEvents) != 4 {
		t.Fatalf("wrote %d events", len(parsed.TraceEvents))
	}
	for i, e := range parsed.TraceEvents {
		if int(e.Ts) != 6+i {
			t.Fatalf("event %d has Ts %v, want %d (oldest survivors first)", i, e.Ts, 6+i)
		}
	}
	if got, ok := parsed.OtherData["droppedEvents"].(float64); !ok || int(got) != 6 {
		t.Fatalf("otherData.droppedEvents = %v, want 6", parsed.OtherData["droppedEvents"])
	}
}

func TestUnboundedRecorderReportsNoDrops(t *testing.T) {
	r := NewRecorder()
	r.Instant(0, "e", "c", nil)
	if r.Dropped() != 0 {
		t.Fatal("unbounded recorder dropped events")
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "droppedEvents") {
		t.Fatal("otherData must be absent when nothing was dropped")
	}
}

func TestRingBufferConcurrent(t *testing.T) {
	r := NewRecorder(WithMaxEvents(64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Instant(g, "e", "c", nil)
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
	if r.Dropped() != 800-64 {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), 800-64)
	}
}
