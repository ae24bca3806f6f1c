package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"
)

// refRecorder is the reference model FuzzRecorderRing checks the
// recorder against: the ring as it was kept before records, a plain
// []Event per stripe, filled with the same float-microsecond arithmetic
// the Event-slot emitters used.
type refRecorder struct {
	perMax  int
	sample  int
	clock   func() int64
	stripes [recorderStripes]refStripe
}

type refStripe struct {
	events  []refEvent
	next    int
	dropped int64
}

// refEvent marks the events whose Dur the old emitters computed by
// subtracting two float µs timestamps; the recorder subtracts integer
// nanoseconds instead, so those may differ by float rounding, and the
// test allows them 1 ns.
type refEvent struct {
	Event
	clocked bool
}

func newRefRecorder(maxEvents, sample int, clock func() int64) *refRecorder {
	m := &refRecorder{sample: max(sample, 1), clock: clock}
	if maxEvents > 0 {
		m.perMax = (maxEvents + recorderStripes - 1) / recorderStripes
	}
	return m
}

func (m *refRecorder) now() float64 { return float64(m.clock()) / 1e3 }

// add stores e on the stripe of stripeTid, overwriting the oldest event
// once a bounded stripe is full.
func (m *refRecorder) add(stripeTid int, e Event, clocked bool) {
	st := &m.stripes[uint(stripeTid)%recorderStripes]
	if m.perMax > 0 && len(st.events) >= m.perMax {
		st.events[st.next] = refEvent{e, clocked}
		st.next = (st.next + 1) % m.perMax
		st.dropped++
		return
	}
	st.events = append(st.events, refEvent{e, clocked})
}

func (m *refRecorder) events() []refEvent {
	var out []refEvent
	for i := range m.stripes {
		st := &m.stripes[i]
		out = append(out, st.events[st.next:]...)
		out = append(out, st.events[:st.next]...)
	}
	return out
}

func (m *refRecorder) dropped() (d int64) {
	for i := range m.stripes {
		d += m.stripes[i].dropped
	}
	return d
}

// refWriteJSON is WriteJSON over a given event list.
func refWriteJSON(w io.Writer, events []Event, dropped int64, sample int) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := map[string]any{"traceEvents": events}
	other := map[string]any{}
	if dropped > 0 {
		other["droppedEvents"] = dropped
	}
	if sample > 1 {
		other["samplingRate"] = sample
	}
	if len(other) > 0 {
		doc["otherData"] = other
	}
	return json.NewEncoder(w).Encode(doc)
}

// The model's emitters, each the Event-slot code it replaced.

func (m *refRecorder) span(tid int, name, cat string) func() {
	begin := m.now()
	return func() {
		m.add(tid, Event{Name: name, Cat: cat, Ph: "X", Ts: begin, Tid: tid, Dur: m.now() - begin}, true)
	}
}

func (m *refRecorder) instant(tid int, name, cat string, args any) {
	m.add(tid, Event{Name: name, Cat: cat, Ph: "i", Ts: m.now(), Tid: tid, Args: args}, false)
}

func (m *refRecorder) flowStartNs(tid int, nc nameCat, id uint64, tsNs, aux int64) {
	m.add(tid, Event{Name: nc.name, Cat: nc.cat, Ph: "s", Ts: float64(tsNs) / 1e3, Tid: tid, ID: id, Aux: aux}, false)
}

func (m *refRecorder) flowEndNs(tid int, nc nameCat, id uint64, tsNs, aux int64) {
	m.add(tid, Event{Name: nc.name, Cat: nc.cat, Ph: "f", BP: "e", Ts: float64(tsNs) / 1e3, Tid: tid, ID: id, Aux: aux}, false)
}

func (m *refRecorder) flowPairNs(nc nameCat, id uint64, srcTid int, sendNs, sendAux int64, dstTid int, endNs, endAux int64) {
	m.add(dstTid, Event{Name: nc.name, Cat: nc.cat, Ph: "s", Ts: float64(sendNs) / 1e3, Tid: srcTid, ID: id, Aux: sendAux}, false)
	m.add(dstTid, Event{Name: nc.name, Cat: nc.cat, Ph: "f", BP: "e", Ts: float64(endNs) / 1e3, Tid: dstTid, ID: id, Aux: endAux}, false)
}

func (m *refRecorder) waitSliceNs(tid int, nc nameCat, id uint64, beginNs, endNs int64) {
	m.add(tid, Event{Name: nc.name, Cat: nc.cat, Ph: "X", Ts: float64(beginNs) / 1e3, Dur: float64(endNs-beginNs) / 1e3, Tid: tid, ID: id}, false)
}

func (m *refRecorder) sliceNs(tid int, name, cat string, beginNs, endNs int64, args any) {
	m.add(tid, Event{Name: name, Cat: cat, Ph: "X", Ts: float64(beginNs) / 1e3, Dur: float64(endNs-beginNs) / 1e3, Tid: tid, Args: args}, false)
}

func (m *refRecorder) instantNs(tid int, nc nameCat, tsNs, aux int64) {
	m.add(tid, Event{Name: nc.name, Cat: nc.cat, Ph: "i", Ts: float64(tsNs) / 1e3, Tid: tid, Aux: aux}, false)
}

// collectiveNs is what obs.Tracer.SpanCollective recorded through
// Instant before collectives had their own record.
func (m *refRecorder) collectiveNs(tid int, alg string, tsNs, ctx, seq int64) {
	m.add(tid, Event{Name: "collective", Cat: "coll", Ph: "i", Ts: float64(tsNs) / 1e3, Tid: tid,
		Args: CollArgs{Ctx: ctx, Seq: seq, Alg: alg}}, false)
}

// refAdapters mirrors the HLS adapter: it keeps its open spans' float
// begin times and emits through the model.
type refAdapters struct {
	m    *refRecorder
	open map[string]float64
}

func (a *refAdapters) begin(key string) { a.open[key] = a.m.now() }

// end closes key's span as name/cat, or records an instant when it was
// never opened.
func (a *refAdapters) end(key string, tid int, name, cat string) {
	begin, ok := a.open[key]
	delete(a.open, key)
	if !ok {
		a.m.instant(tid, name, cat, nil)
		return
	}
	a.m.add(tid, Event{Name: name, Cat: cat, Ph: "X", Ts: begin, Tid: tid, Dur: a.m.now() - begin}, true)
}

// fuzzInput reads a fuzz program; past its end every read is zero.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

func (in *fuzzInput) int64() int64 {
	var buf [8]byte
	n := copy(buf[:], in.b)
	in.b = in.b[n:]
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// fuzzProg builds seed programs in the layout fuzzInput reads: a byte
// field takes one byte, an int64 field eight.
type fuzzProg struct{ b []byte }

func newFuzzProg(maxEvents, sample byte) *fuzzProg { return &fuzzProg{b: []byte{maxEvents, sample}} }

func (p *fuzzProg) op(code byte, fields ...any) *fuzzProg {
	p.b = append(p.b, code, 0) // the zero is the op's clock step
	for _, f := range fields {
		switch v := f.(type) {
		case byte:
			p.b = append(p.b, v)
		case int64:
			p.b = binary.LittleEndian.AppendUint64(p.b, uint64(v))
		default:
			panic(fmt.Sprintf("fuzzProg: field %T", f))
		}
	}
	return p
}

// The fuzz program's vocabulary: names for the interned (hot) emitters
// and strings for the cold ones, overlapping on purpose so a cold
// emitter reuses a hot pair.
var (
	fuzzHot   = []nameCat{{"msg", "msg"}, {"cts", "msg"}, {"wait", "wait"}, {"send-wait", "wait"}, {"chan", "coll"}, {"", ""}}
	fuzzNames = []string{"msg", "wait", "phase", "a/b", ""}
	fuzzCats  = []string{"msg", "wait", "hls", ""}
)

func fuzzArgs(c byte) any {
	switch c % 5 {
	case 1:
		return map[string]any{"i": int(c)}
	case 2:
		return MsgArgs{Peer: int(c), Bytes: 64}
	case 3:
		return DirectiveArgs{Key: "k", Rank: int(c)}
	case 4:
		return map[string]int(nil) // a typed nil still encodes "args":null
	}
	return nil
}

const (
	opFlowStart = iota
	opFlowEnd
	opFlowPair
	opWaitSlice
	opInstantNs
	opCollective
	opSliceNs
	opInstant
	opSpanOpen
	opSpanClose
	opSyncArrive
	opSyncDepart
	opCheck
	numFuzzOps
)

// runRecorderProgram drives the recorder and the model through one
// program and compares them after every opCheck and at the end.
func runRecorderProgram(t *testing.T, prog []byte) {
	in := &fuzzInput{b: prog}
	maxEvents, sample := int(in.byte()%48), int(in.byte()%4)
	var now int64 = 1 << 30
	clock := func() int64 { return now }
	opts := []RecorderOption{WithMaxEvents(maxEvents)}
	if sample > 0 {
		opts = append(opts, WithSampling(sample))
	}
	r := NewRecorder(opts...)
	r.clock = clock
	m := newRefRecorder(maxEvents, sample, clock)
	hot := make([]Name, len(fuzzHot))
	for i, nc := range fuzzHot {
		hot[i] = r.Intern(nc.name, nc.cat)
	}
	syncA := &SyncAdapter{R: r}
	ref := &refAdapters{m: m, open: map[string]float64{}}
	type openSpan struct{ real, model func() }
	var spans []openSpan

	nextTid := func() int { return int(in.byte()%16) - 2 }
	name := func() string { return fuzzNames[int(in.byte())%len(fuzzNames)] }
	cat := func() string { return fuzzCats[int(in.byte())%len(fuzzCats)] }
	for step := 0; len(in.b) > 0; step++ {
		op := in.byte() % numFuzzOps
		now += 1 + int64(in.byte())*997 // every op moves the clock
		switch op {
		case opFlowStart, opFlowEnd:
			tid, h, id, ts, aux := nextTid(), int(in.byte())%len(hot), uint64(in.int64()), in.int64(), in.int64()
			if op == opFlowStart {
				r.FlowStartNs(tid, hot[h], id, ts, aux)
				m.flowStartNs(tid, fuzzHot[h], id, ts, aux)
			} else {
				r.FlowEndNs(tid, hot[h], id, ts, aux)
				m.flowEndNs(tid, fuzzHot[h], id, ts, aux)
			}
		case opFlowPair:
			h, id := int(in.byte())%len(hot), uint64(in.int64())
			src, sendNs, sendAux := nextTid(), in.int64(), in.int64()
			dst, endNs, endAux := nextTid(), in.int64(), in.int64()
			r.FlowPairNs(hot[h], id, src, sendNs, sendAux, dst, endNs, endAux)
			m.flowPairNs(fuzzHot[h], id, src, sendNs, sendAux, dst, endNs, endAux)
		case opWaitSlice:
			tid, h, id, b, e := nextTid(), int(in.byte())%len(hot), uint64(in.int64()), in.int64(), in.int64()
			r.WaitSliceNs(tid, hot[h], id, b, e)
			m.waitSliceNs(tid, fuzzHot[h], id, b, e)
		case opInstantNs:
			tid, h, ts, aux := nextTid(), int(in.byte())%len(hot), in.int64(), in.int64()
			r.InstantNs(tid, hot[h], ts, aux)
			m.instantNs(tid, fuzzHot[h], ts, aux)
		case opCollective:
			tid, h, ts, ctx, seq := nextTid(), int(in.byte())%len(hot), in.int64(), in.int64(), in.int64()
			r.CollectiveNs(tid, hot[h], ts, ctx, seq)
			m.collectiveNs(tid, fuzzHot[h].name, ts, ctx, seq)
		case opSliceNs:
			tid, n, c, b, e, args := nextTid(), name(), cat(), in.int64(), in.int64(), fuzzArgs(in.byte())
			r.SliceNs(tid, n, c, b, e, args)
			m.sliceNs(tid, n, c, b, e, args)
		case opInstant:
			tid, n, c, args := nextTid(), name(), cat(), fuzzArgs(in.byte())
			r.Instant(tid, n, c, args)
			m.instant(tid, n, c, args)
		case opSpanOpen:
			tid, n, c := nextTid(), name(), cat()
			spans = append(spans, openSpan{r.Span(tid, n, c), m.span(tid, n, c)})
		case opSpanClose:
			if len(spans) > 0 {
				s := spans[len(spans)-1]
				spans = spans[:len(spans)-1]
				s.real()
				s.model()
			}
		case opSyncArrive, opSyncDepart:
			key, rank := name(), nextTid()
			k := fmt.Sprintf("hls %s %d", key, rank)
			if op == opSyncArrive {
				syncA.Arrive(key, rank)
				ref.begin(k)
			} else {
				syncA.Depart(key, rank)
				ref.end(k, rank, key, "hls")
			}
		case opCheck:
			compareRecorder(t, fmt.Sprintf("step %d", step), r, m)
		}
	}
	compareRecorder(t, "end", r, m)
}

// compareRecorder checks Events, Len, Dropped and the WriteJSON bytes
// against the model.
func compareRecorder(t *testing.T, at string, r *Recorder, m *refRecorder) {
	t.Helper()
	got, ref := r.Events(), m.events()
	if len(got) != len(ref) {
		t.Fatalf("%s: Events() holds %d events, model %d", at, len(got), len(ref))
	}
	var want []Event // nil when empty: the recorder writes "traceEvents":null
	for i, w := range ref {
		if w.clocked {
			// Float-µs subtraction against integer ns: within 1 ns.
			if math.Abs(got[i].Dur-w.Dur) > 1e-3 {
				t.Fatalf("%s: event %d Dur %v, model %v (more than 1 ns apart)", at, i, got[i].Dur, w.Dur)
			}
			w.Dur = got[i].Dur
		}
		if !reflect.DeepEqual(got[i], w.Event) {
			t.Fatalf("%s: event %d\n got   %+v\n model %+v", at, i, got[i], w.Event)
		}
		want = append(want, w.Event)
	}
	if r.Len() != len(ref) {
		t.Fatalf("%s: Len() = %d, model %d", at, r.Len(), len(ref))
	}
	if r.Dropped() != m.dropped() {
		t.Fatalf("%s: Dropped() = %d, model %d", at, r.Dropped(), m.dropped())
	}
	var gotJSON, wantJSON bytes.Buffer
	if err := r.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := refWriteJSON(&wantJSON, want, m.dropped(), m.sample); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("%s: WriteJSON differs\n got   %s\n model %s", at, gotJSON.Bytes(), wantJSON.Bytes())
	}
}

// FuzzRecorderRing runs random sequences of every emitter, over random
// tids and a small WithMaxEvents bound (so rings wrap), against the
// []Event model. The *Ns emitters must match it exactly; spans whose
// Dur the old code took as a float difference may differ within 1 ns.
func FuzzRecorderRing(f *testing.F) {
	f.Add([]byte{}) // nothing recorded
	// TestRingBufferBoundsEvents: one stripe's ring of 4 wraps.
	p := newFuzzProg(32, 0)
	for i := int64(0); i < 10; i++ {
		p.op(opInstantNs, byte(2), byte(0), i*1000, int64(0))
	}
	f.Add(p.b)
	// TestSpanAndInstant, unbounded.
	f.Add(newFuzzProg(0, 0).op(opSpanOpen, byte(5), byte(2), byte(2)).
		op(opInstant, byte(5), byte(3), byte(3), byte(1)).op(opSpanClose).b)
	// TestRingBufferConcurrent: instants on eight tids, sequentially.
	p = newFuzzProg(16, 0)
	for i := 0; i < 24; i++ {
		p.op(opInstant, byte(2+i%8), byte(0), byte(0), byte(0))
	}
	f.Add(p.b)
	// TestRecorderConcurrentFlushAppend's emitter cycle, with a check
	// between rounds.
	p = newFuzzProg(24, 2)
	for i := int64(0); i < 12; i++ {
		ts := i * 5000
		p.op(opFlowStart, byte(2+i%3), byte(0), i, ts, int64(64)).
			op(opFlowEnd, byte(2+i%3), byte(0), i, ts+1, int64(0)).
			op(opFlowPair, byte(0), i, byte(2+i%3), ts, int64(8), byte(3+i%3), ts+2, int64(0)).
			op(opSliceNs, byte(2+i%3), byte(1), byte(1), ts-10, ts, byte(i)).
			op(opInstantNs, byte(2+i%3), byte(1), ts, int64(1)).
			op(opCheck)
	}
	f.Add(p.b)
	// The directive adapter, collectives and blocking waits.
	f.Add(newFuzzProg(40, 0).
		op(opSyncArrive, byte(0), byte(3)).op(opSyncDepart, byte(0), byte(3)).op(opSyncDepart, byte(1), byte(4)).
		op(opCollective, byte(2), byte(4), int64(12345), int64(-3), int64(9)).
		op(opWaitSlice, byte(2), byte(3), int64(77), int64(1000), int64(500)).b)
	f.Fuzz(func(t *testing.T, prog []byte) {
		runRecorderProgram(t, prog)
	})
}
