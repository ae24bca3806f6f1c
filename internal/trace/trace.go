// Package trace records runtime events (messages, HLS directives, user
// phases) and exports them in the Chrome trace-event JSON format, so a
// run's task timelines can be inspected in chrome://tracing or Perfetto.
//
// Messages reach the recorder through internal/obs's Tracer (installed
// as mpi.Config.Trace), which draws each one as a send→deliver flow
// arrow; an hls.SyncObserver adapter here brackets directive
// arrive/depart pairs. RMA windows (rma.WithRecorder) and checkpoint
// coordinators (ckpt.Config.Trace) already hold their epochs' and
// operations' begin times, so they write their slices to the Recorder
// directly, and user code can add phase spans the same way.
package trace

import (
	"encoding/json"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// Event is one trace-event entry (Chrome "traceEvents" schema). The
// recorder keeps events as compact ring records and decodes them to
// Events when they are read (Events, WriteJSON).
type Event struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"` // "B"egin, "E"nd, "i"nstant, "X" complete, "s"/"f" flow
	Ts   float64 `json:"ts"` // microseconds since recorder start
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Dur  float64 `json:"dur,omitempty"`
	// ID links flow events ("s"/"f") into one arrow across pids/tids.
	ID uint64 `json:"id,omitempty"`
	// BP is the flow binding point ("e" = enclosing slice) on "f" events.
	BP string `json:"bp,omitempty"`
	// Aux is a single hot-path integer payload (message bytes on flow
	// starts, receive-post time on flow ends) that avoids boxing an Args
	// map on events emitted from the message datapath. Our own analysis
	// reads it; viewers ignore the unknown key.
	Aux  int64 `json:"aux,omitempty"`
	Args any   `json:"args,omitempty"`
}

// Typed Args payloads for hot-path events: a concrete struct marshals
// the same JSON as a map[string]any without the per-event map and
// interface-boxing allocations.
type (
	// MsgArgs annotates message events.
	MsgArgs struct {
		Peer  int `json:"peer"`
		Bytes int `json:"bytes,omitempty"`
		Tag   int `json:"tag,omitempty"`
	}
	// DirectiveArgs annotates HLS directive spans.
	DirectiveArgs struct {
		Key  string `json:"key"`
		Rank int    `json:"rank"`
	}
	// CollArgs annotates collective instants.
	CollArgs struct {
		Ctx int64 `json:"ctx"`
		Seq int64 `json:"seq"`
		// Alg is the algorithm family the runtime selected for the
		// communicator ("chan", "shm", "2l").
		Alg string `json:"alg,omitempty"`
	}
)

// recorderStripes shards the recorder's storage so concurrent ranks
// don't serialize on one mutex: with tens of tasks ping-ponging, a
// single lock is the dominant tracing cost (every message append
// contends). Events carry their own Pid/Tid — a stripe is purely a
// storage shard, chosen by the emitting event's tid.
const recorderStripes = 8

// Name is an interned (name, cat) pair, the handle a ring record stores
// instead of two strings. Hot-path callers intern their fixed names once
// (Recorder.Intern) and pass the handle to the *Ns emitters, which then
// never look a name up.
type Name uint16

// maxNames is how many pairs a record's Name can index. The cold
// emitters intern into the first half only, so the table always has
// room for a hot-path caller's fixed names.
const (
	maxNames     = 1 << 16
	maxColdNames = maxNames / 2
)

type nameCat struct{ name, cat string }

// A record's ph indexes phases. X records keep Dur in val; the others
// keep Aux. A flow end always binds to its enclosing slice (bp "e").
const phases = "Xisf"

const (
	phX uint8 = iota // complete slice
	phI              // instant
	phS              // flow start
	phF              // flow end
)

const (
	// flagArgs: the stripe's side slot holds the event's Args.
	flagArgs uint8 = 1 << iota
	// flagColl: a collective instant. id is the context, val the
	// sequence and Name the algorithm; decodes to CollArgs.
	flagColl
	// flagSideName: the cold half of the intern table was full, so the
	// side slot holds a sideName carrying the event's name, cat and Args.
	flagSideName
)

// record is one ring slot: the compact form an Event is stored in until
// Events decodes it. The layout is fixed at 32 bytes (see
// TestRecordIs32Bytes), a quarter of an Event.
type record struct {
	ts    int64  // ns since the recorder started
	val   int64  // Dur in ns on X records, Aux otherwise
	id    uint64 // flow/span id
	tid   int32
	name  Name
	ph    uint8
	flags uint8
}

// set writes every field in place: building the record on the stack and
// copying it would load the narrow fields back as one wide word, which
// stalls store forwarding on the per-message path.
func (rec *record) set(ts, val int64, id uint64, tid int, n Name, ph, flags uint8) {
	rec.ts, rec.val, rec.id, rec.tid, rec.name, rec.ph, rec.flags = ts, val, id, int32(tid), n, ph, flags
}

type sideName struct {
	nameCat
	args any
}

type recorderStripe struct {
	mu sync.Mutex
	// ring is allocated on the stripe's first event, so the stripes no
	// rank writes cost nothing.
	ring []record
	// side holds the rare Args payloads (and overflowed names) by ring
	// index. It is allocated on the first event that carries one, and a
	// slot is cleared when the ring overwrites it.
	side    []any
	next    int   // ring write position when the buffer is full
	dropped int64 // events overwritten because the buffer was full
	// Keep adjacent stripes off one cache line: neighbouring ranks
	// would otherwise false-share the mutex words.
	_ [64]byte
}

// Recorder accumulates events. Safe for concurrent use.
type Recorder struct {
	stripes [recorderStripes]recorderStripe
	start   time.Time
	// startMono anchors the hot-path clock: NowNs is the monotonic
	// delta from it (see clock.go), equal to time.Since(start) without
	// the per-read time.Time round trip.
	startMono int64
	// clock, when set, replaces NowNs for the emitters that read the
	// time themselves (Span, Instant and the adapters), so a test can
	// replay them deterministically.
	clock  func() int64
	max    int // total event bound requested (0 = unbounded)
	perMax int // per-stripe ring bound derived from max
	sample int // span sampling rate (record 1 in sample; <= 1 = all)

	namesMu sync.Mutex
	names   []nameCat // by Name; append-only
	nameIDs map[nameCat]Name
}

// RecorderOption tunes a Recorder.
type RecorderOption func(*Recorder)

// WithMaxEvents bounds the recorder to roughly the most recent n
// events: the bound is divided across the internal stripes, each of
// which becomes a ring buffer of n/8 events once full, overwriting its
// oldest event and counting the overwritten ones (see Dropped), so long
// runs cannot grow the recorder without limit. A workload whose events
// all land on one stripe retains n/8 rather than n — callers size rings
// with headroom, not to the byte. A stripe's ring (32 bytes an event)
// is allocated when the stripe records its first event. n <= 0 means
// unbounded.
func WithMaxEvents(n int) RecorderOption {
	return func(r *Recorder) { r.max = n }
}

// WithSampling records only one in n message spans: consumers of the
// recorder (internal/obs' Tracer) read SampleEvery and skip minting span
// ids for the rest, shrinking the enabled-path overhead on hosts where
// the two clock reads per message dominate (the PR 7 slow-clock limit).
// Sampling is deterministic (a send counter modulo n), collective
// instants sample on the world-agreed sequence so every rank keeps the
// same operations, and the rate is recorded in the trace header
// ("samplingRate" in otherData) so analysis can rescale counts.
// n <= 1 keeps every span.
func WithSampling(n int) RecorderOption {
	return func(r *Recorder) {
		if n < 1 {
			n = 1
		}
		r.sample = n
	}
}

// SampleEvery returns the span sampling rate (1 = record everything).
func (r *Recorder) SampleEvery() int {
	if r.sample < 1 {
		return 1
	}
	return r.sample
}

// NewRecorder starts a recorder; timestamps are relative to this call.
// A bounded recorder allocates each stripe's full ring on that stripe's
// first event, so the recording hot path never reallocates (append
// growth would periodically zero and copy inside a stripe lock) and the
// stripes no rank writes cost nothing.
func NewRecorder(opts ...RecorderOption) *Recorder {
	r := &Recorder{start: time.Now(), startMono: nanotime()}
	for _, o := range opts {
		o(r)
	}
	if r.max > 0 {
		r.perMax = (r.max + recorderStripes - 1) / recorderStripes
	}
	return r
}

// NowNs returns nanoseconds since the recorder started — the integer
// clock the hot-path *Ns emitters below share, so runtime code can
// capture timestamps without floating-point conversion on every call.
func (r *Recorder) NowNs() int64 {
	return nanotime() - r.startMono
}

// clockNs is the clock of the emitters that read the time themselves.
func (r *Recorder) clockNs() int64 {
	if r.clock != nil {
		return r.clock()
	}
	return r.NowNs()
}

// EpochUnixNano anchors the recorder's relative clock: event timestamp 0
// corresponds to this wall-clock instant (unix nanoseconds). Merging
// traces from several processes rebases each recorder's events using its
// epoch plus the measured clock offset between the machines.
func (r *Recorder) EpochUnixNano() int64 {
	return r.start.UnixNano()
}

// Intern returns the handle of the (name, cat) pair for the *Ns
// emitters. Intern a fixed set of names once, at setup: the table holds
// 65 536 pairs, at least half of them for Intern, which panics when the
// table is full.
func (r *Recorder) Intern(name, cat string) Name {
	n, ok := r.intern(name, cat, maxNames)
	if !ok {
		panic("trace: more than 65536 distinct event names")
	}
	return n
}

// intern looks the pair up, adding it while the table holds fewer than
// limit pairs; ok is false when the pair is new and the table is that
// full.
func (r *Recorder) intern(name, cat string, limit int) (n Name, ok bool) {
	k := nameCat{name, cat}
	r.namesMu.Lock()
	defer r.namesMu.Unlock()
	if n, ok = r.nameIDs[k]; ok {
		return n, true
	}
	if len(r.names) >= limit {
		return 0, false
	}
	if r.nameIDs == nil {
		r.nameIDs = make(map[nameCat]Name)
	}
	n = Name(len(r.names))
	r.names = append(r.names, k)
	r.nameIDs[k] = n
	return n, true
}

// stripe picks the storage shard for events emitted on behalf of tid.
func (r *Recorder) stripe(tid int) *recorderStripe {
	return &r.stripes[uint(tid)%recorderStripes]
}

// slotLocked hands out the index of st's next ring slot; the caller
// writes the whole record. A bounded stripe allocates its ring here on
// its first event and, once full, overwrites its oldest slot.
func (r *Recorder) slotLocked(st *recorderStripe) int {
	if r.perMax == 0 {
		st.ring = append(st.ring, record{})
		return len(st.ring) - 1
	}
	if n := len(st.ring); n < r.perMax {
		if st.ring == nil {
			st.ring = make([]record, 0, r.perMax)
		}
		st.ring = st.ring[:n+1]
		return n
	}
	i := st.next
	if st.next++; st.next == r.perMax {
		st.next = 0
	}
	st.dropped++
	if i < len(st.side) {
		st.side[i] = nil
	}
	return i
}

// setSideLocked parks v in side slot i, growing the side slice to the
// ring's capacity (its final size, for a bounded stripe).
func (st *recorderStripe) setSideLocked(i int, v any) {
	if i >= len(st.side) {
		side := make([]any, cap(st.ring))
		copy(side, st.side)
		st.side = side
	}
	st.side[i] = v
}

// addCold records an event from an emitter off the message datapath: it
// interns (name, cat) under the table's lock and parks args in the
// stripe's side slice.
func (r *Recorder) addCold(tid int, name, cat string, ph uint8, tsNs, val int64, args any) {
	n, ok := r.intern(name, cat, maxColdNames)
	var flags uint8
	side := args
	switch {
	case !ok:
		flags, side = flagSideName, sideName{nameCat{name, cat}, args}
	case args != nil:
		flags = flagArgs
	}
	st := r.stripe(tid)
	st.mu.Lock()
	i := r.slotLocked(st)
	st.ring[i].set(tsNs, val, 0, tid, n, ph, flags)
	if flags != 0 {
		st.setSideLocked(i, side)
	}
	st.mu.Unlock()
}

// Span opens a duration event on task `tid`; the returned func closes it.
func (r *Recorder) Span(tid int, name, cat string) func() {
	begin := r.clockNs()
	return func() {
		r.SliceNs(tid, name, cat, begin, r.clockNs(), nil)
	}
}

// Instant records a point event on task `tid`.
func (r *Recorder) Instant(tid int, name, cat string, args any) {
	r.addCold(tid, name, cat, phI, r.clockNs(), 0, args)
}

// FlowStartNs records a flow-start ("s") event at tsNs on task tid. aux
// carries the message byte count. Flow events with the same id render as
// one arrow from the "s" to the "f" event, across processes.
func (r *Recorder) FlowStartNs(tid int, n Name, id uint64, tsNs, aux int64) {
	st := r.stripe(tid)
	st.mu.Lock()
	st.ring[r.slotLocked(st)].set(tsNs, aux, id, tid, n, phS, 0)
	st.mu.Unlock()
}

// FlowEndNs records a flow-end ("f", binding to the enclosing slice) at
// tsNs on task tid. aux carries the receive-post timestamp (ns).
func (r *Recorder) FlowEndNs(tid int, n Name, id uint64, tsNs, aux int64) {
	st := r.stripe(tid)
	st.mu.Lock()
	st.ring[r.slotLocked(st)].set(tsNs, aux, id, tid, n, phF, 0)
	st.mu.Unlock()
}

// FlowPairNs records a flow start on srcTid and its end on dstTid under
// one lock acquisition — the in-process delivery fast path, where both
// halves of the arrow are known the moment the message lands.
func (r *Recorder) FlowPairNs(n Name, id uint64, srcTid int, sendNs, sendAux int64, dstTid int, endNs, endAux int64) {
	// Both halves go on the receiver's stripe under one lock: a stripe
	// is storage, not a timeline — each event still carries its tid.
	st := r.stripe(dstTid)
	st.mu.Lock()
	st.ring[r.slotLocked(st)].set(sendNs, sendAux, id, srcTid, n, phS, 0)
	st.ring[r.slotLocked(st)].set(endNs, endAux, id, dstTid, n, phF, 0)
	st.mu.Unlock()
}

// WaitSliceNs records a complete ("X") slice tagged with the flow/span
// id it waited on, so wait attribution can join the slice to its flow.
func (r *Recorder) WaitSliceNs(tid int, n Name, id uint64, beginNs, endNs int64) {
	st := r.stripe(tid)
	st.mu.Lock()
	st.ring[r.slotLocked(st)].set(beginNs, endNs-beginNs, id, tid, n, phX, 0)
	st.mu.Unlock()
}

// SliceNs records a complete ("X") slice from beginNs to endNs on tid.
func (r *Recorder) SliceNs(tid int, name, cat string, beginNs, endNs int64, args any) {
	r.addCold(tid, name, cat, phX, beginNs, endNs-beginNs, args)
}

// InstantNs records a point event at tsNs on tid with an integer payload.
func (r *Recorder) InstantNs(tid int, n Name, tsNs, aux int64) {
	st := r.stripe(tid)
	st.mu.Lock()
	st.ring[r.slotLocked(st)].set(tsNs, aux, 0, tid, n, phI, 0)
	st.mu.Unlock()
}

// CollectiveNs records a collective instant at tsNs on tid: the event
// named "collective" (cat "coll") whose Args are CollArgs{ctx, seq, alg}.
// alg is the interned algorithm name (its cat is ignored); the payload
// rides the record itself, so nothing is boxed per collective.
func (r *Recorder) CollectiveNs(tid int, alg Name, tsNs, ctx, seq int64) {
	st := r.stripe(tid)
	st.mu.Lock()
	st.ring[r.slotLocked(st)].set(tsNs, seq, uint64(ctx), tid, alg, phI, flagColl)
	st.mu.Unlock()
}

// decodeLocked expands ring slot i back into the exported Event.
func (st *recorderStripe) decodeLocked(i int, names []nameCat) Event {
	rec := &st.ring[i]
	e := Event{Ph: phases[rec.ph : rec.ph+1], Ts: float64(rec.ts) / 1e3, Tid: int(rec.tid), ID: rec.id}
	if rec.ph == phX {
		e.Dur = float64(rec.val) / 1e3
	} else {
		e.Aux = rec.val
	}
	if rec.ph == phF {
		e.BP = "e"
	}
	switch {
	case rec.flags&flagColl != 0:
		e.Name, e.Cat, e.ID, e.Aux = "collective", "coll", 0, 0
		e.Args = CollArgs{Ctx: int64(rec.id), Seq: rec.val, Alg: names[rec.name].name}
	case rec.flags&flagSideName != 0:
		sn := st.side[i].(sideName)
		e.Name, e.Cat, e.Args = sn.name, sn.cat, sn.args
	default:
		e.Name, e.Cat = names[rec.name].name, names[rec.name].cat
		if rec.flags&flagArgs != 0 {
			e.Args = st.side[i]
		}
	}
	return e
}

// Events snapshots the currently held events (oldest first within each
// rank's stripe, unsorted by timestamp across ranks — callers that need
// time order sort the copy).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		// Read the table after the stripe lock: every name a held
		// record uses was interned before the record was written.
		r.namesMu.Lock()
		names := r.names
		r.namesMu.Unlock()
		n, first := len(st.ring), 0
		if r.perMax > 0 && n == r.perMax {
			first = st.next // ring wrapped: unrotate, oldest first
		}
		out = slices.Grow(out, n)
		for k := 0; k < n; k++ {
			out = append(out, st.decodeLocked((first+k)%n, names))
		}
		st.mu.Unlock()
	}
	return out
}

// Len returns the number of currently held events (at most the
// WithMaxEvents bound).
func (r *Recorder) Len() int {
	n := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		n += len(st.ring)
		st.mu.Unlock()
	}
	return n
}

// Dropped returns how many events were overwritten because a
// WithMaxEvents ring filled up (always 0 for unbounded recorders).
func (r *Recorder) Dropped() int64 {
	var d int64
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		d += st.dropped
		st.mu.Unlock()
	}
	return d
}

// WriteJSON emits the Chrome trace file. Events are sorted by timestamp
// — concurrent tasks append out of order, storage is striped by rank,
// and some viewers mis-stack unsorted duration events. When events were
// dropped, the count is recorded in the file's otherData section as
// "droppedEvents".
func (r *Recorder) WriteJSON(w io.Writer) error {
	events := r.Events()
	dropped := r.Dropped()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	doc := map[string]any{"traceEvents": events}
	other := map[string]any{}
	if dropped > 0 {
		other["droppedEvents"] = dropped
	}
	if s := r.SampleEvery(); s > 1 {
		other["samplingRate"] = s
	}
	if len(other) > 0 {
		doc["otherData"] = other
	}
	return json.NewEncoder(w).Encode(doc)
}

// SyncAdapter implements hls.SyncObserver, bracketing each directive.
type SyncAdapter struct {
	R *Recorder

	mu   sync.Mutex
	open map[spanKey]int64 // begin, ns
}

type spanKey struct {
	key  string
	rank int
}

// Arrive implements hls.SyncObserver.
func (a *SyncAdapter) Arrive(key string, rank int) {
	a.mu.Lock()
	if a.open == nil {
		a.open = make(map[spanKey]int64)
	}
	a.open[spanKey{key, rank}] = a.R.clockNs()
	a.mu.Unlock()
}

// Depart implements hls.SyncObserver.
func (a *SyncAdapter) Depart(key string, rank int) {
	a.mu.Lock()
	begin, ok := a.open[spanKey{key, rank}]
	delete(a.open, spanKey{key, rank})
	a.mu.Unlock()
	if ok {
		a.R.SliceNs(rank, key, "hls", begin, a.R.clockNs(), nil)
	} else {
		// A nowait skipper departs without arriving: record an instant.
		a.R.Instant(rank, key, "hls", nil)
	}
}
