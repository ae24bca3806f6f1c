package metrics

import (
	"strings"
	"sync"
	"time"
)

// RMAAdapter implements rma.Tracer and rma.Observer (structurally),
// turning one-sided communication into metrics:
//
//   - rma_epoch_ns{win,kind} — synchronization epoch durations (fence,
//     PSCW access/expose, passive-target lock), the cost MPI-3 shared
//     windows pay where HLS pays a directive;
//   - rma_open_epochs{kind} — epochs currently open;
//   - rma_ops_total / rma_op_bytes_total / rma_op_bytes{op} —
//     Put/Get/Accumulate counts and payloads;
//   - rma_lock_publishes_total / rma_lock_acquires_total — passive-target
//     lock handovers seen by the Observer, a direct read on lock
//     contention (acquires outnumbering publishes means origins queued on
//     a busy target).
//
// Install with rma.WithTracer(ad) and rma.WithObserver(ad); a window
// takes one of each. Constructed over a nil registry every method is a
// cheap no-op.
type RMAAdapter struct {
	reg   *Registry
	start time.Time

	opsPut      *Counter
	opsGet      *Counter
	opsAcc      *Counter
	opBytesPut  *Counter
	opBytesGet  *Counter
	opBytesAcc  *Counter
	opSizePut   *Histogram
	opSizeGet   *Histogram
	opSizeAcc   *Histogram
	lockPublish *Counter
	lockAcquire *Counter

	mu     sync.Mutex
	epochs map[rmaSpanKey]int64 // open epoch -> start ns
	opens  map[string]*Gauge    // per-kind open-epoch gauges
	hists  map[string]*Histogram
}

type rmaSpanKey struct {
	win  string
	kind string
	rank int
}

// NewRMAAdapter creates the adapter and registers its fixed metric
// families. Passing a nil registry yields a disabled adapter.
func NewRMAAdapter(r *Registry) *RMAAdapter {
	a := &RMAAdapter{
		reg:         r,
		start:       time.Now(),
		opsPut:      r.Counter("rma_ops_total", "one-sided operations issued, by op", L("op", "put")),
		opsGet:      r.Counter("rma_ops_total", "one-sided operations issued, by op", L("op", "get")),
		opsAcc:      r.Counter("rma_ops_total", "one-sided operations issued, by op", L("op", "accumulate")),
		opBytesPut:  r.Counter("rma_op_bytes_total", "bytes moved by one-sided operations, by op", L("op", "put")),
		opBytesGet:  r.Counter("rma_op_bytes_total", "bytes moved by one-sided operations, by op", L("op", "get")),
		opBytesAcc:  r.Counter("rma_op_bytes_total", "bytes moved by one-sided operations, by op", L("op", "accumulate")),
		opSizePut:   r.Histogram("rma_op_bytes", "one-sided operation size distribution, by op", L("op", "put")),
		opSizeGet:   r.Histogram("rma_op_bytes", "one-sided operation size distribution, by op", L("op", "get")),
		opSizeAcc:   r.Histogram("rma_op_bytes", "one-sided operation size distribution, by op", L("op", "accumulate")),
		lockPublish: r.Counter("rma_lock_publishes_total", "passive-target unlock publications (Observer.Arrive)"),
		lockAcquire: r.Counter("rma_lock_acquires_total", "passive-target lock acquisitions ordered after a publish (Observer.Depart)"),
	}
	if r != nil {
		a.epochs = make(map[rmaSpanKey]int64)
		a.opens = make(map[string]*Gauge)
		a.hists = make(map[string]*Histogram)
	}
	return a
}

func (a *RMAAdapter) nowNs() int64 { return time.Since(a.start).Nanoseconds() }

// epochKind normalizes a tracer kind: per-target lock epochs
// ("lock:<target>") fold into "lock".
func epochKind(kind string) string {
	if i := strings.IndexByte(kind, ':'); i >= 0 {
		return kind[:i]
	}
	return kind
}

// openGauge resolves the open-epoch gauge of one kind. Caller holds a.mu.
func (a *RMAAdapter) openGauge(kind string) *Gauge {
	g, ok := a.opens[kind]
	if !ok {
		g = a.reg.Gauge("rma_open_epochs", "RMA synchronization epochs currently open, by kind", L("kind", kind))
		a.opens[kind] = g
	}
	return g
}

// epochHist resolves the duration histogram of one (window, kind).
// Caller holds a.mu.
func (a *RMAAdapter) epochHist(win, kind string) *Histogram {
	id := win + "\x00" + kind
	h, ok := a.hists[id]
	if !ok {
		h = a.reg.Histogram("rma_epoch_ns", "RMA synchronization epoch durations, by window and kind",
			L("win", win), L("kind", kind))
		a.hists[id] = h
	}
	return h
}

// EpochOpen implements rma.Tracer.
func (a *RMAAdapter) EpochOpen(win, kind string, worldRank int) {
	if a.reg == nil {
		return
	}
	k := epochKind(kind)
	now := a.nowNs()
	a.mu.Lock()
	a.epochs[rmaSpanKey{win, kind, worldRank}] = now
	g := a.openGauge(k)
	a.mu.Unlock()
	g.Inc(worldRank)
}

// EpochClose implements rma.Tracer, recording the epoch duration.
func (a *RMAAdapter) EpochClose(win, kind string, worldRank int) {
	if a.reg == nil {
		return
	}
	k := epochKind(kind)
	key := rmaSpanKey{win, kind, worldRank}
	a.mu.Lock()
	begin, ok := a.epochs[key]
	if ok {
		delete(a.epochs, key)
	}
	g := a.openGauge(k)
	h := a.epochHist(win, k)
	a.mu.Unlock()
	g.Dec(worldRank)
	if ok {
		h.Observe(worldRank, a.nowNs()-begin)
	}
}

// BeginOp implements rma.Tracer.
func (a *RMAAdapter) BeginOp(win, op string, worldRank, targetWorldRank, bytes int) {
	if a.reg == nil {
		return
	}
	switch op {
	case "put":
		a.opsPut.Inc(worldRank)
		a.opBytesPut.Add(worldRank, int64(bytes))
		a.opSizePut.Observe(worldRank, int64(bytes))
	case "get":
		a.opsGet.Inc(worldRank)
		a.opBytesGet.Add(worldRank, int64(bytes))
		a.opSizeGet.Observe(worldRank, int64(bytes))
	case "accumulate":
		a.opsAcc.Inc(worldRank)
		a.opBytesAcc.Add(worldRank, int64(bytes))
		a.opSizeAcc.Observe(worldRank, int64(bytes))
	}
}

// EndOp implements rma.Tracer. The transfer itself was counted at
// BeginOp; nothing further to record.
func (a *RMAAdapter) EndOp(win, op string, worldRank int) {}

// Arrive implements rma.Observer: an unlocker published its clock.
func (a *RMAAdapter) Arrive(key string, worldRank int) {
	a.lockPublish.Inc(worldRank)
}

// Depart implements rma.Observer: a locker acquired a published clock.
func (a *RMAAdapter) Depart(key string, worldRank int) {
	a.lockAcquire.Inc(worldRank)
}
