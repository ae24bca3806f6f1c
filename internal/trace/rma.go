package trace

import (
	"fmt"
	"sync"
)

// RMAAdapter implements rma.Tracer (structurally, like the other
// adapters), turning one-sided communication into trace spans:
// synchronization epochs (fence, PSCW access/expose, per-target locks)
// become "rma-epoch" duration events on the origin's timeline, and each
// Put/Get/Accumulate becomes an "rma" span annotated with target rank and
// byte count. Pass it to a window with rma.WithTracer.
type RMAAdapter struct {
	R *Recorder

	mu     sync.Mutex
	epochs map[rmaKey]int64 // begin, ns
	ops    map[rmaKey]rmaOp
}

type rmaKey struct {
	win  string
	kind string
	rank int
}

type rmaOp struct {
	begin  int64 // ns
	target int
	bytes  int
}

// EpochOpen implements rma.Tracer: a synchronization epoch of the given
// kind ("fence", "access", "expose", "lock:<target>") opens on
// worldRank's timeline.
func (a *RMAAdapter) EpochOpen(win, kind string, worldRank int) {
	a.mu.Lock()
	if a.epochs == nil {
		a.epochs = make(map[rmaKey]int64)
	}
	a.epochs[rmaKey{win, kind, worldRank}] = a.R.clockNs()
	a.mu.Unlock()
}

// EpochClose implements rma.Tracer, emitting the epoch's span.
func (a *RMAAdapter) EpochClose(win, kind string, worldRank int) {
	k := rmaKey{win, kind, worldRank}
	a.mu.Lock()
	begin, ok := a.epochs[k]
	delete(a.epochs, k)
	a.mu.Unlock()
	name := fmt.Sprintf("%s/%s", win, kind)
	if ok {
		a.R.SliceNs(worldRank, name, "rma-epoch", begin, a.R.clockNs(), nil)
	} else {
		a.R.Instant(worldRank, name, "rma-epoch", nil)
	}
}

// BeginOp implements rma.Tracer: a Put/Get/Accumulate starts on
// worldRank's timeline.
func (a *RMAAdapter) BeginOp(win, op string, worldRank, targetWorldRank, bytes int) {
	a.mu.Lock()
	if a.ops == nil {
		a.ops = make(map[rmaKey]rmaOp)
	}
	a.ops[rmaKey{win, op, worldRank}] = rmaOp{begin: a.R.clockNs(), target: targetWorldRank, bytes: bytes}
	a.mu.Unlock()
}

// EndOp implements rma.Tracer, emitting the operation's span.
func (a *RMAAdapter) EndOp(win, op string, worldRank int) {
	k := rmaKey{win, op, worldRank}
	a.mu.Lock()
	o, ok := a.ops[k]
	delete(a.ops, k)
	a.mu.Unlock()
	if !ok {
		return
	}
	a.R.SliceNs(worldRank, fmt.Sprintf("%s/%s", win, op), "rma", o.begin, a.R.clockNs(),
		map[string]any{"target": o.target, "bytes": o.bytes})
}
