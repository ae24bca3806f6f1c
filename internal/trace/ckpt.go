package trace

import (
	"fmt"
	"sync"
)

// CkptAdapter implements ckpt.Tracer (structurally, like the other
// adapters), turning each rank's side of a coordinated checkpoint or
// restore into a "ckpt" duration span on its timeline, annotated with
// the generation. Pass it in ckpt.Config{Tracer: a}.
type CkptAdapter struct {
	R *Recorder

	mu   sync.Mutex
	open map[ckptKey]int64 // begin, ns
}

type ckptKey struct {
	op   string
	rank int
}

// CkptBegin implements ckpt.Tracer: op ("checkpoint" or "restore") on
// generation gen starts on worldRank's timeline.
func (a *CkptAdapter) CkptBegin(op string, gen uint64, worldRank int) {
	a.mu.Lock()
	if a.open == nil {
		a.open = make(map[ckptKey]int64)
	}
	a.open[ckptKey{op, worldRank}] = a.R.clockNs()
	a.mu.Unlock()
}

// CkptEnd implements ckpt.Tracer, emitting the span.
func (a *CkptAdapter) CkptEnd(op string, gen uint64, worldRank int) {
	k := ckptKey{op, worldRank}
	a.mu.Lock()
	begin, ok := a.open[k]
	delete(a.open, k)
	a.mu.Unlock()
	name := fmt.Sprintf("%s/gen-%d", op, gen)
	if !ok {
		a.R.Instant(worldRank, name, "ckpt", nil)
		return
	}
	a.R.SliceNs(worldRank, name, "ckpt", begin, a.R.clockNs(), map[string]any{"generation": gen})
}
