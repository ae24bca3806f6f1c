package metrics

import (
	"slices"
	"sync"
)

// statFamily is one exported series whose value is read from a layer's
// counter snapshot T.
type statFamily[T any] struct {
	name, help string
	label      []Label
	gauge      bool
	value      func(*T) int64
}

// pull exports families summed over the sources it watches. A layer
// that already counts its events in a Stats method is read, not told:
// every series is a CounterFunc/GaugeFunc worth the counts folded in
// from stopped sources plus each live source's current snapshot, so the
// layer counts each event once and pays nothing extra for being
// watched. Every adapter is a pull.
type pull[S comparable, T any] struct {
	fams  []statFamily[T]
	stats func(S) T

	mu   sync.Mutex
	live []S
	// base[i] is family i's total over sources whose watch has stopped.
	base []int64
}

// newPull registers fams on r (nothing on a nil registry); stats reads
// one source's snapshot.
func newPull[S comparable, T any](r *Registry, fams []statFamily[T], stats func(S) T) *pull[S, T] {
	p := &pull[S, T]{fams: fams, stats: stats, base: make([]int64, len(fams))}
	for i, f := range fams {
		read := func() int64 { return p.read(i) }
		if f.gauge {
			r.GaugeFunc(f.name, f.help, read, f.label...)
		} else {
			r.CounterFunc(f.name, f.help, read, f.label...)
		}
	}
	return p
}

// Watch adds s's counters to every series from now on. stop folds s's
// final counters into the series' base and drops the reference, so a
// finished source is neither lost from the totals nor kept alive; call
// it once s is done (a world's Run has returned, a transport is closed).
// A gauge is a level, not a total, so a stopped source just leaves it.
// Extra stop calls do nothing.
func (p *pull[S, T]) Watch(s S) (stop func()) {
	p.mu.Lock()
	p.live = append(p.live, s)
	p.mu.Unlock()
	return sync.OnceFunc(func() {
		st := p.stats(s)
		p.mu.Lock()
		defer p.mu.Unlock()
		for i, f := range p.fams {
			if !f.gauge {
				p.base[i] += f.value(&st)
			}
		}
		if j := slices.Index(p.live, s); j >= 0 {
			p.live = slices.Delete(p.live, j, j+1)
		}
	})
}

// read returns family i's value: its base plus every live source's share.
func (p *pull[S, T]) read(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := p.base[i]
	for _, s := range p.live {
		st := p.stats(s)
		v += p.fams[i].value(&st)
	}
	return v
}
