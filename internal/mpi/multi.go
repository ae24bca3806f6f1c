package mpi

// MultiHooks combines several Hooks into one, so a world can feed the
// happens-before tracker, the trace recorder and a fault injector
// simultaneously without hand-written Inner chains. Each member's
// OnSend metadata travels with the message independently and is handed
// back to that member's OnDeliver. Members implementing FaultHooks are
// all consulted, and their actions merge.
//
// Nil members are dropped; with zero non-nil members MultiHooks returns
// nil (no hooks), and with exactly one it returns that member unchanged,
// so composition adds no overhead in the degenerate cases.
func MultiHooks(hooks ...Hooks) Hooks {
	hs := make([]Hooks, 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			hs = append(hs, h)
		}
	}
	switch len(hs) {
	case 0:
		return nil
	case 1:
		return hs[0]
	}
	m := &multiHooks{hooks: hs}
	var faults []FaultHooks
	for _, h := range hs {
		if fh, ok := h.(FaultHooks); ok {
			faults = append(faults, fh)
		}
	}
	// Only the wrapper type asserts FaultHooks, so a composition with no
	// fault-injecting member keeps the world's nil fast path.
	if len(faults) > 0 {
		return &multiFaultHooks{multiHooks: m, faults: faults}
	}
	return m
}

// multiFaultHooks extends multiHooks with FaultP2P fan-out. Members'
// actions merge: delays add up, and any member's drop (or duplicate)
// verdict wins.
type multiFaultHooks struct {
	*multiHooks
	faults []FaultHooks
}

func (m *multiFaultHooks) FaultP2P(worldSrc, worldDst, bytes int, rendezvous bool) FaultAction {
	var act FaultAction
	for _, f := range m.faults {
		a := f.FaultP2P(worldSrc, worldDst, bytes, rendezvous)
		act.Delay += a.Delay
		act.Drop = act.Drop || a.Drop
		act.Duplicate = act.Duplicate || a.Duplicate
	}
	return act
}

type multiHooks struct {
	hooks []Hooks
}

// OnSend implements Hooks, gathering every member's metadata.
func (m *multiHooks) OnSend(worldSrc, worldDst int) any {
	metas := make([]any, len(m.hooks))
	for i, h := range m.hooks {
		metas[i] = h.OnSend(worldSrc, worldDst)
	}
	return metas
}

// OnDeliver implements Hooks, handing each member its own metadata.
func (m *multiHooks) OnDeliver(worldDst int, meta any) {
	metas, _ := meta.([]any)
	for i, h := range m.hooks {
		var mi any
		if i < len(metas) {
			mi = metas[i]
		}
		h.OnDeliver(worldDst, mi)
	}
}
