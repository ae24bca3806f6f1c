package mpi

// MultiHooks combines several Hooks into one, so a world can feed the
// happens-before tracker, the trace recorder and the metrics adapters
// simultaneously without hand-written Inner chains. Each member's
// OnSend metadata travels with the message independently and is handed
// back to that member's OnDeliver. Members implementing MessageHooks
// also receive the extended events.
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
	m := &multiHooks{hooks: hs, shmOK: true}
	var faults []FaultHooks
	var pools poolFan
	for _, h := range hs {
		if mh, ok := h.(MessageHooks); ok {
			m.msg = append(m.msg, mh)
		}
		if fh, ok := h.(FaultHooks); ok {
			faults = append(faults, fh)
		}
		if ph, ok := h.(PoolHooks); ok {
			pools = append(pools, ph)
		}
		if th, ok := h.(TypedHooks); ok {
			m.typed = append(m.typed, th)
		}
		if th, ok := h.(TwoLevelCollHooks); ok {
			m.tl = append(m.tl, th)
		}
		// The composition allows the shared-collective fast path only if
		// every member does: one message-watching member (the hb tracker)
		// vetoes it for the whole world.
		if sh, ok := h.(SharedCollHooks); ok && sh.SharedCollectivesOK() {
			m.shm = append(m.shm, sh)
		} else {
			m.shmOK = false
		}
	}
	// Only the wrapper types assert FaultHooks / PoolHooks, so a
	// composition with no fault-injecting (or pool-watching) member keeps
	// the corresponding nil fast path in the world.
	switch {
	case len(faults) > 0 && len(pools) > 0:
		return &multiFaultPoolHooks{
			multiFaultHooks: multiFaultHooks{multiHooks: m, faults: faults},
			poolFan:         pools,
		}
	case len(faults) > 0:
		return &multiFaultHooks{multiHooks: m, faults: faults}
	case len(pools) > 0:
		return &multiPoolHooks{multiHooks: m, poolFan: pools}
	}
	return m
}

// poolFan fans the PoolHooks events out to every pool-watching member.
type poolFan []PoolHooks

func (p poolFan) OnPoolGet(worldRank, bytes int, hit bool) {
	for _, h := range p {
		h.OnPoolGet(worldRank, bytes, hit)
	}
}

func (p poolFan) OnPoolPut(worldRank, bytes int) {
	for _, h := range p {
		h.OnPoolPut(worldRank, bytes)
	}
}

func (p poolFan) OnMatchProbes(worldRank, probes int) {
	for _, h := range p {
		h.OnMatchProbes(worldRank, probes)
	}
}

// multiPoolHooks extends multiHooks with PoolHooks fan-out.
type multiPoolHooks struct {
	*multiHooks
	poolFan
}

// multiFaultPoolHooks combines both extensions.
type multiFaultPoolHooks struct {
	multiFaultHooks
	poolFan
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
	msg   []MessageHooks      // the subset implementing MessageHooks
	shm   []SharedCollHooks   // the subset that opted into shared collectives
	typed []TypedHooks        // the subset implementing TypedHooks
	tl    []TwoLevelCollHooks // the subset implementing TwoLevelCollHooks
	shmOK bool                // every member opted in
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

// OnMessage implements MessageHooks.
func (m *multiHooks) OnMessage(worldSrc, worldDst, bytes int, rendezvous bool) {
	for _, h := range m.msg {
		h.OnMessage(worldSrc, worldDst, bytes, rendezvous)
	}
}

// OnCopyElided implements MessageHooks.
func (m *multiHooks) OnCopyElided(worldDst, bytes int) {
	for _, h := range m.msg {
		h.OnCopyElided(worldDst, bytes)
	}
}

// OnCollective implements MessageHooks.
func (m *multiHooks) OnCollective(worldRank int) {
	for _, h := range m.msg {
		h.OnCollective(worldRank)
	}
}

// OnPackElided implements TypedHooks.
func (m *multiHooks) OnPackElided(worldDst, bytes int) {
	for _, h := range m.typed {
		h.OnPackElided(worldDst, bytes)
	}
}

// SharedCollectivesOK implements SharedCollHooks: the composition opts
// into the fast path only when every member did.
func (m *multiHooks) SharedCollectivesOK() bool { return m.shmOK }

// OnSharedCollective implements SharedCollHooks.
func (m *multiHooks) OnSharedCollective(worldRank int, op string) {
	for _, h := range m.shm {
		h.OnSharedCollective(worldRank, op)
	}
}

// OnTwoLevelCollective implements TwoLevelCollHooks.
func (m *multiHooks) OnTwoLevelCollective(worldRank int, op string) {
	for _, h := range m.tl {
		h.OnTwoLevelCollective(worldRank, op)
	}
}
