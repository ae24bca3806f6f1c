package mpi

import (
	"sync/atomic"
	"testing"
	"time"
)

// recHooks is a plain Hooks member: it tags its metadata with its id and
// checks every delivery hands back its own tag.
type recHooks struct {
	id                   int
	sends, delivers, bad atomic.Int64
}

func (h *recHooks) OnSend(src, dst int) any {
	h.sends.Add(1)
	return [2]int{h.id, src*100 + dst}
}

func (h *recHooks) OnDeliver(dst int, meta any) {
	h.delivers.Add(1)
	if m, ok := meta.([2]int); !ok || m[0] != h.id || m[1]%100 != dst {
		h.bad.Add(1)
	}
}

// msgRecHooks additionally implements MessageHooks.
type msgRecHooks struct {
	recHooks
	eager, rendezvous, elided, colls atomic.Int64
	bytes, elidedBytes               atomic.Int64
}

func (h *msgRecHooks) OnMessage(src, dst, bytes int, rendezvous bool) {
	h.bytes.Add(int64(bytes))
	if rendezvous {
		h.rendezvous.Add(1)
	} else {
		h.eager.Add(1)
	}
}

func (h *msgRecHooks) OnCopyElided(dst, bytes int) {
	h.elided.Add(1)
	h.elidedBytes.Add(int64(bytes))
}

func (h *msgRecHooks) OnCollective(rank int) { h.colls.Add(1) }

func TestMultiHooksDegenerateCases(t *testing.T) {
	if MultiHooks() != nil || MultiHooks(nil, nil) != nil {
		t.Fatal("MultiHooks with no members must be nil (no hooks at all)")
	}
	h := &recHooks{id: 1}
	if got := MultiHooks(nil, h, nil); got != Hooks(h) {
		t.Fatal("MultiHooks with one member must return it unchanged")
	}
	if _, ok := MultiHooks(&recHooks{}, &recHooks{}).(MessageHooks); !ok {
		t.Fatal("the combined hooks must satisfy MessageHooks so members that do are reachable")
	}
}

func TestMultiHooksFanOut(t *testing.T) {
	plain := &recHooks{id: 1}
	msg := &msgRecHooks{recHooks: recHooks{id: 2}}
	hooks := MultiHooks(plain, nil, msg)

	shared := make([]int, 4) // one address space: used for the elision path
	_, err := Run(Config{NumTasks: 2, Hooks: hooks, EagerLimit: 16, Timeout: 30 * time.Second},
		func(task *Task) error {
			if task.Rank() == 0 {
				Send(task, nil, []int{1}, 1, 0)          // 8 B <= 16: eager
				Send(task, nil, []int{1, 2, 3, 4}, 1, 1) // 32 B > 16: rendezvous
				Send(task, nil, shared, 1, 2)            // same buffer on both sides
			} else {
				buf := make([]int, 4)
				// Probe first so the eager message is queued unexpected before
				// the receive posts: a pre-posted receive would be delivered
				// directly and fire a second, timing-dependent elision event.
				Probe(task, nil, 0, 0)
				Recv(task, nil, buf[:1], 0, 0)
				Recv(task, nil, buf, 0, 1)
				Recv(task, nil, shared, 0, 2) // same backing array: copy elided
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	for _, h := range []*recHooks{plain, &msg.recHooks} {
		if h.sends.Load() != 3 || h.delivers.Load() != 3 {
			t.Errorf("member %d: sends %d delivers %d, want 3/3", h.id, h.sends.Load(), h.delivers.Load())
		}
		if h.bad.Load() != 0 {
			t.Errorf("member %d: received another member's metadata", h.id)
		}
	}
	if msg.eager.Load() != 1 || msg.rendezvous.Load() != 2 {
		t.Errorf("protocol split: eager %d rendezvous %d, want 1/2", msg.eager.Load(), msg.rendezvous.Load())
	}
	if got := msg.bytes.Load(); got != 8+32+32 {
		t.Errorf("bytes = %d, want 72", got)
	}
	if msg.elided.Load() != 1 || msg.elidedBytes.Load() != 32 {
		t.Errorf("elision: %d events / %d B, want 1 / 32", msg.elided.Load(), msg.elidedBytes.Load())
	}
}

// TestMessageHooksDirect: a world whose sole Hooks implements
// MessageHooks receives the extended events without MultiHooks.
func TestMessageHooksDirect(t *testing.T) {
	msg := &msgRecHooks{recHooks: recHooks{id: 1}}
	_, err := Run(Config{NumTasks: 2, Hooks: msg, Timeout: 30 * time.Second},
		func(task *Task) error {
			if task.Rank() == 0 {
				Send(task, nil, []int{7}, 1, 0)
			} else {
				Recv(task, nil, make([]int, 1), 0, 0)
			}
			Barrier(task, nil)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// The barrier's internal messages are zero-byte, so the payload total
	// pins down the user message alone.
	if msg.bytes.Load() != 8 {
		t.Fatalf("OnMessage not wired: bytes %d, want 8", msg.bytes.Load())
	}
	if got := msg.colls.Load(); got != 2 {
		t.Fatalf("collective starts = %d, want 2 (one per task)", got)
	}
}

// tlRecHooks opts into shared collectives and counts two-level
// completions.
type tlRecHooks struct {
	recHooks
	twoLevel atomic.Int64
}

func (h *tlRecHooks) SharedCollectivesOK() bool                { return true }
func (h *tlRecHooks) OnSharedCollective(int, string)           {}
func (h *tlRecHooks) OnTwoLevelCollective(rank int, op string) { h.twoLevel.Add(1) }

// TestMultiHooksForwardsTwoLevel: a composition of members that all
// implement TwoLevelCollHooks hands every two-level completion to each of
// them, so their counts match the world's own.
func TestMultiHooksForwardsTwoLevel(t *testing.T) {
	const perNode = 2
	members := [2][2]*tlRecHooks{}
	var hooks []Hooks
	for i := range members {
		members[i] = [2]*tlRecHooks{{recHooks: recHooks{id: 1}}, {recHooks: recHooks{id: 2}}}
		hooks = append(hooks, MultiHooks(members[i][0], members[i][1]))
	}
	fn := func(task *Task) error {
		Barrier(task, nil)
		out := []int64{0}
		Allreduce(task, nil, []int64{1}, out, OpSum)
		return nil
	}
	w0, w1, err0, err1 := runWirePairMode(t, perNode, CollTwoLevel, fn, hooks...)
	if err0 != nil || err1 != nil {
		t.Fatalf("err0=%v err1=%v", err0, err1)
	}
	for i, w := range []*World{w0, w1} {
		want := w.Stats().TwoLevelCollectives
		if want == 0 {
			t.Fatalf("world %d: two-level path never engaged", i)
		}
		for _, m := range members[i] {
			if got := m.twoLevel.Load(); got != want {
				t.Errorf("world %d member %d: %d two-level callbacks, Stats says %d", i, m.id, got, want)
			}
		}
	}
}
