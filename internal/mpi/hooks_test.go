package mpi

import (
	"sync/atomic"
	"testing"
	"time"
)

// recHooks is a plain Hooks: it tags its metadata with its id and the
// message's ends, and checks every delivery hands back that tag.
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

// TestHooksMetadataRoundTrip: OnSend's metadata comes back to OnDeliver
// with its own message on the eager, rendezvous and elided-copy paths.
func TestHooksMetadataRoundTrip(t *testing.T) {
	h := &recHooks{id: 1}

	shared := make([]int, 4) // one address space: the elided-copy path
	_, err := Run(Config{NumTasks: 2, Hooks: h, EagerLimit: 16, Timeout: 30 * time.Second},
		func(task *Task) error {
			if task.Rank() == 0 {
				Send(task, nil, []int{1}, 1, 0)          // 8 B <= 16: eager
				Send(task, nil, []int{1, 2, 3, 4}, 1, 1) // 32 B > 16: rendezvous
				Send(task, nil, shared, 1, 2)            // same buffer on both sides
			} else {
				buf := make([]int, 4)
				Recv(task, nil, buf[:1], 0, 0)
				Recv(task, nil, buf, 0, 1)
				Recv(task, nil, shared, 0, 2) // same backing array: copy elided
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	if h.sends.Load() != 3 || h.delivers.Load() != 3 {
		t.Errorf("sends %d delivers %d, want 3/3", h.sends.Load(), h.delivers.Load())
	}
	if h.bad.Load() != 0 {
		t.Errorf("%d deliveries got another message's metadata", h.bad.Load())
	}
}
