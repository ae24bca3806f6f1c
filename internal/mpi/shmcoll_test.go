package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hls/internal/topology"
)

// runBoth runs the same program under CollShared and CollChannels and
// returns both worlds, failing the test if either errors. The fast path
// must be observationally equivalent to the channel algorithms.
func runBoth(t *testing.T, tasks int, fn func(*Task) error) (shared, channels *World) {
	t.Helper()
	shared, err := Run(Config{NumTasks: tasks, Collectives: CollShared}, fn)
	if err != nil {
		t.Fatalf("CollShared: %v", err)
	}
	channels, err = Run(Config{NumTasks: tasks, Collectives: CollChannels}, fn)
	if err != nil {
		t.Fatalf("CollChannels: %v", err)
	}
	if got := shared.Stats().SharedCollectives; got == 0 {
		t.Errorf("CollShared world completed 0 fast-path collectives")
	}
	if got := channels.Stats().SharedCollectives; got != 0 {
		t.Errorf("CollChannels world completed %d fast-path collectives, want 0", got)
	}
	return shared, channels
}

// TestSharedCollectivesMatchChannels drives every fast-path operation —
// non-zero roots, empty and rendezvous-sized buffers, world and derived
// communicators — under both modes and checks the results agree.
func TestSharedCollectivesMatchChannels(t *testing.T) {
	const n = 8
	const big = DefaultEagerLimit // elements, so bytes >> EagerLimit on the channel path
	runBoth(t, n, func(tk *Task) error {
		r := tk.Rank()

		// Bcast, root 3, small and large.
		small := make([]float64, 5)
		if r == 3 {
			for i := range small {
				small[i] = float64(10 + i)
			}
		}
		Bcast(tk, nil, small, 3)
		for i, v := range small {
			if v != float64(10+i) {
				t.Errorf("rank %d: Bcast small[%d] = %v", r, i, v)
			}
		}
		large := make([]int64, big)
		if r == 3 {
			for i := range large {
				large[i] = int64(i * i)
			}
		}
		Bcast(tk, nil, large, 3)
		if large[big-1] != int64(big-1)*int64(big-1) {
			t.Errorf("rank %d: Bcast large tail = %d", r, large[big-1])
		}

		// Empty buffers are legal everywhere.
		Bcast(tk, nil, []int{}, 0)
		Allreduce(tk, nil, []int{}, []int{}, OpSum)

		// Reduce to a non-zero root.
		send := []int{r + 1, 2 * r}
		recv := make([]int, 2)
		Reduce(tk, nil, send, recv, OpSum, 5)
		if r == 5 {
			wantA, wantB := 0, 0
			for q := 0; q < n; q++ {
				wantA += q + 1
				wantB += 2 * q
			}
			if recv[0] != wantA || recv[1] != wantB {
				t.Errorf("rank %d: Reduce = %v, want [%d %d]", r, recv, wantA, wantB)
			}
		}

		// Allreduce max.
		mx := make([]int, 1)
		Allreduce(tk, nil, []int{r * 7 % 5}, mx, OpMax)
		want := 0
		for q := 0; q < n; q++ {
			if q*7%5 > want {
				want = q * 7 % 5
			}
		}
		if mx[0] != want {
			t.Errorf("rank %d: Allreduce max = %d, want %d", r, mx[0], want)
		}

		// Allgather.
		all := make([]int32, 2*n)
		Allgather(tk, nil, []int32{int32(r), int32(-r)}, all)
		for q := 0; q < n; q++ {
			if all[2*q] != int32(q) || all[2*q+1] != int32(-q) {
				t.Errorf("rank %d: Allgather block %d = %v", r, q, all[2*q:2*q+2])
			}
		}

		// Derived communicators run the same fast path: Dup, then an
		// odd/even Split with reversed rank order.
		dup := Dup(tk, nil)
		sum := make([]int, 1)
		Allreduce(tk, dup, []int{1}, sum, OpSum)
		if sum[0] != n {
			t.Errorf("rank %d: dup Allreduce = %d, want %d", r, sum[0], n)
		}
		sub := Split(tk, nil, r%2, -r)
		subSum := make([]int, 1)
		Allreduce(tk, sub, []int{r}, subSum, OpSum)
		want = 0
		for q := r % 2; q < n; q += 2 {
			want += q
		}
		if subSum[0] != want {
			t.Errorf("rank %d: split Allreduce = %d, want %d", r, subSum[0], want)
		}
		Barrier(tk, sub)
		Barrier(tk, dup)
		Barrier(tk, nil)
		return nil
	})
}

// TestSharedCollectivesSingleTask checks the degenerate world.
func TestSharedCollectivesSingleTask(t *testing.T) {
	runBoth(t, 1, func(tk *Task) error {
		Barrier(tk, nil)
		buf := []int{7}
		Bcast(tk, nil, buf, 0)
		out := make([]int, 1)
		Reduce(tk, nil, buf, out, OpSum, 0)
		if out[0] != 7 {
			t.Errorf("Reduce alone = %d", out[0])
		}
		Allreduce(tk, nil, buf, out, OpProd)
		all := make([]int, 1)
		Allgather(tk, nil, buf, all)
		if all[0] != 7 {
			t.Errorf("Allgather alone = %d", all[0])
		}
		return nil
	})
}

// TestSharedCollectivesTopologyComms runs fast-path collectives on
// SplitScope communicators of a 4-socket machine, so the per-comm
// barrier trees are built over real cache/NUMA sub-hierarchies.
func TestSharedCollectivesTopologyComms(t *testing.T) {
	w, err := Run(Config{
		NumTasks: 32, Machine: topology.NehalemEX4(), Pin: topology.PinCorePerTask,
	}, func(tk *Task) error {
		sub := SplitScope(tk, topology.NUMA)
		sum := make([]int, 1)
		Allreduce(tk, sub, []int{tk.Rank()}, sum, OpSum)
		// Ranks are pinned core-per-task on 4 sockets of 8 cores: the
		// NUMA siblings of rank r are the 8 ranks sharing r/8.
		base := tk.Rank() / 8 * 8
		want := 0
		for q := base; q < base+8; q++ {
			want += q
		}
		if sum[0] != want {
			t.Errorf("rank %d: NUMA Allreduce = %d, want %d", tk.Rank(), sum[0], want)
		}
		Barrier(tk, sub)
		Barrier(tk, nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().SharedCollectives == 0 {
		t.Error("no fast-path collectives on a hook-less world")
	}
}

// TestSharedCollectivesGating is the collective-path engagement table:
// under CollAuto the shared fast path (one process) and the two-level
// path (two wire processes) engage iff Config.Hooks is nil, and the
// CollShared / CollChannels overrides win over any hooks. The hook
// stand-ins have the shapes of the real installers: hb is a plain
// Hooks, chaos adds FaultHooks, and a tracer is not a hook at all but
// Config.Trace, which leaves the gate alone (checked in one process).
func TestSharedCollectivesGating(t *testing.T) {
	hb := &recHooks{id: 1}
	cases := []struct {
		name  string
		hooks func() Hooks // fresh per world: a wire pair needs two
		trace TraceHooks
		mode  CollectiveMode
		on    bool
	}{
		{"nil hooks", func() Hooks { return nil }, nil, CollAuto, true},
		{"trace", func() Hooks { return nil }, nopTrace{}, CollAuto, true},
		{"hb", func() Hooks { return hb }, nil, CollAuto, false},
		{"hb+trace", func() Hooks { return hb }, nopTrace{}, CollAuto, false},
		{"chaos", func() Hooks { return faultyHooks{} }, nil, CollAuto, false},
		{"hb+chaos", func() Hooks { return hbChaos{hb, faultyHooks{}} }, nil, CollAuto, false},
		{"CollShared with hb", func() Hooks { return hb }, nil, CollShared, true},
		{"CollChannels", func() Hooks { return nil }, nil, CollChannels, false},
	}
	fn := func(tk *Task) error { Barrier(tk, nil); return nil }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Run(Config{NumTasks: 4, Hooks: tc.hooks(), Trace: tc.trace, Collectives: tc.mode, Timeout: 30 * time.Second}, fn)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := w.Stats().SharedCollectives, map[bool]int64{true: 4}[tc.on]; got != want {
				t.Errorf("one process: SharedCollectives = %d, want %d", got, want)
			}
			if tc.mode == CollShared {
				return // CollShared is a single-process mode
			}
			w0, w1, err0, err1 := runWirePairMode(t, 2, tc.mode, fn, tc.hooks(), tc.hooks())
			if err0 != nil || err1 != nil {
				t.Fatalf("wire pair: %v / %v", err0, err1)
			}
			for i, w := range []*World{w0, w1} {
				if got, want := w.Stats().TwoLevelCollectives, map[bool]int64{true: 2}[tc.on]; got != want {
					t.Errorf("wire world %d: TwoLevelCollectives = %d, want %d", i, got, want)
				}
			}
		})
	}
}

type noopHooks struct{}

func (noopHooks) OnSend(worldSrc, worldDst int) any { return nil }
func (noopHooks) OnDeliver(worldDst int, meta any)  {}

type faultyHooks struct{ noopHooks }

func (faultyHooks) FaultP2P(worldSrc, worldDst, bytes int, rendezvous bool) FaultAction {
	return FaultAction{}
}

// hbChaos is one Hooks value that tracks like hb and injects like chaos.
type hbChaos struct {
	*recHooks
	faultyHooks
}

// nopTrace is a TraceHooks that records nothing.
type nopTrace struct{}

func (nopTrace) Now() int64                                                    { return 0 }
func (nopTrace) SpanStart(int, int, int, bool, bool) (uint64, int64)           { return 0, 0 }
func (nopTrace) SpanDeliver(int, uint64, int64, int64, int64, int, bool, bool) {}
func (nopTrace) SpanWait(int, string, uint64, int64)                           {}
func (nopTrace) SpanCts(int, uint64)                                           {}
func (nopTrace) SpanCollective(int, int64, int64, string)                      {}

// TestSharedCollectiveElision: when every task passes the same shared
// slice to Bcast (the HLS pattern: the buffer is an hls variable), the
// fast path skips all n-1 copies and counts them as elided.
func TestSharedCollectiveElision(t *testing.T) {
	shared := make([]float64, 64)
	w, err := Run(Config{NumTasks: 4}, func(tk *Task) error {
		if tk.Rank() == 2 {
			for i := range shared {
				shared[i] = float64(i)
			}
		}
		Bcast(tk, nil, shared, 2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().SameAddrSkips; got != 3 {
		t.Errorf("SameAddrSkips = %d, want 3", got)
	}
}

// Mismatch detection: the entry barrier's leader inspects every member's
// published slot, so a desynchronized program fails on all ranks with a
// typed *Error instead of deadlocking or corrupting buffers.

func wantAllErrors(t *testing.T, w *World, substr string) {
	t.Helper()
	for r, err := range w.RankErrors() {
		var me *Error
		if !errors.As(err, &me) {
			t.Errorf("rank %d: error %v, want *Error", r, err)
			continue
		}
		if !strings.Contains(me.Msg, substr) {
			t.Errorf("rank %d: message %q does not mention %q", r, me.Msg, substr)
		}
	}
}

func TestSharedCollectiveMismatchedKinds(t *testing.T) {
	w, _ := NewWorld(Config{NumTasks: 4})
	err := w.Run(func(tk *Task) error {
		if tk.Rank() == 1 {
			buf := make([]int, 1)
			Bcast(tk, nil, buf, 0)
		} else {
			Barrier(tk, nil)
		}
		return nil
	})
	if err == nil {
		t.Fatal("mismatched collectives completed")
	}
	wantAllErrors(t, w, "mismatched collectives")
}

func TestSharedCollectiveDatatypeMismatch(t *testing.T) {
	w, _ := NewWorld(Config{NumTasks: 4})
	err := w.Run(func(tk *Task) error {
		if tk.Rank() == 3 {
			Bcast(tk, nil, make([]int32, 4), 0)
		} else {
			Bcast(tk, nil, make([]int64, 4), 0)
		}
		return nil
	})
	if err == nil {
		t.Fatal("datatype mismatch completed")
	}
	wantAllErrors(t, w, "datatype mismatch")
}

func TestSharedCollectiveLengthMismatch(t *testing.T) {
	w, _ := NewWorld(Config{NumTasks: 4})
	err := w.Run(func(tk *Task) error {
		Bcast(tk, nil, make([]int, 4+tk.Rank()%2), 0)
		return nil
	})
	if err == nil {
		t.Fatal("length mismatch completed")
	}
	wantAllErrors(t, w, "length mismatch")
}

func TestSharedCollectiveRootMismatch(t *testing.T) {
	w, _ := NewWorld(Config{NumTasks: 4})
	err := w.Run(func(tk *Task) error {
		Bcast(tk, nil, make([]int, 2), tk.Rank()%2)
		return nil
	})
	if err == nil {
		t.Fatal("root mismatch completed")
	}
	wantAllErrors(t, w, "root mismatch")
}

func TestSharedCollectiveUnknownOp(t *testing.T) {
	w, _ := NewWorld(Config{NumTasks: 4})
	err := w.Run(func(tk *Task) error {
		out := make([]int, 1)
		Allreduce(tk, nil, []int{1}, out, Op(99))
		return nil
	})
	if err == nil {
		t.Fatal("unknown op completed")
	}
	wantAllErrors(t, w, "unknown op")
}

// TestSharedCollectiveDeadRankAttribution kills a rank mid-program and
// checks survivors blocked in a fast-path collective unwind with a
// DeadRankError attributed to their own rank and the operation — the
// same contract the channel path keeps via checkReq.
func TestSharedCollectiveDeadRankAttribution(t *testing.T) {
	const n, victim = 8, 5
	w, _ := NewWorld(Config{NumTasks: n})
	err := w.Run(func(tk *Task) error {
		buf := make([]float64, 16)
		out := make([]float64, 16)
		for i := 0; i < 50; i++ {
			if tk.Rank() == victim && i == 7 {
				panic("chaos kill")
			}
			Allreduce(tk, nil, buf, out, OpSum)
		}
		return nil
	})
	if err == nil {
		t.Fatal("world with a killed rank completed")
	}
	for r, rerr := range w.RankErrors() {
		if r == victim {
			continue
		}
		var dre *DeadRankError
		if !errors.As(rerr, &dre) {
			t.Errorf("rank %d: error %v, want *DeadRankError", r, rerr)
			continue
		}
		if dre.Dead != victim || dre.Rank != r || dre.Op != "Allreduce" {
			t.Errorf("rank %d: DeadRankError{Rank:%d Op:%q Dead:%d}, want {Rank:%d Op:\"Allreduce\" Dead:%d}",
				r, dre.Rank, dre.Op, dre.Dead, r, victim)
		}
	}
}

// TestSharedCollectiveZeroAllocs is the fast path's allocation budget:
// small Bcast/Allreduce/Barrier on the steady state allocate nothing, on
// any rank.
func TestSharedCollectiveZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks under -short")
	}
	cases := []struct {
		name string
		fn   func(tk *Task, send, recv []float64)
	}{
		{"Barrier", func(tk *Task, send, recv []float64) { Barrier(tk, nil) }},
		{"Bcast8", func(tk *Task, send, recv []float64) { Bcast(tk, nil, send, 0) }},
		{"Allreduce8", func(tk *Task, send, recv []float64) { Allreduce(tk, nil, send, recv, OpSum) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) {
				benchWorldCollective(b, 4, tc.fn)
			})
			if allocs := res.AllocsPerOp(); allocs != 0 {
				t.Errorf("%s: %d allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// benchWorldCollective runs fn b.N times on every rank of a hook-less
// world, timing (and metering allocations) only the steady-state loop:
// every rank warms up first, and the timer restarts once all are ready.
func benchWorldCollective(b *testing.B, tasks int, fn func(tk *Task, send, recv []float64)) {
	w, err := NewWorld(Config{NumTasks: tasks})
	if err != nil {
		b.Fatal(err)
	}
	var ready sync.WaitGroup
	ready.Add(tasks)
	start := make(chan struct{})
	go func() {
		ready.Wait()
		b.ResetTimer()
		close(start)
	}()
	if err := w.Run(func(tk *Task) error {
		send := make([]float64, 8)
		recv := make([]float64, 8)
		for i := 0; i < 4; i++ {
			fn(tk, send, recv)
		}
		ready.Done()
		<-start
		for i := 0; i < b.N; i++ {
			fn(tk, send, recv)
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSharedBarrier(b *testing.B) {
	benchWorldCollective(b, 4, func(tk *Task, send, recv []float64) { Barrier(tk, nil) })
}

func BenchmarkSharedAllreduce8(b *testing.B) {
	benchWorldCollective(b, 4, func(tk *Task, send, recv []float64) {
		Allreduce(tk, nil, send, recv, OpSum)
	})
}
