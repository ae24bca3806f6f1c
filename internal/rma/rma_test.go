package rma

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"hls/internal/hb"
	"hls/internal/memsim"
	"hls/internal/mpi"
	"hls/internal/topology"
)

func testWorld(t *testing.T, n int) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFencePutGet: the active-target fence cycle. Every rank puts its
// rank into its right neighbour's segment and gets its left neighbour's
// value back after the closing fence.
func TestFencePutGet(t *testing.T) {
	const n = 8
	w := testWorld(t, n)
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocate[int](task, nil, 4)
		me := task.Rank()
		right := (me + 1) % n
		left := (me + n - 1) % n

		win.Fence(task)
		win.Put(task, []int{me, me * 10}, right, 0)
		win.Fence(task)

		if got := win.Local(task); got[0] != left || got[1] != left*10 {
			return fmt.Errorf("rank %d: local = %v, want [%d %d ..]", me, got, left, left*10)
		}
		buf := make([]int, 2)
		win.Get(task, buf, left, 0)
		leftsLeft := (left + n - 1) % n
		if buf[0] != leftsLeft {
			return fmt.Errorf("rank %d: got %v from rank %d, want leading %d", me, buf, left, leftsLeft)
		}
		win.Free(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedQueryDirectAccess: WinAllocateShared + WinSharedQuery give
// every task of the node a directly addressable view of rank 0's
// segment — one copy, like an HLS node-scope variable.
func TestSharedQueryDirectAccess(t *testing.T) {
	const n, entries = 8, 1024
	w := testWorld(t, n)
	ptrs := make([]*float64, n)
	var mu sync.Mutex
	if err := w.Run(func(task *mpi.Task) error {
		mine := 0
		if task.Rank() == 0 {
			mine = entries
		}
		win := WinAllocateShared[float64](task, nil, mine)
		win.Fence(task)
		if task.Rank() == 0 {
			local := win.Local(task)
			for i := range local {
				local[i] = float64(i) * 0.5
			}
		}
		win.Fence(task)

		table := WinSharedQuery(task, win, 0)
		if len(table) != entries {
			return fmt.Errorf("rank %d: segment length %d, want %d", task.Rank(), len(table), entries)
		}
		if table[10] != 5.0 {
			return fmt.Errorf("rank %d: table[10] = %v, want 5", task.Rank(), table[10])
		}
		mu.Lock()
		ptrs[task.Rank()] = &table[0]
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if ptrs[r] != ptrs[0] {
			t.Fatalf("rank %d resolved a different copy than rank 0", r)
		}
	}
}

// TestSharedSegmentsContiguous: per-rank segments of a shared window are
// adjacent in one slab, as MPI_Win_allocate_shared lays them out.
func TestSharedSegmentsContiguous(t *testing.T) {
	const n, per = 4, 16
	w := testWorld(t, n)
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocateShared[int32](task, nil, per)
		win.Fence(task)
		for r := 0; r < n-1; r++ {
			a := WinSharedQuery(task, win, r)
			b := WinSharedQuery(task, win, r+1)
			gap := uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&a[0]))
			if gap != per*unsafe.Sizeof(a[0]) {
				return fmt.Errorf("segments of ranks %d and %d are %d bytes apart, want %d", r, r+1, gap, per*unsafe.Sizeof(a[0]))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedRequiresSingleNode: a world-spanning shared window on a
// 2-node machine is rejected; splitting by node scope makes it legal.
func TestSharedRequiresSingleNode(t *testing.T) {
	machine := topology.HarpertownCluster(2)
	n := machine.TotalCores()
	mk := func() *mpi.World {
		w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: machine,
			Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	err := mk().Run(func(task *mpi.Task) error {
		WinAllocateShared[float64](task, nil, 8)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "single-node") {
		t.Fatalf("cross-node shared window: err = %v, want single-node complaint", err)
	}
	if err := mk().Run(func(task *mpi.Task) error {
		nodeComm := mpi.SplitScope(task, topology.Node)
		win := WinAllocateShared[float64](task, nodeComm, 2)
		win.Fence(task)
		win.Local(task)[0] = float64(task.Rank())
		win.Fence(task)
		// Peer segments on the same node are addressable; the window is
		// node-local, so rank 0 of the node comm sits on this node.
		if got := WinSharedQuery(task, win, 0); len(got) != 2 {
			return fmt.Errorf("rank %d: bad segment %v", task.Rank(), got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWinCreateAttachesCallerMemory: WinCreate exposes an existing
// buffer; a Put lands in the original slice.
func TestWinCreateAttachesCallerMemory(t *testing.T) {
	const n = 4
	w := testWorld(t, n)
	if err := w.Run(func(task *mpi.Task) error {
		buf := make([]int, 8)
		win := WinCreate(task, nil, buf)
		win.Fence(task)
		if task.Rank() == 0 {
			for r := 1; r < n; r++ {
				win.Put(task, []int{100 + r}, r, 3)
			}
		}
		win.Fence(task)
		if task.Rank() != 0 && buf[3] != 100+task.Rank() {
			return fmt.Errorf("rank %d: buf[3] = %d, want %d", task.Rank(), buf[3], 100+task.Rank())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPSCW: generalized active target. Odd ranks expose, even ranks put
// into their right neighbour; Wait orders the target's read.
func TestPSCW(t *testing.T) {
	const n = 8
	w := testWorld(t, n)
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocate[float64](task, nil, 2)
		me := task.Rank()
		if me%2 == 0 {
			target := me + 1
			win.Start(task, target)
			win.Put(task, []float64{float64(me) + 0.5}, target, 0)
			win.Accumulate(task, []float64{1}, target, 1, mpi.OpSum)
			win.Complete(task)
		} else {
			win.Post(task, me-1)
			win.Wait(task)
			got := win.Local(task)
			if got[0] != float64(me-1)+0.5 || got[1] != 1 {
				return fmt.Errorf("rank %d: segment = %v", me, got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLockAccumulate: passive target. Every rank adds into rank 0's
// segment under a shared lock; Accumulate stays atomic; rank 0 reads
// the total under its own lock after a plain barrier.
func TestLockAccumulate(t *testing.T) {
	const n, iters = 8, 50
	w := testWorld(t, n)
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocate[int64](task, nil, 1)
		for i := 0; i < iters; i++ {
			win.Lock(task, LockShared, 0)
			win.Accumulate(task, []int64{1}, 0, 0, mpi.OpSum)
			win.Unlock(task, 0)
		}
		mpi.Barrier(task, nil)
		win.Lock(task, LockShared, 0)
		var got [1]int64
		win.Get(task, got[:], 0, 0)
		win.Unlock(task, 0)
		if got[0] != n*iters {
			return fmt.Errorf("rank %d: total = %d, want %d", task.Rank(), got[0], n*iters)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochEnforcement: MPI-3 epoch misuse is fatal, like any other MPI
// misuse in this runtime.
func TestEpochEnforcement(t *testing.T) {
	cases := []struct {
		name string
		body func(task *mpi.Task, win *Window[int])
		want string
	}{
		{"put-without-epoch", func(task *mpi.Task, win *Window[int]) {
			win.Put(task, []int{1}, 0, 0)
		}, "no RMA epoch"},
		{"unlock-without-lock", func(task *mpi.Task, win *Window[int]) {
			win.Unlock(task, 0)
		}, "no lock epoch"},
		{"complete-without-start", func(task *mpi.Task, win *Window[int]) {
			win.Complete(task)
		}, "no access epoch"},
		{"wait-without-post", func(task *mpi.Task, win *Window[int]) {
			win.Wait(task)
		}, "no exposure epoch"},
		{"double-lock", func(task *mpi.Task, win *Window[int]) {
			win.Lock(task, LockShared, 0)
			win.Lock(task, LockExclusive, 0)
		}, "already open"},
		{"out-of-range", func(task *mpi.Task, win *Window[int]) {
			win.Lock(task, LockShared, 0)
			win.Put(task, []int{1, 2, 3}, 0, 2)
		}, "outside target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, 2)
			err := w.Run(func(task *mpi.Task) error {
				win := WinAllocate[int](task, nil, 4)
				if task.Rank() == 0 {
					tc.body(task, win)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestHappensBeforePSCW: the Post/Start and Complete/Wait tokens carry
// the origin's vector clock through mpi.Hooks, so an event before the
// origin's epoch happens-before an event after the target's Wait — the
// edge §III's eligibility analysis needs to cover RMA programs.
func TestHappensBeforePSCW(t *testing.T) {
	tracker := hb.NewTracker(2)
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 2, Hooks: tracker, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var before, after hb.Clock
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocate[int](task, nil, 1)
		if task.Rank() == 0 {
			before = tracker.Tick(0)
			win.Start(task, 1)
			win.Put(task, []int{42}, 1, 0)
			win.Complete(task)
		} else {
			win.Post(task, 0)
			win.Wait(task)
			after = tracker.Tick(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !hb.HappensBefore(before, after) {
		t.Fatalf("origin's pre-epoch event does not happen-before target's post-Wait event: %v vs %v", before, after)
	}
}

// TestHappensBeforeLock: without any message hooks, the Observer alone
// (Arrive at Unlock, Depart at Lock) orders successive lock epochs.
func TestHappensBeforeLock(t *testing.T) {
	tracker := hb.NewTracker(2)
	w := testWorld(t, 2)
	var before, after hb.Clock
	if err := w.Run(func(task *mpi.Task) error {
		win := WinAllocate[int](task, nil, 1, WithObserver(tracker))
		if task.Rank() == 0 {
			before = tracker.Tick(0)
			win.Lock(task, LockExclusive, 0)
			win.Put(task, []int{7}, 0, 0)
			win.Unlock(task, 0)
			mpi.Send(task, nil, []int{1}, 1, 0) // order rank 1's epoch after ours (no hooks: carries no clock)
		} else {
			buf := make([]int, 1)
			mpi.Recv(task, nil, buf, 0, 0)
			win.Lock(task, LockShared, 0)
			after = tracker.Tick(1)
			var got [1]int
			win.Get(task, got[:], 0, 0)
			win.Unlock(task, 0)
			if got[0] != 7 {
				return fmt.Errorf("rank 1: read %d, want 7", got[0])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !hb.HappensBefore(before, after) {
		t.Fatalf("unlocker's event does not happen-before next locker's event: %v vs %v", before, after)
	}
}

// TestMemoryAccounting: the tracker sees the page-rounded slab as
// shared data and the per-rank control blocks as runtime memory, and
// Free returns both; WithAccountBytes rescales to paper-scale figures.
func TestMemoryAccounting(t *testing.T) {
	const n, entries = 8, 1000
	machine, err := topology.New(topology.Spec{Name: "m", Nodes: 1, SocketsPerNode: 1, CoresPerSocket: n, ThreadsPerCore: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: machine,
		Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tr := memsim.NewTracker(machine, w.Pinning())
	if err := w.Run(func(task *mpi.Task) error {
		mine := 0
		if task.Rank() == 0 {
			mine = entries
		}
		win := WinAllocateShared[float64](task, nil, mine, WithTracker(tr))
		mpi.Barrier(task, nil)
		if task.Rank() == 0 {
			shared := tr.KindBytes(memsim.KindShared)[0]
			want := pageRound(entries * 8)
			if shared != want {
				return fmt.Errorf("shared bytes = %d, want %d", shared, want)
			}
			runtime := tr.KindBytes(memsim.KindRuntime)[0]
			if runtime != n*ControlBytesPerRank {
				return fmt.Errorf("runtime bytes = %d, want %d", runtime, n*ControlBytesPerRank)
			}
		}
		mpi.Barrier(task, nil)
		win.Free(task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := tr.CurrentBytes(0); got != 0 {
		t.Fatalf("bytes after Free = %d, want 0", got)
	}

	// Paper-scale override.
	w2, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: machine,
		Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tr2 := memsim.NewTracker(machine, w2.Pinning())
	const paper = 8 << 20
	if err := w2.Run(func(task *mpi.Task) error {
		mine := 0
		if task.Rank() == 0 {
			mine = entries
		}
		WinAllocateShared[float64](task, nil, mine, WithTracker(tr2), WithAccountBytes(paper))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := tr2.KindBytes(memsim.KindShared)[0]; got != paper {
		t.Fatalf("paper-scale shared bytes = %d, want %d", got, paper)
	}
}

// TestTwoWindowsSameComm: concurrent windows on the same communicator
// stay distinct (each gets a private Dup).
func TestTwoWindowsSameComm(t *testing.T) {
	const n = 4
	w := testWorld(t, n)
	if err := w.Run(func(task *mpi.Task) error {
		a := WinAllocate[int](task, nil, 1)
		b := WinAllocate[int](task, nil, 1)
		if a == b {
			return fmt.Errorf("two creations interned to one window")
		}
		a.Fence(task)
		b.Fence(task)
		a.Put(task, []int{1}, task.Rank(), 0)
		b.Put(task, []int{2}, task.Rank(), 0)
		a.Fence(task)
		b.Fence(task)
		if a.Local(task)[0] != 1 || b.Local(task)[0] != 2 {
			return fmt.Errorf("windows share storage")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFreedWindowsAreNotRetained: a world allocates, fences and frees
// fifty windows of 256 KiB per rank. Once freed, nothing the world keeps
// (its failure handlers included) may hold their segments.
func TestFreedWindowsAreNotRetained(t *testing.T) {
	const n, windows, elems = 4, 50, 256 << 10 / 8
	w := testWorld(t, n)
	before := liveHeap()
	if err := w.Run(func(task *mpi.Task) error {
		for i := 0; i < windows; i++ {
			win := WinAllocate[float64](task, nil, elems)
			win.Fence(task)
			win.Fence(task)
			win.Free(task)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(w)
	if retained > 1<<20 {
		t.Fatalf("%d freed windows leave %.1f MiB live, want <= 1 MiB", windows, float64(retained)/(1<<20))
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
