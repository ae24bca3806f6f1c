package spin

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run spawns n goroutines executing fn(member) and waits for them.
func run(n int, fn func(int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errs
}

func TestBarrierReusableGenerations(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 17} {
		b := NewBarrier(n)
		const rounds = 200
		var phase atomic.Int64
		errs := run(n, func(int) error {
			for r := 0; r < rounds; r++ {
				before := phase.Load()
				if before < int64(r) {
					return fmt.Errorf("round %d started before phase %d completed", r, r-1)
				}
				b.Await(func() { phase.Add(1) })
				if got := phase.Load(); got < int64(r+1) {
					return fmt.Errorf("left round %d with phase %d", r, got)
				}
			}
			return nil
		})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("n=%d member %d: %v", n, i, err)
			}
		}
		if got := phase.Load(); got != rounds {
			t.Fatalf("n=%d: %d phases, want %d", n, got, rounds)
		}
	}
}

func TestBarrierSingleExecutor(t *testing.T) {
	const n, rounds = 8, 100
	b := NewBarrier(n)
	var execs atomic.Int64
	errs := run(n, func(int) error {
		for r := 0; r < rounds; r++ {
			if last, _ := b.Await(func() {}); last {
				execs.Add(1)
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load(); got != rounds {
		t.Fatalf("body executed %d times, want exactly %d", got, rounds)
	}
}

func TestBarrierBodyRunsBeforeRelease(t *testing.T) {
	const n, rounds = 6, 100
	b := NewBarrier(n)
	var v atomic.Int64
	errs := run(n, func(int) error {
		for r := 0; r < rounds; r++ {
			b.Await(func() { v.Store(int64(r + 1)) })
			if got := v.Load(); got < int64(r+1) {
				return fmt.Errorf("round %d: saw %d before release", r, got)
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBarrierAbortWakesWaiters(t *testing.T) {
	poison := errors.New("poisoned")
	b := NewBarrier(3)
	errs := run(3, func(i int) error {
		if i == 2 {
			time.Sleep(20 * time.Millisecond)
			b.Abort(poison)
			return nil
		}
		if _, err := b.Await(nil); err != nil { // member 2 aborts instead
			return err
		}
		return errors.New("released from an aborted barrier")
	})
	for i := 0; i < 2; i++ {
		if !errors.Is(errs[i], poison) {
			t.Errorf("member %d: %v, want poison", i, errs[i])
		}
	}
	// Later arrivals fail immediately.
	_, err := b.Await(nil)
	if !errors.Is(err, poison) {
		t.Errorf("post-abort arrival: %v, want poison", err)
	}
	if !errors.Is(b.AbortErr(), poison) {
		t.Errorf("AbortErr = %v", b.AbortErr())
	}
}

func TestBarrierAbortKeepsFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	b := NewBarrier(2)
	b.Abort(first)
	b.Abort(second)
	if !errors.Is(b.AbortErr(), first) {
		t.Fatalf("AbortErr = %v, want first", b.AbortErr())
	}
}

func TestMutexBarrierMatchesSemantics(t *testing.T) {
	const n, rounds = 8, 100
	b := NewMutexBarrier(n)
	var execs, phase atomic.Int64
	errs := run(n, func(int) error {
		for r := 0; r < rounds; r++ {
			if last, _ := b.Await(func() { phase.Add(1) }); last {
				execs.Add(1)
			}
			if got := phase.Load(); got < int64(r+1) {
				return fmt.Errorf("left round %d with phase %d", r, got)
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if execs.Load() != rounds {
		t.Fatalf("body executed %d times, want %d", execs.Load(), rounds)
	}
}

func TestMutexBarrierAbort(t *testing.T) {
	poison := errors.New("poisoned")
	b := NewMutexBarrier(2)
	errs := run(2, func(i int) error {
		if i == 1 {
			time.Sleep(10 * time.Millisecond)
			b.Abort(poison)
			return nil
		}
		if _, err := b.Await(nil); err != nil {
			return err
		}
		return errors.New("released from an aborted barrier")
	})
	if !errors.Is(errs[0], poison) {
		t.Fatalf("waiter got %v, want poison", errs[0])
	}
}

// flatPaths builds n empty paths (flat tree).
func flatPaths(n int) [][]int { return make([][]int, n) }

// groupedPaths builds one tree level grouping members into groups of
// size g (members are consecutive).
func groupedPaths(n, g int) [][]int {
	paths := make([][]int, n)
	for i := range paths {
		paths[i] = []int{i / g}
	}
	return paths
}

func TestTreeShapes(t *testing.T) {
	tr := NewTree(groupedPaths(32, 8))
	if tr.Depth() != 1 || tr.Members() != 32 {
		t.Fatalf("depth=%d members=%d", tr.Depth(), tr.Members())
	}
	if got := tr.top.Size(); got != 4 {
		t.Fatalf("top size %d, want 4 groups", got)
	}
	flat := NewTree(flatPaths(5))
	if flat.Depth() != 0 || flat.top.Size() != 5 {
		t.Fatalf("flat tree: depth=%d top=%d", flat.Depth(), flat.top.Size())
	}
	// Two levels: 16 members, pairs sharing a core, 4 cores per cache.
	paths := make([][]int, 16)
	for i := range paths {
		paths[i] = []int{i / 2, i / 8}
	}
	two := NewTree(paths)
	if two.Depth() != 2 || two.top.Size() != 2 {
		t.Fatalf("two-level tree: depth=%d top=%d", two.Depth(), two.top.Size())
	}
	if got := two.levels[1][0].Size(); got != 4 {
		t.Fatalf("level-1 group size %d, want 4 core representatives", got)
	}
}

func TestAdaptiveTreeCollapse(t *testing.T) {
	// With a single P the hierarchy is pure serialized overhead: the
	// adaptive constructor must collapse to one flat barrier.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	tr := NewAdaptiveTree(groupedPaths(32, 8))
	if tr.Depth() != 0 || tr.Members() != 32 {
		t.Fatalf("GOMAXPROCS=1: depth=%d members=%d, want flat over 32", tr.Depth(), tr.Members())
	}
	// With parallelism available the paths are honored.
	runtime.GOMAXPROCS(4)
	tr = NewAdaptiveTree(groupedPaths(32, 8))
	if tr.Depth() != 1 || tr.top.Size() != 4 {
		t.Fatalf("GOMAXPROCS=4: depth=%d top=%d, want hierarchical", tr.Depth(), tr.top.Size())
	}
}

func TestTreeBarrierCorrectness(t *testing.T) {
	shapes := []struct {
		name  string
		paths [][]int
	}{
		{"flat8", flatPaths(8)},
		{"one-level-32x8", groupedPaths(32, 8)},
		{"uneven", [][]int{{0}, {0}, {0}, {1}, {2}, {2}}},
		{"single", flatPaths(1)},
	}
	// two-level shape
	paths := make([][]int, 24)
	for i := range paths {
		paths[i] = []int{i / 2, i / 8}
	}
	shapes = append(shapes, struct {
		name  string
		paths [][]int
	}{"two-level-24", paths})

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			tr := NewTree(sh.paths)
			n := tr.Members()
			const rounds = 150
			var phase atomic.Int64
			var execs atomic.Int64
			errs := run(n, func(m int) error {
				for r := 0; r < rounds; r++ {
					if last, _ := tr.Await(m, func() { phase.Add(1) }); last {
						execs.Add(1)
					}
					if got := phase.Load(); got < int64(r+1) {
						return fmt.Errorf("member %d left round %d with phase %d", m, r, got)
					}
				}
				return nil
			})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if phase.Load() != rounds || execs.Load() != rounds {
				t.Fatalf("phase=%d execs=%d, want %d", phase.Load(), execs.Load(), rounds)
			}
		})
	}
}

func TestTreeAbortReachesEveryLevel(t *testing.T) {
	poison := errors.New("poisoned")
	// 3 groups of 3; member 8 never arrives. Members 0-2 and 3-5 complete
	// their leaf barriers and one of each climbs to the top; 6,7 block in
	// the leaf. Abort must wake all of them.
	tr := NewTree(groupedPaths(9, 3))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(30 * time.Millisecond)
		tr.Abort(poison)
	}()
	errs := run(8, func(m int) error {
		if _, err := tr.Await(m, nil); err != nil {
			return err
		}
		return errors.New("released from an aborted tree")
	})
	for m, err := range errs {
		if !errors.Is(err, poison) {
			t.Errorf("member %d: %v, want poison", m, err)
		}
	}
	wg.Wait()
	if !errors.Is(tr.AbortErr(), poison) {
		t.Errorf("AbortErr = %v", tr.AbortErr())
	}
}

func TestTreeStressManyGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	paths := make([][]int, 32)
	for i := range paths {
		paths[i] = []int{i / 2, i / 8}
	}
	tr := NewTree(paths)
	var total atomic.Int64
	errs := run(32, func(m int) error {
		for r := 0; r < 2000; r++ {
			tr.Await(m, func() { total.Add(1) })
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if total.Load() != 2000 {
		t.Fatalf("total = %d, want 2000", total.Load())
	}
}

func BenchmarkBarrierSpin(b *testing.B) {
	// n=2 is the node-local barrier of a 2x2 two-level collective.
	for _, n := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bar := NewBarrier(n)
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func() {
					defer wg.Done()
					for j := 0; j < b.N; j++ {
						bar.Await(nil)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func BenchmarkBarrierMutex(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			bar := NewMutexBarrier(n)
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				go func() {
					defer wg.Done()
					for j := 0; j < b.N; j++ {
						bar.Await(nil)
					}
				}()
			}
			wg.Wait()
		})
	}
}
