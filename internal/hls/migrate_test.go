package hls

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hls/internal/mpi"
	"hls/internal/topology"
)

func TestMigrateSameCounts(t *testing.T) {
	// Two tasks with equal directive counts: migration succeeds and the
	// migrant resolves the destination's copies afterwards.
	m := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 2, Machine: m, Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w)
	var v *Var[int]
	var declOnce sync.Once
	if err := w.Run(func(task *mpi.Task) error {
		declOnce.Do(func() { v = Declare[int](r, "b", topology.NUMA, 1) })
		mpi.Barrier(task, nil)
		// Both tasks are on socket 0 (cores 0 and 1): same numa copy.
		before := v.Ptr(task, 0)
		mpi.Barrier(task, nil)
		if task.Rank() == 1 {
			// Move rank 1 to socket 3 (thread 31 hosts no task; directive
			// counts there are zero, matching rank 1's zero).
			if err := r.Migrate(task, 31); err != nil {
				return err
			}
			after := v.Ptr(task, 0)
			if before == after {
				return fmt.Errorf("migrated task still resolves the old numa copy")
			}
			if task.Thread() != 31 {
				return fmt.Errorf("thread = %d after migration", task.Thread())
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Instances() != 2 {
		t.Errorf("instances = %d, want 2 (socket 0 and socket 3)", v.Instances())
	}
}

// TestMigrateInvalidatesEveryVar: a migrant that resolved two variables
// of different scopes before moving resolves the destination instance of
// both afterwards, so Migrate must clear the entry of every variable.
func TestMigrateInvalidatesEveryVar(t *testing.T) {
	m := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 2, Machine: m, Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w)
	tag := WithInit(func(inst int, data []int) { data[0] = inst })
	vars := []*Var[int]{
		Declare[int](r, "numa", topology.NUMA, 1, tag),
		Declare[int](r, "core", topology.Core, 1, tag),
	}
	const dest = 31 // socket 3, a core no task holds
	if err := w.Run(func(task *mpi.Task) error {
		if task.Rank() != 1 {
			return nil
		}
		for _, v := range vars {
			if got, want := v.Slice(task)[0], m.ScopeInstance(task.Thread(), v.Scope()); got != want {
				return fmt.Errorf("%s before migration: instance %d, want %d", v.Name(), got, want)
			}
		}
		if err := r.Migrate(task, dest); err != nil {
			return err
		}
		for _, v := range vars {
			if got, want := v.Slice(task)[0], m.ScopeInstance(dest, v.Scope()); got != want {
				return fmt.Errorf("%s after migration: instance %d, want destination %d", v.Name(), got, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateCountMismatchRefused(t *testing.T) {
	// Rank 1 runs numa-scope directives (its socket differs from rank 0's
	// destination socket... here: rank 1 executes singles on its own
	// socket, then tries to move to a fresh socket whose count is 0).
	m := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 9, Machine: m, Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w)
	var v *Var[int]
	var declOnce sync.Once
	if err := w.Run(func(task *mpi.Task) error {
		declOnce.Do(func() { v = Declare[int](r, "b", topology.NUMA, 1) })
		mpi.Barrier(task, nil)
		if task.Rank() == 8 {
			// Rank 8 is alone on socket 1: a numa single only involves it.
			v.Single(task, func(data []int) { data[0] = 1 })
			// Destination socket 2 (thread 16) has never run a directive:
			// counts differ, the move must be refused.
			if err := r.Migrate(task, 16); err == nil {
				return fmt.Errorf("migration with mismatched counts was allowed")
			}
			// Moving within its own socket (thread 9) changes no numa/node
			// instance; core/cache instance counts are both zero: allowed.
			if err := r.Migrate(task, 9); err != nil {
				return fmt.Errorf("intra-socket migration refused: %v", err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateOutOfRange(t *testing.T) {
	m := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 1, Machine: m, Pin: topology.PinCorePerTask, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w)
	if err := w.Run(func(task *mpi.Task) error {
		if err := r.Migrate(task, 999); err == nil {
			return fmt.Errorf("out-of-range migration accepted")
		}
		if err := r.Migrate(task, task.Thread()); err != nil {
			return fmt.Errorf("no-op migration failed: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAfterMigration(t *testing.T) {
	// After rank 1 moves to another socket, numa barriers must reflect
	// the new membership: rank 0 alone on socket 0, rank 1 alone on the
	// destination socket — each numa barrier completes solo.
	m := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 2, Machine: m, Pin: topology.PinCorePerTask, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w)
	var v *Var[int]
	var declOnce sync.Once
	if err := w.Run(func(task *mpi.Task) error {
		declOnce.Do(func() { v = Declare[int](r, "b", topology.NUMA, 1) })
		mpi.Barrier(task, nil)
		if task.Rank() == 1 {
			if err := r.Migrate(task, 31); err != nil {
				return err
			}
		}
		mpi.Barrier(task, nil)
		// Each task is now alone in its numa instance.
		done := make(chan struct{})
		go func() {
			r.Barrier(task, v)
			close(done)
		}()
		select {
		case <-done:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("rank %d: numa barrier hangs after migration", task.Rank())
		}
	}); err != nil {
		t.Fatal(err)
	}
}
