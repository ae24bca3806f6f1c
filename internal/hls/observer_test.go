package hls

import (
	"sync/atomic"
	"testing"
	"time"

	"hls/internal/chaos"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// syncOnlyObserver counts directive edges.
type syncOnlyObserver struct{ arrives, departs atomic.Int64 }

func (o *syncOnlyObserver) Arrive(key string, rank int) { o.arrives.Add(1) }
func (o *syncOnlyObserver) Depart(key string, rank int) { o.departs.Add(1) }

// TestWithObserverMembers: every non-nil WithObserver argument, across
// repeated options, sees every Arrive and Depart; and an allocation gate
// given only as an observer gates nothing.
func TestWithObserverMembers(t *testing.T) {
	const n = 8
	a, b := &syncOnlyObserver{}, &syncOnlyObserver{}
	inj := chaos.New(1, chaos.Fault{Kind: chaos.AllocFail, Var: "members", Prob: 1})
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w, WithObserver(a, nil), WithObserver(nil, inj, b))
	if len(r.observers) != 3 {
		t.Fatalf("%d observers installed, want 3 (nil arguments dropped)", len(r.observers))
	}
	v := Declare[int64](r, "members", topology.Node, 4)
	if err := w.Run(func(task *mpi.Task) error {
		r.Barrier(task, v)
		v.Single(task, func(d []int64) { d[0]++ })
		v.SingleNowait(task, func(d []int64) {})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Barrier and single: n arrive + n depart each; nowait: 1 arrive
	// (the executor) + n departs.
	for i, o := range []*syncOnlyObserver{a, b} {
		if got, want := o.arrives.Load(), int64(2*n+1); got != want {
			t.Errorf("member %d: %d arrivals, want %d", i, got, want)
		}
		if got, want := o.departs.Load(), int64(3*n); got != want {
			t.Errorf("member %d: %d departures, want %d", i, got, want)
		}
	}
	if got := inj.Count(chaos.AllocFail); got != 0 {
		t.Errorf("an observer-only injector failed %d allocations, want 0", got)
	}
	if st := r.Stats(); st.Demotions != 0 || st.InstanceAllocs != 1 {
		t.Errorf("Stats = %+v, want 1 shared instance and no demotion", st)
	}
}

// TestObserverExtensions drives singles, nowaits and a lazy allocation
// through an observed registry: its Stats count exactly one executor per
// single execution and the allocation's accounting, and the observer
// still sees the directive edges.
func TestObserverExtensions(t *testing.T) {
	const iters = 5
	plain := &syncOnlyObserver{}
	machine := topology.NehalemEX4()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: 32, Machine: machine,
		Pin: topology.PinCorePerTask, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w, WithObserver(plain))
	const tableBytes = 1 << 16
	v := Declare[int64](r, "obs_table", topology.Node, 8,
		WithAccountBytes[int64](tableBytes))
	if err := w.Run(func(task *mpi.Task) error {
		for i := 0; i < iters; i++ {
			v.Single(task, func(d []int64) { d[0]++ })
			v.SingleNowait(task, func(d []int64) {})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if plain.arrives.Load() == 0 || plain.departs.Load() == 0 {
		t.Fatal("observer starved")
	}
	// One executor per single execution, 32 participants each: iters
	// singles and iters nowaits, each with 31 waiters or skippers (one
	// node instance on this machine).
	st := r.Stats()
	if st.SinglesExecuted != 2*iters || st.SinglesSkipped != 2*iters*31 {
		t.Fatalf("outcomes: %d executed %d skipped, want %d/%d",
			st.SinglesExecuted, st.SinglesSkipped, 2*iters, 2*iters*31)
	}
	if st.InstanceAllocs != 1 {
		t.Fatalf("allocations: %d, want 1 (one node instance, allocated lazily once)", st.InstanceAllocs)
	}
	if st.SharedBytes != tableBytes || st.DuplicateBytesAvoided != tableBytes*31 {
		t.Fatalf("alloc accounting: shared %d saved %d, want %d/%d",
			st.SharedBytes, st.DuplicateBytesAvoided, int64(tableBytes), int64(tableBytes*31))
	}
	if st.Demotions != 0 || st.DemotedExtraBytes != 0 || st.DemotionRecovery != 0 {
		t.Fatalf("healthy run reports demotions: %+v", st)
	}
}

// TestDirectivesZeroAllocs: once warm, a Barrier, a Single and a
// SingleNowait allocate nothing, with no observer and with one. World
// setup allocates, but amortized over the benchmark's N it must round to
// zero allocs/op.
func TestDirectivesZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-driven test")
	}
	for _, obs := range []SyncObserver{nil, &syncOnlyObserver{}} {
		res := testing.Benchmark(func(b *testing.B) {
			const n = 2
			w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			r := New(w, WithObserver(obs))
			v := Declare[int64](r, "zero_allocs", topology.Node, 4)
			body := func(d []int64) { d[0]++ }
			if err := w.Run(func(task *mpi.Task) error {
				for i := 0; i < b.N; i++ {
					r.Barrier(task, v)
					v.Single(task, body)
					v.SingleNowait(task, body)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		})
		if a := res.AllocsPerOp(); a != 0 {
			t.Errorf("Barrier+Single+SingleNowait (observer %v): %d allocs/op, want 0 (N=%d)", obs != nil, a, res.N)
		}
	}
}
