package hls

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hls/internal/mpi"
	"hls/internal/topology"
)

func faultMachine(t *testing.T, cores int) *topology.Machine {
	t.Helper()
	m, err := topology.New(topology.Spec{
		Name: "fault-test", Nodes: 1, SocketsPerNode: 1,
		CoresPerSocket: cores, ThreadsPerCore: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFaultBarrierAbortsWhenParticipantDies(t *testing.T) {
	const n = 4
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(w)
	runErr := w.Run(func(tk *mpi.Task) error {
		if tk.Rank() == 2 {
			panic(fmt.Errorf("injected kill"))
		}
		reg.BarrierScope(tk, topology.Node) // rank 2 never arrives
		return nil
	})
	if runErr == nil {
		t.Fatal("Run returned nil for a barrier with a dead participant")
	}
	var te *mpi.TimeoutError
	if errors.As(runErr, &te) {
		t.Fatalf("barrier hung until timeout instead of aborting: %v", runErr)
	}
	for r, re := range w.RankErrors() {
		if r == 2 {
			continue
		}
		var dre *mpi.DeadRankError
		if !errors.As(re, &dre) || dre.Dead != 2 {
			t.Errorf("rank %d error = %v, want *mpi.DeadRankError{Dead: 2}", r, re)
		}
	}
}

func TestFaultBarrierBuiltAfterDeathIsBornAborted(t *testing.T) {
	const n = 4
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(w)
	var ready sync.WaitGroup
	ready.Add(1)
	runErr := w.Run(func(tk *mpi.Task) error {
		if tk.Rank() == 0 {
			ready.Wait() // wait until rank 1 is certainly dead
			reg.BarrierScope(tk, topology.Node)
			return nil
		}
		if tk.Rank() == 1 {
			defer ready.Done()
			panic(fmt.Errorf("injected kill"))
		}
		ready.Wait()
		reg.BarrierScope(tk, topology.Node)
		return nil
	})
	if runErr == nil {
		t.Fatal("Run returned nil")
	}
	var te *mpi.TimeoutError
	if errors.As(runErr, &te) {
		t.Fatalf("lazily-built barrier hung: %v", runErr)
	}
	for _, r := range []int{0, 2, 3} {
		var dre *mpi.DeadRankError
		if !errors.As(w.RankErrors()[r], &dre) || dre.Dead != 1 {
			t.Errorf("rank %d error = %v, want *mpi.DeadRankError{Dead: 1}", r, w.RankErrors()[r])
		}
	}
}

func TestFaultSequenceMismatchDetected(t *testing.T) {
	const n = 2
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(w)
	v := Declare[int](reg, "x", topology.Node, 1)
	runErr := w.Run(func(tk *mpi.Task) error {
		if tk.Rank() == 0 {
			reg.Barrier(tk, v) // rank 0: barrier
		} else {
			time.Sleep(10 * time.Millisecond) // let rank 0 log its entry first
			v.Single(tk, func([]int) {})      // rank 1: single — diverged
		}
		return nil
	})
	if runErr == nil {
		t.Fatal("mismatched directive sequence went undetected")
	}
	found := false
	for _, re := range w.RankErrors() {
		var sme *SequenceMismatchError
		if errors.As(re, &sme) {
			found = true
			if sme.Index != 0 {
				t.Errorf("mismatch at index %d, want 0", sme.Index)
			}
		}
	}
	if !found {
		t.Fatalf("no *SequenceMismatchError among rank errors: %v", runErr)
	}
}

func TestFaultSequenceMatchedProgramUnaffected(t *testing.T) {
	const n = 4
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(w)
	v := Declare[int64](reg, "acc", topology.Node, 1)
	if err := w.Run(func(tk *mpi.Task) error {
		// A healthy mixed sequence, long enough to exercise the
		// sliding-window eviction (seqWindow directives and beyond).
		for i := 0; i < seqWindow*3; i++ {
			switch i % 3 {
			case 0:
				reg.Barrier(tk, v)
			case 1:
				v.Single(tk, func(data []int64) { data[0]++ })
			case 2:
				v.SingleNowait(tk, func(data []int64) { data[0]++ })
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("healthy program failed: %v", err)
	}
}

type alwaysFailGate struct{ calls int }

func (g *alwaysFailGate) AllocAttempt(varName, scope string, inst, attempt int) error {
	g.calls++
	return fmt.Errorf("no memory for %s (attempt %d)", varName, attempt)
}

func TestFaultAllocFailureDemotesAndSingleRunsEverywhere(t *testing.T) {
	const n = 4
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gate := &alwaysFailGate{}
	reg := New(w, WithAllocGate(gate), WithAllocRetry(2, time.Microsecond))
	v := Declare[int64](reg, "tbl", topology.Node, 4,
		WithInit(func(inst int, data []int64) {
			for i := range data {
				data[i] = int64(i + 1)
			}
		}))
	got := make([][]int64, n)
	if err := w.Run(func(tk *mpi.Task) error {
		v.Single(tk, func(data []int64) {
			for i := range data {
				data[i] *= 10
			}
		})
		got[tk.Rank()] = append([]int64(nil), v.Slice(tk)...)
		return nil
	}); err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if gate.calls == 0 {
		t.Fatal("alloc gate was never consulted")
	}
	dem, extra := v.Demotions()
	if dem != 1 {
		t.Fatalf("Demotions = %d, want 1", dem)
	}
	if wantExtra := int64(4*8) * int64(n-1); extra != wantExtra {
		t.Errorf("extra bytes = %d, want %d", extra, wantExtra)
	}
	st := reg.Stats()
	if st.Demotions != 1 || st.DemotedExtraBytes != extra || st.InstanceAllocs != 0 {
		t.Errorf("Stats = %+v, want 1 demotion costing %d bytes and no shared instance", st, extra)
	}
	// Three attempts with two backoff sleeps in between: the recovery
	// time cannot be zero.
	if st.DemotionRecovery <= 0 {
		t.Errorf("DemotionRecovery = %v, want > 0", st.DemotionRecovery)
	}
	// Every task must see the single's writes on its private copy —
	// identical to what the shared copy would hold.
	want := []int64{10, 20, 30, 40}
	for r := range got {
		for i := range want {
			if got[r][i] != want[i] {
				t.Errorf("rank %d slice = %v, want %v", r, got[r], want)
				break
			}
		}
	}
}

func TestFaultAllocRetrySucceedsWithoutDemotion(t *testing.T) {
	const n = 2
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first two attempts, succeed on the third: the retry loop
	// must recover with the shared copy intact.
	fails := 2
	gate := gateFunc(func(varName, scope string, inst, attempt int) error {
		if attempt <= fails {
			return fmt.Errorf("transient failure %d", attempt)
		}
		return nil
	})
	reg := New(w, WithAllocGate(gate), WithAllocRetry(3, time.Microsecond))
	v := Declare[int](reg, "tbl", topology.Node, 2)
	if err := w.Run(func(tk *mpi.Task) error {
		_ = v.Slice(tk)
		return nil
	}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if dem, _ := v.Demotions(); dem != 0 {
		t.Errorf("Demotions = %d after recoverable failures, want 0", dem)
	}
	if v.Instances() != 1 {
		t.Errorf("Instances = %d, want 1 shared instance", v.Instances())
	}
}

type gateFunc func(varName, scope string, inst, attempt int) error

func (f gateFunc) AllocAttempt(varName, scope string, inst, attempt int) error {
	return f(varName, scope, inst, attempt)
}

func TestFaultMigrateWhenQuiescent(t *testing.T) {
	const n = 2
	m, err := topology.New(topology.Spec{
		Name: "mig", Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 4, ThreadsPerCore: 1,
		Caches: []topology.CacheConfig{
			{Level: 1, SizeBytes: 1024, LineBytes: 64, Assoc: 2, SharedCores: 2, LatencyCycles: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: m, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(w)
	v := Declare[int](reg, "x", topology.Cache(1), 1)
	if err := w.Run(func(tk *mpi.Task) error {
		// Both tasks start on cache instance 0 (threads 0,1). Rank 1 runs
		// one directive on its own llc scope... keep it simple: rank 0
		// bumps instance-0 counters while rank 1 stays quiet, then rank 1
		// migrates into instance 1 (fresh, count 0) — allowed; then tries
		// instance 0 — blocked until counts match.
		if tk.Rank() == 0 {
			_ = v // no directives: all counters stay 0
			return nil
		}
		// Migrating to thread 2 (instance 1): both task and destination
		// have count 0, allowed immediately.
		if err := reg.Migrate(tk, 2); err != nil {
			return fmt.Errorf("migrate to empty instance: %w", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Blocked case, driven synchronously on a fresh registry: a task
	// whose directive count lags the destination instance gets the typed
	// error, and MigrateWhenQuiescent retries until it converges.
	w2, err := mpi.NewWorld(mpi.Config{NumTasks: 2, Machine: m, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg2 := New(w2)
	v2 := Declare[int](reg2, "y", topology.Cache(1), 1)
	var migErr error
	var blockedSeen bool
	if err := w2.Run(func(tk *mpi.Task) error {
		// Ranks 0,1 share cache instance 0. Both run one single, so
		// instance 0's count is 1. A fresh destination instance has
		// count 0 -> rank 1 moving to thread 2 is blocked.
		v2.Single(tk, func([]int) {})
		if tk.Rank() == 1 {
			err := reg2.Migrate(tk, 2)
			var blocked *MigrationBlockedError
			blockedSeen = errors.As(err, &blocked)
			// Retrying cannot converge here (nobody advances instance
			// 1), so the helper must give up and return the typed error.
			migErr = reg2.MigrateWhenQuiescent(tk, 2, 3, time.Microsecond)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !blockedSeen {
		t.Error("Migrate into a lagging instance did not return *MigrationBlockedError")
	}
	var blocked *MigrationBlockedError
	if !errors.As(migErr, &blocked) {
		t.Errorf("MigrateWhenQuiescent = %v, want *MigrationBlockedError after exhausted retries", migErr)
	}
}

func TestFaultDirectiveReportNamesCounters(t *testing.T) {
	const n = 2
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Machine: faultMachine(t, n), Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(w)
	v := Declare[int](reg, "x", topology.Node, 1)
	if err := w.Run(func(tk *mpi.Task) error {
		reg.Barrier(tk, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep := reg.directiveReport()
	if rep == "" {
		t.Fatal("directiveReport is empty after a directive ran")
	}
	for _, want := range []string{"rank0", "rank1"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report %q missing %q", rep, want)
		}
	}
}
