package ckpt

// stress_test.go — kill-during-checkpoint and kill-during-restore,
// named Chaos* so CI's chaos job runs them under -race. The kills use
// the chaos package's Killed payload (classified by mpi.Run into a
// typed RankFailure), fired from inside a Source, which is the exact
// instant the protocol is most exposed: some ranks have written
// payloads, others haven't, rank 0 may be about to commit.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hls/internal/chaos"
	"hls/internal/mpi"
)

// killerSource wraps a Slice-like source and kills the given rank the
// nth time Save (or Load, per mode) runs on it.
type killerSource struct {
	mu     sync.Mutex
	rank   int
	n      int
	onLoad bool
	seen   int
	state  [][]int64
}

func (k *killerSource) CkptName() string { return "slice:payload" }

func (k *killerSource) maybeKill(t *mpi.Task, phase string) {
	if t.Rank() != k.rank {
		return
	}
	k.mu.Lock()
	k.seen++
	fire := k.seen == k.n
	k.mu.Unlock()
	if fire {
		panic(&chaos.Killed{Rank: t.Rank(), Directive: "ckpt:" + phase})
	}
}

func (k *killerSource) Save(t *mpi.Task) ([]byte, error) {
	if !k.onLoad {
		k.maybeKill(t, "save")
	}
	b := make([]byte, 8)
	v := uint64(k.state[t.Rank()][0])
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b, nil
}

func (k *killerSource) Load(t *mpi.Task, data []byte) error {
	if k.onLoad {
		k.maybeKill(t, "load")
	}
	var v uint64
	for i := 0; i < 8 && i < len(data); i++ {
		v |= uint64(data[i]) << (8 * i)
	}
	k.state[t.Rank()][0] = int64(v)
	return nil
}

// TestChaosKillDuringCheckpoint: a rank dying mid-Checkpoint aborts
// the in-flight generation without committing it, surviving ranks see
// typed errors (not hangs), and the previously committed generation
// stays restorable.
func TestChaosKillDuringCheckpoint(t *testing.T) {
	const n = 4
	dir := t.TempDir()

	ks := &killerSource{rank: 2, n: 2, state: make([][]int64, n)}
	for r := range ks.state {
		ks.state[r] = []int64{int64(10 + r)}
	}

	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co := New(Config{Dir: dir})
	co.Register(ks)
	runErr := w.Run(func(task *mpi.Task) error {
		// Checkpoint 1 commits cleanly; checkpoint 2 kills rank 2 inside
		// its Save.
		if _, err := co.Checkpoint(task); err != nil {
			return err
		}
		ks.state[task.Rank()][0] += 100
		gen, err := co.Checkpoint(task)
		if err == nil {
			return fmt.Errorf("rank %d: checkpoint %d committed despite a dying rank", task.Rank(), gen)
		}
		var dead *mpi.DeadRankError
		if !errors.As(err, &dead) {
			return fmt.Errorf("rank %d: checkpoint error %v, want DeadRankError", task.Rank(), err)
		}
		return err
	})
	if runErr == nil {
		t.Fatal("world survived a chaos kill")
	}
	// Every rank committed generation 1; the survivors count the aborted
	// generation 2 as an error, and the killed rank counts nothing.
	if s := co.Stats(); s.Checkpoints != n || s.CheckpointErrors != n-1 || s.LastGeneration != 1 {
		t.Errorf("Stats = %+v, want %d ok checkpoints, %d errors, last generation 1", s, n, n-1)
	}

	// Generation 1 is intact; generation 2 never committed.
	gens, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sawValid1 bool
	for _, gi := range gens {
		if gi.Gen == 2 && gi.Valid {
			t.Fatalf("generation 2 committed despite the kill: %+v", gi)
		}
		if gi.Gen == 1 && gi.Valid && !gi.Staging {
			sawValid1 = true
		}
	}
	if !sawValid1 {
		t.Fatalf("generation 1 lost after kill-during-checkpoint: %+v", gens)
	}

	// A fresh world restores generation 1's state.
	w2, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ks2 := &killerSource{rank: -1, state: make([][]int64, n)}
	for r := range ks2.state {
		ks2.state[r] = []int64{0}
	}
	co2 := New(Config{Dir: dir})
	co2.Register(ks2)
	if err := w2.Run(func(task *mpi.Task) error {
		info, err := co2.Restore(task)
		if err != nil {
			return err
		}
		if info.Gen != 1 {
			return fmt.Errorf("restored generation %d, want 1", info.Gen)
		}
		if got := ks2.state[task.Rank()][0]; got != int64(10+task.Rank()) {
			return fmt.Errorf("rank %d: restored %d, want %d", task.Rank(), got, 10+task.Rank())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestChaosKillDuringRestore: a rank dying mid-Restore surfaces typed
// errors on the survivors, and the checkpoint on disk stays valid for
// the next attempt.
func TestChaosKillDuringRestore(t *testing.T) {
	const n = 4
	dir := t.TempDir()

	// Seed one committed generation.
	seed := &killerSource{rank: -1, state: make([][]int64, n)}
	for r := range seed.state {
		seed.state[r] = []int64{int64(40 + r)}
	}
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co := New(Config{Dir: dir})
	co.Register(seed)
	if err := w.Run(func(task *mpi.Task) error {
		_, err := co.Checkpoint(task)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Restore attempt where rank 1 dies inside its Load.
	ks := &killerSource{rank: 1, n: 1, onLoad: true, state: make([][]int64, n)}
	for r := range ks.state {
		ks.state[r] = []int64{0}
	}
	w2, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co2 := New(Config{Dir: dir})
	co2.Register(ks)
	runErr := w2.Run(func(task *mpi.Task) error {
		_, err := co2.Restore(task)
		if err == nil {
			return fmt.Errorf("rank %d: restore succeeded despite a dying rank", task.Rank())
		}
		return err
	})
	if runErr == nil {
		t.Fatal("world survived a chaos kill during restore")
	}

	// The generation is still valid; a clean world restores it.
	ks3 := &killerSource{rank: -1, state: make([][]int64, n)}
	for r := range ks3.state {
		ks3.state[r] = []int64{0}
	}
	w3, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	co3 := New(Config{Dir: dir})
	co3.Register(ks3)
	if err := w3.Run(func(task *mpi.Task) error {
		info, err := co3.Restore(task)
		if err != nil {
			return err
		}
		if got := ks3.state[task.Rank()][0]; got != int64(40+task.Rank()) {
			return fmt.Errorf("rank %d: restored %d, want %d (gen %d)", task.Rank(), got, 40+task.Rank(), info.Gen)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
