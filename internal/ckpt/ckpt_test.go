package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/rma"
	"hls/internal/topology"
	"hls/internal/trace"
)

func newTestWorld(t *testing.T, n int) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Config{NumTasks: n, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// worldState bundles the three source kinds the round-trip tests
// exercise: an RMA window segment, an HLS node-scope table, and a
// per-rank application slice.
type worldState struct {
	co    *Coordinator
	iters [][]int64 // per rank: {next iteration}
}

// runStateWorld builds an n-task world with all three sources
// registered in co and runs body(task, win, tab, st).
func runStateWorld(t *testing.T, n int, co *Coordinator,
	body func(task *mpi.Task, win *rma.Window[float64], tab *hls.Var[float64], st *worldState) error) error {
	t.Helper()
	w := newTestWorld(t, n)
	reg := hls.New(w)
	tab := hls.Declare[float64](reg, "cktab", topology.Node, 32)
	st := &worldState{
		co:    co,
		iters: make([][]int64, n),
	}
	for r := range st.iters {
		st.iters[r] = []int64{0}
	}
	var regOnce sync.Once
	return w.Run(func(task *mpi.Task) error {
		win := rma.WinAllocate[float64](task, nil, 16, rma.WithName("ckwin"))
		regOnce.Do(func() {
			st.co.Register(
				Window(win),
				HLSVar(tab),
				Slice("iter", func(t *mpi.Task) []int64 { return st.iters[t.Rank()] }),
			)
		})
		return body(task, win, tab, st)
	})
}

// TestCheckpointRestoreRoundTrip: state checkpointed at one point is
// exactly re-established by a later world's Restore, discarding
// post-checkpoint mutations.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	rec := trace.NewRecorder()
	saver, restorer := New(Config{Dir: dir, Trace: rec}), New(Config{Dir: dir, Trace: rec})

	err := runStateWorld(t, n, saver, func(task *mpi.Task, win *rma.Window[float64], tab *hls.Var[float64], st *worldState) error {
		me := task.Rank()
		seg := win.Local(task)
		for i := range seg {
			seg[i] = float64(me*100 + i)
		}
		tab.Single(task, func(data []float64) {
			for i := range data {
				data[i] = float64(i) * 1.5
			}
		})
		st.iters[me][0] = 7
		gen, err := st.co.Checkpoint(task)
		if err != nil {
			return err
		}
		if gen != 1 {
			return fmt.Errorf("first generation = %d, want 1", gen)
		}
		// Post-checkpoint damage: Restore must undo all of it.
		for i := range seg {
			seg[i] = -1
		}
		st.iters[me][0] = 99
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	err = runStateWorld(t, n, restorer, func(task *mpi.Task, win *rma.Window[float64], tab *hls.Var[float64], st *worldState) error {
		me := task.Rank()
		info, err := st.co.Restore(task)
		if err != nil {
			return err
		}
		if info.Gen != 1 || info.Skipped != 0 {
			return fmt.Errorf("restore info = %+v, want gen 1, 0 skipped", info)
		}
		if info.Bytes <= 0 || info.Duration <= 0 {
			return fmt.Errorf("restore info not reported: %+v", info)
		}
		seg := win.Local(task)
		for i := range seg {
			if seg[i] != float64(me*100+i) {
				return fmt.Errorf("rank %d: win[%d] = %v, want %v", me, i, seg[i], float64(me*100+i))
			}
		}
		var tabErr error
		tab.Single(task, func(data []float64) {
			for i := range data {
				if data[i] != float64(i)*1.5 {
					tabErr = fmt.Errorf("tab[%d] = %v, want %v", i, data[i], float64(i)*1.5)
					return
				}
			}
		})
		if tabErr != nil {
			return tabErr
		}
		if st.iters[me][0] != 7 {
			return fmt.Errorf("rank %d: iter = %d, want the checkpointed 7", me, st.iters[me][0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s, r := saver.Stats(), restorer.Stats()
	if s.Checkpoints != n || s.CheckpointErrors != 0 || s.LastGeneration != 1 || s.BytesSaved <= 0 || s.CheckpointNs <= 0 {
		t.Errorf("checkpointing coordinator's Stats = %+v, want %d ok checkpoints of generation 1", s, n)
	}
	if r.Restores != n || r.RestoreErrors != 0 || r.RestoredGeneration != 1 || r.BytesRestored != s.BytesSaved || r.RestoreNs <= 0 {
		t.Errorf("restoring coordinator's Stats = %+v, want %d ok restores of generation 1", r, n)
	}
	// One "ckpt" slice per rank for each operation.
	slices := map[string]map[int]int{}
	for _, e := range rec.Events() {
		if e.Cat != "ckpt" || e.Ph != "X" {
			t.Errorf("unexpected ckpt event %+v", e)
			continue
		}
		if slices[e.Name] == nil {
			slices[e.Name] = map[int]int{}
		}
		slices[e.Name][e.Tid]++
	}
	for _, name := range []string{"checkpoint/gen-1", "restore/gen-1"} {
		if len(slices[name]) != n {
			t.Errorf("%s slices on %d ranks, want %d", name, len(slices[name]), n)
		}
		for rank, c := range slices[name] {
			if c != 1 {
				t.Errorf("%s: %d slices on rank %d, want 1", name, c, rank)
			}
		}
	}
	if len(slices) != 2 {
		t.Errorf("ckpt slices %v, want only checkpoint/gen-1 and restore/gen-1", slices)
	}
}

// TestRestoreNoCheckpoint: an empty directory returns ErrNoCheckpoint
// on every rank (so callers can collectively fall through to a fresh
// start).
func TestRestoreNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	err := runStateWorld(t, 2, New(Config{Dir: dir}), func(task *mpi.Task, _ *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		_, err := st.co.Restore(task)
		if !errors.Is(err, ErrNoCheckpoint) {
			return fmt.Errorf("rank %d: err = %v, want ErrNoCheckpoint", task.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSkipsTornGeneration: a corrupt newest generation is
// detected, reported, and skipped in favor of the previous valid one —
// never silently loaded.
func TestRestoreSkipsTornGeneration(t *testing.T) {
	const n = 2
	dir := t.TempDir()

	err := runStateWorld(t, n, New(Config{Dir: dir}), func(task *mpi.Task, win *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		win.Local(task)[0] = 1.0
		if _, err := st.co.Checkpoint(task); err != nil {
			return err
		}
		win.Local(task)[0] = 2.0
		if _, err := st.co.Checkpoint(task); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt generation 2's rank-0 payload: one flipped byte past the
	// header, exactly like a write torn by a crash.
	path := filepath.Join(dir, fmtGen(2), rankFileName(0))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	co := New(Config{Dir: dir})
	err = runStateWorld(t, n, co, func(task *mpi.Task, win *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		info, err := st.co.Restore(task)
		if err != nil {
			return err
		}
		if info.Gen != 1 || info.Skipped != 1 {
			return fmt.Errorf("restore info = %+v, want gen 1 with 1 skipped", info)
		}
		if got := win.Local(task)[0]; got != 1.0 {
			return fmt.Errorf("win[0] = %v, want generation 1's 1.0", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := co.Stats(); s.GenerationsSkipped < 1 || s.RestoredGeneration != 1 {
		t.Fatalf("corrupt generation skipped silently: Stats = %+v", s)
	}
}

// TestRestoreIgnoresStaging: an uncommitted staging directory (crash
// before the rename) is never restored.
func TestRestoreIgnoresStaging(t *testing.T) {
	dir := t.TempDir()
	err := runStateWorld(t, 2, New(Config{Dir: dir}), func(task *mpi.Task, win *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		win.Local(task)[0] = 5.0
		_, err := st.co.Checkpoint(task)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fake in-flight generation 2 that never committed.
	if err := os.MkdirAll(filepath.Join(dir, fmtStaging(2)), 0o755); err != nil {
		t.Fatal(err)
	}

	err = runStateWorld(t, 2, New(Config{Dir: dir}), func(task *mpi.Task, win *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		info, err := st.co.Restore(task)
		if err != nil {
			return err
		}
		if info.Gen != 1 {
			return fmt.Errorf("restored generation %d, want committed 1", info.Gen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointPruneAndSequence: generations advance across worlds
// (the counter resumes from disk) and pruning retains only Keep
// committed generations.
func TestCheckpointPruneAndSequence(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 2; round++ {
		w := newTestWorld(t, 2)
		co := New(Config{Dir: dir, Keep: 2})
		state := []int64{0}
		co.Register(Slice("s", func(t *mpi.Task) []int64 { return state }))
		if err := w.Run(func(task *mpi.Task) error {
			for i := 0; i < 2; i++ {
				if _, err := co.Checkpoint(task); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("kept %d generations, want 2: %+v", len(gens), gens)
	}
	if gens[0].Gen != 4 || gens[1].Gen != 3 {
		t.Fatalf("kept generations %d,%d; want 4,3 (sequence resumed across worlds)", gens[0].Gen, gens[1].Gen)
	}
	for _, gi := range gens {
		if !gi.Valid {
			t.Fatalf("generation %d invalid: %s", gi.Gen, gi.Reason)
		}
	}
}

// TestInspectReportsCorruption: Inspect flags a torn generation with
// its reason and per-rank checksum state.
func TestInspectReportsCorruption(t *testing.T) {
	dir := t.TempDir()
	err := runStateWorld(t, 2, New(Config{Dir: dir}), func(task *mpi.Task, _ *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		_, err := st.co.Checkpoint(task)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, fmtGen(1), rankFileName(1)), 4); err != nil {
		t.Fatal(err)
	}
	gens, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Valid {
		t.Fatalf("want one invalid generation, got %+v", gens)
	}
	var r0ok, r1ok bool
	for _, ri := range gens[0].Ranks {
		switch ri.Rank {
		case 0:
			r0ok = ri.CRCOK
		case 1:
			r1ok = ri.CRCOK
		}
	}
	if !r0ok || r1ok {
		t.Fatalf("per-rank CRC state wrong: rank0 ok=%v rank1 ok=%v (corrupted rank 1)", r0ok, r1ok)
	}
}

// TestRestoreWrongWorldSize: a checkpoint of a different world size is
// skipped, not loaded into the wrong ranks.
func TestRestoreWrongWorldSize(t *testing.T) {
	dir := t.TempDir()
	err := runStateWorld(t, 2, New(Config{Dir: dir}), func(task *mpi.Task, _ *rma.Window[float64], _ *hls.Var[float64], st *worldState) error {
		_, err := st.co.Checkpoint(task)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	w := newTestWorld(t, 3)
	co := New(Config{Dir: dir})
	state := []int64{0}
	co.Register(Slice("s", func(t *mpi.Task) []int64 { return state }))
	if err := w.Run(func(task *mpi.Task) error {
		_, err := co.Restore(task)
		if !errors.Is(err, ErrNoCheckpoint) {
			return fmt.Errorf("restore of 2-rank checkpoint into 3-rank world: err = %v, want ErrNoCheckpoint", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
