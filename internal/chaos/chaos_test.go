package chaos_test

import (
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"hls/internal/chaos"
	"hls/internal/hls"
	"hls/internal/mpi"
	"hls/internal/topology"
)

// envSeed lets the CI chaos matrix vary the schedules: HLS_CHAOS_SEED,
// when set, offsets every test's base seed. Faults with exact firing
// rules (Nth) are seed-independent, so assertions stay stable.
func envSeed(base int64) int64 {
	if s := os.Getenv("HLS_CHAOS_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return base + n*1000003
		}
	}
	return base
}

func machine(t *testing.T, nodes, cores int) *topology.Machine {
	t.Helper()
	m, err := topology.New(topology.Spec{
		Name: "chaos-test", Nodes: nodes, SocketsPerNode: 1,
		CoresPerSocket: cores, ThreadsPerCore: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChaosDeterministicFiring(t *testing.T) {
	run := func(seed int64) []chaos.Event {
		inj := chaos.New(seed, chaos.Fault{Kind: chaos.MsgDrop, Rank: -1, Prob: 0.3})
		for i := 0; i < 200; i++ {
			inj.FaultP2P(0, 1, 64, false)
		}
		return inj.Events()
	}
	base := envSeed(42)
	a, b := run(base), run(base)
	if len(a) == 0 {
		t.Fatal("no faults fired at Prob=0.3 over 200 opportunities")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Detail != b[i].Detail {
			t.Fatalf("event %d differs: %q vs %q", i, a[i].Detail, b[i].Detail)
		}
	}
	c := run(base + 1)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i].Detail != c[i].Detail {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical firing patterns")
		}
	}
}

func TestChaosNthAndTimes(t *testing.T) {
	inj := chaos.New(1,
		chaos.Fault{Kind: chaos.MsgDup, Rank: -1, Nth: 5, Times: 1},
	)
	dups := 0
	for i := 1; i <= 10; i++ {
		act := inj.FaultP2P(0, 1, 8, false)
		if act.Duplicate {
			dups++
			if i != 5 {
				t.Errorf("Nth=5 fired at opportunity %d", i)
			}
		}
	}
	if dups != 1 {
		t.Errorf("Nth=5 Times=1 fired %d times, want 1", dups)
	}
	if got := inj.Count(chaos.MsgDup); got != 1 {
		t.Errorf("Count(MsgDup) = %d, want 1", got)
	}
}

func TestChaosRankKillAtDirectiveTerminatesWorld(t *testing.T) {
	const n, victim = 8, 3
	inj := chaos.New(envSeed(7), chaos.Fault{Kind: chaos.RankKill, Rank: victim, Nth: 4, Times: 1})
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: n,
		Machine:  machine(t, 1, n),
		Hooks:    inj,
		Timeout:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := hls.New(w, hls.WithObserver(inj))
	v := hls.Declare[int64](reg, "counter", topology.Node, 1)
	runErr := w.Run(func(tk *mpi.Task) error {
		for i := 0; i < 20; i++ {
			v.Single(tk, func(data []int64) { data[0]++ })
		}
		return nil
	})
	if runErr == nil {
		t.Fatal("Run returned nil after an injected rank kill")
	}
	var te *mpi.TimeoutError
	if errors.As(runErr, &te) {
		t.Fatalf("run hit the timeout backstop instead of failing fast: %v", runErr)
	}
	if got := inj.Count(chaos.RankKill); got != 1 {
		t.Fatalf("RankKill fired %d times, want 1", got)
	}
	for r, re := range w.RankErrors() {
		if r == victim {
			var rf *mpi.RankFailure
			if !errors.As(re, &rf) {
				t.Errorf("victim error = %v, want *mpi.RankFailure", re)
				continue
			}
			var k *chaos.Killed
			if !errors.As(rf.Cause, &k) || k.Rank != victim {
				t.Errorf("victim cause = %v, want *chaos.Killed", rf.Cause)
			}
			continue
		}
		if re == nil {
			t.Errorf("rank %d finished cleanly despite the kill", r)
			continue
		}
		var dre *mpi.DeadRankError
		var ce *mpi.CancelledError
		if !errors.As(re, &dre) && !errors.As(re, &ce) {
			t.Errorf("rank %d error = %T %v, want typed failure", r, re, re)
		}
	}
}

func TestChaosRankStallDelaysButCompletes(t *testing.T) {
	const n = 4
	inj := chaos.New(11, chaos.Fault{Kind: chaos.RankStall, Rank: 2, Nth: 2, Times: 1, Delay: 20 * time.Millisecond})
	w, err := mpi.NewWorld(mpi.Config{
		NumTasks: n, Machine: machine(t, 1, n), Hooks: inj, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := hls.New(w, hls.WithObserver(inj))
	v := hls.Declare[int64](reg, "acc", topology.Node, 1)
	start := time.Now()
	if err := w.Run(func(tk *mpi.Task) error {
		for i := 0; i < 5; i++ {
			v.Single(tk, func(data []int64) { data[0]++ })
		}
		return nil
	}); err != nil {
		t.Fatalf("stalled-but-healthy run failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("run finished in %v, stall did not apply", elapsed)
	}
	if got := inj.Count(chaos.RankStall); got != 1 {
		t.Errorf("RankStall fired %d times, want 1", got)
	}
}

// TestChaosAllocFailDemotesWithIdenticalResults is the degradation
// acceptance check: a variable whose shared allocation always fails is
// demoted to private per-task copies, and the program's results are
// bitwise identical to the clean run (§III equivalence).
func TestChaosAllocFailDemotesWithIdenticalResults(t *testing.T) {
	const n = 8
	run := func(inj *chaos.Injector) ([][]float64, *hls.Registry, error) {
		var hooks mpi.Hooks
		if inj != nil {
			hooks = inj
		}
		w, err := mpi.NewWorld(mpi.Config{
			NumTasks: n, Machine: machine(t, 1, n), Hooks: hooks, Timeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		var opts []hls.Option
		if inj != nil {
			opts = append(opts, hls.WithAllocGate(inj), hls.WithAllocRetry(2, time.Microsecond))
		}
		reg := hls.New(w, opts...)
		v := hls.Declare[float64](reg, "table", topology.Node, 16,
			hls.WithInit(func(inst int, data []float64) {
				for i := range data {
					data[i] = float64(i) * 1.5
				}
			}))
		results := make([][]float64, n)
		runErr := w.Run(func(tk *mpi.Task) error {
			// One task scales the table; everyone reads it afterwards.
			v.Single(tk, func(data []float64) {
				for i := range data {
					data[i] *= 2
				}
			})
			out := append([]float64(nil), v.Slice(tk)...)
			reg.BarrierScope(tk, topology.Node)
			results[tk.Rank()] = out
			return nil
		})
		return results, reg, runErr
	}

	clean, _, err := run(nil)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	inj := chaos.New(3, chaos.Fault{Kind: chaos.AllocFail, Var: "table", Prob: 1})
	degraded, reg, err := run(inj)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if got := inj.Count(chaos.AllocFail); got == 0 {
		t.Fatal("no allocation failures injected")
	}
	demoted := false
	for _, vi := range reg.Report() {
		if vi.Name == "table" && vi.Demotions > 0 {
			demoted = true
			if vi.DemotedExtraBytes <= 0 {
				t.Errorf("DemotedExtraBytes = %d, want > 0", vi.DemotedExtraBytes)
			}
		}
	}
	if !demoted {
		t.Fatal("variable was not demoted despite persistent allocation failures")
	}
	for r := range clean {
		if len(clean[r]) != len(degraded[r]) {
			t.Fatalf("rank %d: result lengths differ", r)
		}
		for i := range clean[r] {
			if clean[r][i] != degraded[r][i] {
				t.Fatalf("rank %d element %d: clean %v != degraded %v (degradation broke §III equivalence)",
					r, i, clean[r][i], degraded[r][i])
			}
		}
	}
}

func TestChaosMsgDelayKeepsResultsCorrect(t *testing.T) {
	inj := chaos.New(5, chaos.Fault{Kind: chaos.MsgDelay, Rank: -1, Prob: 0.5, Delay: time.Millisecond})
	w, err := mpi.Run(mpi.Config{
		NumTasks: 4, Hooks: inj, Timeout: 30 * time.Second,
	}, func(tk *mpi.Task) error {
		in := []int{tk.Rank() + 1}
		out := []int{0}
		mpi.Allreduce(tk, nil, in, out, mpi.OpSum)
		if out[0] != 10 {
			t.Errorf("rank %d: Allreduce = %d, want 10", tk.Rank(), out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	_ = w
	if inj.Count(chaos.MsgDelay) == 0 {
		t.Error("no delays injected at Prob=0.5")
	}
}

func TestChaosMapGateFires(t *testing.T) {
	inj := chaos.New(9, chaos.Fault{Kind: chaos.MapFail, Node: 1, Nth: 1, Times: 1})
	gate := inj.MapGate()
	if err := gate(0, 1); err != nil {
		t.Errorf("node 0 failed despite Node=1 filter: %v", err)
	}
	if err := gate(1, 1); err == nil {
		t.Error("node 1 attempt 1 did not fail")
	}
	if err := gate(1, 2); err != nil {
		t.Errorf("node 1 attempt 2 failed despite Times=1: %v", err)
	}
	if inj.Count(chaos.MapFail) != 1 {
		t.Errorf("Count(MapFail) = %d, want 1", inj.Count(chaos.MapFail))
	}
}

func TestChaosSummaryReportsUnfired(t *testing.T) {
	inj := chaos.New(1,
		chaos.Fault{Kind: chaos.MsgDup, Rank: -1, Nth: 2},   // will fire
		chaos.Fault{Kind: chaos.MsgDrop, Rank: -1, Nth: 50}, // never reached
		chaos.Fault{Kind: chaos.RankKill, Rank: 3, Nth: 1},  // never consulted
	)
	for i := 0; i < 5; i++ {
		inj.FaultP2P(0, 1, 8, false)
	}
	sum := inj.Summary()
	if len(sum) != 3 {
		t.Fatalf("Summary has %d entries, want 3", len(sum))
	}
	if sum[0].Fired != 1 || sum[0].Unfired() {
		t.Errorf("fault 0: %+v, want fired once", sum[0])
	}
	if sum[1].Seen != 5 || !sum[1].Unfired() {
		t.Errorf("fault 1: %+v, want seen=5 unfired", sum[1])
	}
	if sum[2].Seen != 0 || !sum[2].Unfired() {
		t.Errorf("fault 2: %+v, want seen=0 unfired", sum[2])
	}
	unf := inj.Unfired()
	if len(unf) != 2 || unf[0].Index != 1 || unf[1].Index != 2 {
		t.Fatalf("Unfired = %+v, want plan entries 1 and 2", unf)
	}
	if d := unf[0].Describe(); !strings.Contains(d, "UNFIRED") || !strings.Contains(d, "never reached") {
		t.Errorf("Describe() = %q, want unreached marker", d)
	}
}
