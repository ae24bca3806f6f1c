package meshupdate

import (
	"math"
	"runtime"
	"testing"

	"hls/internal/cachesim"
	"hls/internal/topology"
)

func TestModeString(t *testing.T) {
	for _, m := range []Mode{NoHLS, HLSNode, HLSNuma, WinShm} {
		if m.String() == "" {
			t.Error("empty mode name")
		}
	}
}

func TestChecksumIdenticalAcrossModes(t *testing.T) {
	// Neither the HLS directives nor the MPI-3 shared window may change
	// program semantics: all sharing modes compute identical results.
	base := Config{
		Machine:      topology.NehalemEX4(),
		Tasks:        8,
		CellsPerTask: 200,
		TableEntries: 400,
		Steps:        3,
		Seed:         42,
	}
	for _, update := range []bool{false, true} {
		var sums []float64
		for _, mode := range []Mode{NoHLS, HLSNode, HLSNuma, WinShm} {
			cfg := base
			cfg.Mode = mode
			cfg.Update = update
			s, err := RunAllChecksum(cfg)
			if err != nil {
				t.Fatalf("update=%v mode=%v: %v", update, mode, err)
			}
			sums = append(sums, s)
		}
		for i := 1; i < len(sums); i++ {
			if math.Abs(sums[i]-sums[0]) > 1e-9*math.Abs(sums[0]) {
				t.Errorf("update=%v: checksum of mode %d (%.12g) differs from NoHLS (%.12g)",
					update, i, sums[i], sums[0])
			}
		}
		if sums[0] == 0 {
			t.Errorf("update=%v: zero checksum, kernel did no work", update)
		}
	}
}

func TestUpdateChangesResult(t *testing.T) {
	cfg := Config{
		Machine:      topology.NehalemEX4(),
		Tasks:        4,
		CellsPerTask: 100,
		TableEntries: 400,
		Steps:        3,
		Seed:         7,
		Mode:         HLSNode,
	}
	still, err := RunAllChecksum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Update = true
	moving, err := RunAllChecksum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if still == moving {
		t.Error("update variant produced identical results to no-update; table update is a no-op")
	}
}

func TestStreamAccessCounts(t *testing.T) {
	// Per step each cell emits 4 accesses (read cell, 2 table reads,
	// write cell); writers additionally rewrite the table in update mode.
	cfg := Config{
		Machine:      topology.NehalemEX4Scaled(),
		Tasks:        2,
		CellsPerTask: 10,
		TableEntries: 64, // 512 bytes -> 8 lines
		Steps:        2,
		Update:       true,
		Mode:         HLSNode,
		Seed:         1,
	}
	lay := buildLayout(&cfg, cachesim.NewAddressSpace(64))
	// Task 0 is the node-scope writer.
	if !lay.writer[0] || lay.writer[1] {
		t.Fatalf("writer flags = %v, want [true false]", lay.writer)
	}
	count := func(task int) int {
		s := newStream(&cfg, lay, task)
		n := 0
		for {
			if _, ok := s.Next(); !ok {
				return n
			}
			n++
		}
	}
	// Steps=2: one table rewrite between them (8 lines) for the writer.
	want0 := 2*10*4 + 8
	want1 := 2 * 10 * 4
	if got := count(0); got != want0 {
		t.Errorf("writer accesses = %d, want %d", got, want0)
	}
	if got := count(1); got != want1 {
		t.Errorf("reader accesses = %d, want %d", got, want1)
	}
}

func TestLayoutSharing(t *testing.T) {
	m := topology.NehalemEX4Scaled()
	mk := func(mode Mode) *layout {
		cfg := Config{Machine: m, Tasks: 32, Mode: mode, CellsPerTask: 10, TableEntries: 64, Steps: 1}
		return buildLayout(&cfg, cachesim.NewAddressSpace(64))
	}
	// NoHLS: 32 distinct tables.
	lay := mk(NoHLS)
	seen := map[uint64]bool{}
	for _, b := range lay.tableBase {
		seen[b] = true
	}
	if len(seen) != 32 {
		t.Errorf("NoHLS distinct tables = %d, want 32", len(seen))
	}
	// HLSNode: one table.
	lay = mk(HLSNode)
	for _, b := range lay.tableBase {
		if b != lay.tableBase[0] {
			t.Error("HLSNode tables differ")
		}
	}
	// HLSNuma: 4 tables (one per socket), tasks 0-7 share, etc.
	lay = mk(HLSNuma)
	seen = map[uint64]bool{}
	writers := 0
	for tsk, b := range lay.tableBase {
		seen[b] = true
		if lay.tableBase[(tsk/8)*8] != b {
			t.Errorf("task %d not sharing its socket's table", tsk)
		}
		if lay.writer[tsk] {
			writers++
		}
	}
	if len(seen) != 4 || writers != 4 {
		t.Errorf("HLSNuma: %d tables, %d writers, want 4/4", len(seen), writers)
	}
	// Meshes always distinct.
	seen = map[uint64]bool{}
	for _, b := range lay.meshBase {
		seen[b] = true
	}
	if len(seen) != 32 {
		t.Errorf("distinct meshes = %d, want 32", len(seen))
	}
}

func TestCacheExperimentShape(t *testing.T) {
	// Scaled-down Table I row: without HLS the duplicated tables blow the
	// LLC and efficiency collapses; with HLS it stays high.
	if testing.Short() {
		t.Skip("cache simulation is slow")
	}
	base := Config{
		Machine:      topology.NehalemEX4Scaled(),
		Tasks:        32,
		CellsPerTask: 2048,            // "small": 16 KiB per task (scaled /64 from 1 MB)
		TableEntries: (128 << 10) / 8, // 128 KiB table (scaled /64 from 8 MB)
		Steps:        3,
		Seed:         5,
	}
	eff := map[Mode]float64{}
	for _, mode := range []Mode{NoHLS, HLSNode, HLSNuma} {
		cfg := base
		cfg.Mode = mode
		res, err := RunCacheExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eff[mode] = res.Efficiency
		t.Logf("mode=%v eff=%.2f seq=%.0f par=%.0f", mode, res.Efficiency, res.SeqCycles, res.ParCycles)
	}
	if eff[HLSNode] < eff[NoHLS]+0.15 {
		t.Errorf("HLS node efficiency %.2f not clearly above no-HLS %.2f", eff[HLSNode], eff[NoHLS])
	}
	if eff[HLSNuma] < eff[NoHLS]+0.15 {
		t.Errorf("HLS numa efficiency %.2f not clearly above no-HLS %.2f", eff[HLSNuma], eff[NoHLS])
	}
}

func TestUpdatePenalizesNodeScope(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation is slow")
	}
	// With the table rewritten every step, the node scope invalidates all
	// other sockets' LLC copies while numa keeps them: numa >= node.
	base := Config{
		Machine:      topology.NehalemEX4Scaled(),
		Tasks:        32,
		CellsPerTask: 2048,
		TableEntries: (128 << 10) / 8,
		Steps:        3,
		Update:       true,
		Seed:         5,
	}
	effOf := func(mode Mode) float64 {
		cfg := base
		cfg.Mode = mode
		res, err := RunCacheExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Efficiency
	}
	node := effOf(HLSNode)
	numa := effOf(HLSNuma)
	t.Logf("update: node=%.2f numa=%.2f", node, numa)
	if numa < node {
		t.Errorf("numa efficiency %.2f below node %.2f under updates", numa, node)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunCacheExperiment(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := Config{Machine: topology.NehalemEX4(), Tasks: 99, CellsPerTask: 1, TableEntries: 1, Steps: 1}
	if _, err := RunCacheExperiment(cfg); err == nil {
		t.Error("oversubscribed config accepted")
	}
}

func TestStreamDeterministic(t *testing.T) {
	cfg := Config{
		Machine: topology.NehalemEX4Scaled(), Tasks: 2, Mode: HLSNode,
		CellsPerTask: 50, TableEntries: 256, Steps: 2, Update: true, Seed: 9,
	}
	collect := func() []cachesim.Access {
		lay := buildLayout(&cfg, cachesim.NewAddressSpace(64))
		s := newStream(&cfg, lay, 0)
		var out []cachesim.Access
		for {
			a, ok := s.Next()
			if !ok {
				return out
			}
			out = append(out, a)
		}
	}
	a := collect()
	b := collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("access %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestWinShmRunsReleaseTheirTable: a finished WinShm run frees its
// window, so neither the shared table nor the world outlives it.
func TestWinShmRunsReleaseTheirTable(t *testing.T) {
	cfg := Config{
		Machine:      topology.HarpertownCluster(1),
		Tasks:        4,
		Mode:         WinShm,
		CellsPerTask: 16,
		TableEntries: 1 << 20, // 8 MiB of float64
		Steps:        1,
		Seed:         1,
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 4; i++ {
		if _, err := RunAllChecksum(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if retained := int64(heap()) - int64(before); retained >= 1<<20 {
		t.Errorf("4 WinShm runs of an 8 MiB table retain %.1f MB, want < 1 MB", float64(retained)/(1<<20))
	}
}
