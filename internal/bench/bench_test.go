package bench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hls/internal/apps/matmul"
	"hls/internal/apps/meshupdate"
)

func TestTableIQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation is slow")
	}
	cells, err := RunTableI(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 { // 3 modes x 3 sizes x 2 update variants
		t.Fatalf("cells = %d, want 18", len(cells))
	}
	eff := func(mode meshupdate.Mode, size string, update bool) float64 {
		for _, c := range cells {
			if c.Mode == mode && c.Size == size && c.Update == update {
				return c.Efficiency
			}
		}
		t.Fatalf("missing cell %v/%s/%v", mode, size, update)
		return 0
	}
	// Paper shape: HLS far above no-HLS everywhere.
	for _, update := range []bool{false, true} {
		for _, size := range []string{"small", "medium", "large"} {
			no := eff(meshupdate.NoHLS, size, update)
			node := eff(meshupdate.HLSNode, size, update)
			numa := eff(meshupdate.HLSNuma, size, update)
			if node < no || numa < no {
				t.Errorf("size=%s update=%v: HLS (%.2f/%.2f) below no-HLS (%.2f)", size, update, node, numa, no)
			}
			if update && numa < node-0.02 {
				t.Errorf("size=%s update: numa (%.2f) below node (%.2f)", size, numa, node)
			}
		}
	}
	// The node scope suffers most from updates on the small setting.
	if eff(meshupdate.HLSNode, "small", true) >= eff(meshupdate.HLSNode, "small", false) {
		t.Error("update did not penalize the node scope on the small setting")
	}
	var sb strings.Builder
	PrintTableI(&sb, cells)
	checkGolden(t, "table1", sb.String())
}

func TestFigure3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cache simulation is slow")
	}
	// The two variants are independent simulations: run them side by
	// side so the test takes one variant's time.
	var series [2][]Fig3Point
	var errs [2]error
	var wg sync.WaitGroup
	for i, update := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			series[i], errs[i] = RunFigure3(Quick, update)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	pts := series[0]
	get := func(mode matmul.Mode, n int) float64 {
		for _, p := range pts {
			if p.Mode == mode && p.N == n {
				return p.GFLOPS
			}
		}
		t.Fatalf("missing point %v/%d", mode, n)
		return 0
	}
	// Small size: all within a band. Past the crossover: noHLS below HLS.
	if get(matmul.NoHLS, 16) < 0.7*get(matmul.Seq, 16) {
		t.Error("no-HLS unexpectedly slow at cache-resident size")
	}
	if get(matmul.NoHLS, 64) >= get(matmul.HLSNode, 64) {
		t.Errorf("no-HLS (%.2f) not below HLS node (%.2f) at N=64",
			get(matmul.NoHLS, 64), get(matmul.HLSNode, 64))
	}
	var sb strings.Builder
	PrintFigure3(&sb, series[0], false)
	sb.WriteString("\n")
	PrintFigure3(&sb, series[1], true)
	checkGolden(t, "fig3", sb.String())
}

// checkGolden compares a printed table with testdata/<name>.golden, the
// quick profile's output as hlsbench prints it under its "== ... =="
// header. Edit the file when a table changes on purpose.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("printed table differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func memRow(t *testing.T, rows []MemRow, v Variant) MemRow {
	t.Helper()
	for _, r := range rows {
		if r.Variant == v {
			return r
		}
	}
	t.Fatalf("no row for %v", v)
	return MemRow{}
}

func TestTableIIQuickShape(t *testing.T) {
	rows, err := RunTableII(Quick)
	if err != nil {
		t.Fatal(err)
	}
	hls := memRow(t, rows, VariantMPCHLS)
	mpc := memRow(t, rows, VariantMPC)
	ompi := memRow(t, rows, VariantOpenMPI)
	// HLS saves ~7 x 128 MB = 896 MB per node; Open MPI > MPC.
	saving := mpc.AvgMB - hls.AvgMB
	if saving < 850 || saving > 950 {
		t.Errorf("HLS saving = %.0f MB, want ≈ 896 MB", saving)
	}
	if ompi.AvgMB <= mpc.AvgMB {
		t.Errorf("Open MPI (%.0f) not above MPC (%.0f)", ompi.AvgMB, mpc.AvgMB)
	}
	// Time roughly unchanged by HLS (well within 3x for a quick run).
	if hls.Seconds > 3*mpc.Seconds+0.05 {
		t.Errorf("HLS time %.3fs vs MPC %.3fs: overhead not negligible", hls.Seconds, mpc.Seconds)
	}
	var sb strings.Builder
	PrintMemRows(&sb, "Table II", rows, "")
	if !strings.Contains(sb.String(), "MPC HLS") {
		t.Error("PrintMemRows missing variant")
	}
}

func TestTableIIIQuickShape(t *testing.T) {
	rows, err := RunTableIII(Quick)
	if err != nil {
		t.Fatal(err)
	}
	hls := memRow(t, rows, VariantMPCHLS)
	mpc := memRow(t, rows, VariantMPC)
	saving := mpc.AvgMB - hls.AvgMB
	if saving < 200 || saving > 260 {
		t.Errorf("HLS saving = %.0f MB, want ≈ 231 MB (7 x 33)", saving)
	}
}

func TestTableIVQuickShape(t *testing.T) {
	res, err := RunTableIV(Quick)
	if err != nil {
		t.Fatal(err)
	}
	hls := memRow(t, res.Rows, VariantMPCHLS)
	mpc := memRow(t, res.Rows, VariantMPC)
	saving := mpc.AvgMB - hls.AvgMB
	want := 7.0 * 560
	if saving < 0.95*want || saving > 1.05*want {
		t.Errorf("HLS saving = %.0f MB, want ≈ %.0f MB", saving, want)
	}
	if res.ElidedCopies == 0 {
		t.Error("no intra-node copy elisions in the HLS run")
	}
}

func TestMicroQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("micro benches spin many goroutines")
	}
	results, err := RunMicro(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 6 {
		t.Fatalf("results = %d, want >= 6", len(results))
	}
	var sb strings.Builder
	PrintMicro(&sb, results)
	if !strings.Contains(sb.String(), "barrier") {
		t.Error("micro output missing barrier rows")
	}
}

func TestProfileString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("profile names wrong")
	}
}

func TestVariantString(t *testing.T) {
	for _, v := range []Variant{VariantMPCHLS, VariantMPC, VariantOpenMPI} {
		if v.String() == "" {
			t.Error("empty variant name")
		}
	}
}

func TestNewMemEnvValidation(t *testing.T) {
	if _, err := newMemEnv(12, VariantMPC); err == nil {
		t.Error("non-multiple-of-8 cores accepted")
	}
}

func TestHybridAblationShape(t *testing.T) {
	res, err := RunHybridAblation(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.PureMPIHLSPath <= 0 || res.HybridMasterPath <= 0 {
		t.Fatalf("bad work counts: %+v", res)
	}
	// The master-only hybrid serializes the comm phase: its critical path
	// must be clearly longer. With a 20% comm share over 8 workers:
	// (c/8 + m) / (c/8 + m/8) ≈ 2.4.
	ratio := float64(res.HybridMasterPath) / float64(res.PureMPIHLSPath)
	if ratio < 1.5 {
		t.Errorf("hybrid critical path only %.2fx the pure-MPI one; Amdahl section lost", ratio)
	}
	var sb strings.Builder
	PrintHybrid(&sb, res)
	if !strings.Contains(sb.String(), "Amdahl") {
		t.Error("missing explanation line")
	}
}

func TestCSVWriters(t *testing.T) {
	cells := []TableICell{
		{Mode: meshupdate.NoHLS, Size: "small", Update: false, Efficiency: 0.37},
		{Mode: meshupdate.HLSNode, Size: "small", Update: true, Efficiency: 0.65},
	}
	var sb strings.Builder
	if err := WriteTableICSV(&sb, cells); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "mode,size,update,efficiency") ||
		!strings.Contains(out, "without HLS,small,false,0.3700") {
		t.Errorf("table1 csv:\n%s", out)
	}

	pts := []Fig3Point{
		{Mode: matmul.Seq, N: 16, GFLOPS: 1.38},
		{Mode: matmul.NoHLS, N: 16, GFLOPS: 1.38},
		{Mode: matmul.HLSNode, N: 16, GFLOPS: 1.38},
		{Mode: matmul.HLSNuma, N: 16, GFLOPS: 1.38},
		{Mode: matmul.Seq, N: 64, GFLOPS: 0.53},
		{Mode: matmul.NoHLS, N: 64, GFLOPS: 0.40},
		{Mode: matmul.HLSNode, N: 64, GFLOPS: 0.49},
		{Mode: matmul.HLSNuma, N: 64, GFLOPS: 0.49},
	}
	pts = append(pts, Fig3Point{Mode: matmul.HLSNode, N: 16, Update: true, GFLOPS: 0.62})
	sb.Reset()
	if err := WriteFigure3CSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("fig3 csv lines = %d:\n%s", len(lines), sb.String())
	}
	if lines[0] != "update,n,sequential,without HLS,HLS node,HLS numa" {
		t.Errorf("fig3 header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "false,64,0.5300,0.4000,") {
		t.Errorf("fig3 row = %q", lines[2])
	}
	if lines[3] != "true,16,,,0.6200," {
		t.Errorf("fig3 update row = %q", lines[3])
	}

	sb.Reset()
	rows := []MemRow{{Cores: 256, Variant: VariantMPCHLS, Seconds: 1.5, AvgMB: 651, MaxMB: 672}}
	if err := WriteMemRowsCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "256,MPC HLS,1.500,651,672") {
		t.Errorf("mem csv:\n%s", sb.String())
	}
}

func TestRMAAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("rma ablation spins many goroutines")
	}
	res, err := RunRMA(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cache) != 3 || len(res.Mem) != 3 || len(res.Sync) < 3 {
		t.Fatalf("shape: %d cache, %d mem, %d sync rows", len(res.Cache), len(res.Mem), len(res.Sync))
	}
	// The window must reproduce HLS node's single-copy profile: same cache
	// efficiency (identical access streams) and same order of memory.
	if res.Cache[1].MeshEff != res.Cache[2].MeshEff {
		t.Errorf("shared window efficiency %v != HLS node %v", res.Cache[2].MeshEff, res.Cache[1].MeshEff)
	}
	if res.Cache[0].MeshEff >= res.Cache[2].MeshEff {
		t.Errorf("private copies (%v) should scale worse than the shared window (%v)",
			res.Cache[0].MeshEff, res.Cache[2].MeshEff)
	}
	if res.Mem[0].TableMB <= res.Mem[2].TableMB {
		t.Errorf("private copies (%v MB) should cost more than the window (%v MB)",
			res.Mem[0].TableMB, res.Mem[2].TableMB)
	}
	var sb strings.Builder
	PrintRMA(&sb, res)
	for _, want := range []string{"MPI-3 shared window", "window fence", "lock/unlock"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
