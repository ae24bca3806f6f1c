package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"hls/internal/apps/matmul"
)

// WriteTableICSV emits Table I's cells as machine-readable rows
// (mode,size,update,efficiency), for plotting.
func WriteTableICSV(w io.Writer, cells []TableICell) error {
	records := [][]string{{"mode", "size", "update", "efficiency"}}
	for _, c := range cells {
		records = append(records, []string{
			c.Mode.String(), c.Size, strconv.FormatBool(c.Update),
			strconv.FormatFloat(c.Efficiency, 'f', 4, 64),
		})
	}
	return csv.NewWriter(w).WriteAll(records)
}

// WriteFigure3CSV emits Figure 3's points with one column per mode and one
// row per (update variant, matrix size), ready for a line plot.
func WriteFigure3CSV(w io.Writer, points []Fig3Point) error {
	modes := []matmul.Mode{matmul.Seq, matmul.NoHLS, matmul.HLSNode, matmul.HLSNuma}
	header := []string{"update", "n"}
	for _, m := range modes {
		header = append(header, m.String())
	}
	type series struct {
		update bool
		n      int
	}
	var keys []series
	gflops := map[series]map[matmul.Mode]string{}
	for _, p := range points {
		k := series{p.Update, p.N}
		if gflops[k] == nil {
			gflops[k] = map[matmul.Mode]string{}
			keys = append(keys, k)
		}
		gflops[k][p.Mode] = strconv.FormatFloat(p.GFLOPS, 'f', 4, 64)
	}
	records := [][]string{header}
	for _, k := range keys {
		rec := []string{strconv.FormatBool(k.update), strconv.Itoa(k.n)}
		for _, m := range modes {
			rec = append(rec, gflops[k][m])
		}
		records = append(records, rec)
	}
	return csv.NewWriter(w).WriteAll(records)
}

// WriteMemRowsCSV emits a memory table's rows.
func WriteMemRowsCSV(w io.Writer, rows []MemRow) error {
	records := [][]string{{"cores", "mpi", "time_s", "avg_mb", "max_mb"}}
	for _, r := range rows {
		records = append(records, []string{
			strconv.Itoa(r.Cores), r.Variant.String(),
			fmt.Sprintf("%.3f", r.Seconds),
			fmt.Sprintf("%.0f", r.AvgMB),
			fmt.Sprintf("%.0f", r.MaxMB),
		})
	}
	return csv.NewWriter(w).WriteAll(records)
}
