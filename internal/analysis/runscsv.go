package analysis

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/model"
)

// runColumns is the flattened per-run table: every derived metric the
// analyses use, one column each. Names and order are stable API.
var runColumns = []struct {
	name string
	cell func(*model.Run) string
}{
	{"id", func(r *model.Run) string { return r.ID }},
	{"vendor", func(r *model.Run) string { return r.CPUVendor.String() }},
	{"class", func(r *model.Run) string { return r.CPUClass.String() }},
	{"os", func(r *model.Run) string { return r.OSFamily.String() }},
	{"year", func(r *model.Run) string { return strconv.Itoa(r.HWAvail.Year) }},
	{"frac", func(r *model.Run) string { return formatFloat(r.HWAvail.Frac()) }},
	{"sockets", func(r *model.Run) string { return strconv.Itoa(r.SocketsPerNode) }},
	{"nodes", func(r *model.Run) string { return strconv.Itoa(r.Nodes) }},
	{"cores", func(r *model.Run) string { return strconv.Itoa(r.TotalCores) }},
	{"threads", func(r *model.Run) string { return strconv.Itoa(r.TotalThreads) }},
	{"ghz", func(r *model.Run) string { return formatFloat(r.NominalGHz) }},
	{"tdp", func(r *model.Run) string { return formatFloat(r.TDPWatts) }},
	{"mem_gb", func(r *model.Run) string { return strconv.Itoa(r.MemGB) }},
	{"full_w", func(r *model.Run) string { return formatFloat(r.FullLoadPower()) }},
	{"idle_w", func(r *model.Run) string { return formatFloat(r.IdlePower()) }},
	{"idle_frac", func(r *model.Run) string { return formatFloat(r.IdleFraction()) }},
	{"w_socket_100", func(r *model.Run) string { return formatFloat(r.PowerPerSocketAt(100)) }},
	{"w_socket_70", func(r *model.Run) string { return formatFloat(r.PowerPerSocketAt(70)) }},
	{"w_socket_20", func(r *model.Run) string { return formatFloat(r.PowerPerSocketAt(20)) }},
	{"overall_eff", func(r *model.Run) string { return formatFloat(r.OverallOpsPerWatt()) }},
	{"ext_idle_w", func(r *model.Run) string { return formatFloat(r.ExtrapolatedIdlePower()) }},
	{"idle_quot", func(r *model.Run) string { return formatFloat(r.ExtrapolatedIdleQuotient()) }},
	{"releff_60", func(r *model.Run) string { return formatFloat(r.RelativeEfficiencyAt(60)) }},
	{"releff_70", func(r *model.Run) string { return formatFloat(r.RelativeEfficiencyAt(70)) }},
	{"releff_80", func(r *model.Run) string { return formatFloat(r.RelativeEfficiencyAt(80)) }},
	{"releff_90", func(r *model.Run) string { return formatFloat(r.RelativeEfficiencyAt(90)) }},
}

// formatFloat renders a float at full precision, NaN as an empty cell
// (pandas-compatible).
func formatFloat(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteRunsCSV writes runs as CSV, one row per run under a header row
// of the stable column names:
//
//	id, vendor, class, os, year, frac, sockets, nodes, cores, threads,
//	ghz, tdp, mem_gb, full_w, idle_w, idle_frac, w_socket_100,
//	w_socket_70, w_socket_20, overall_eff, ext_idle_w, idle_quot,
//	releff_60, releff_70, releff_80, releff_90
func WriteRunsCSV(w io.Writer, runs []*model.Run) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(runColumns))
	for i, c := range runColumns {
		rec[i] = c.name
	}
	if err := cw.Write(rec); err != nil {
		return fmt.Errorf("analysis: write csv header: %w", err)
	}
	for n, r := range runs {
		for i, c := range runColumns {
			rec[i] = c.cell(r)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("analysis: write csv row %d: %w", n, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
