// Package report renders benchmark runs into the textual result-file
// format consumed by the parser package — the equivalent of the .txt
// reports published on the SPEC website that the paper's scripts ingest.
//
// The format is line-oriented with labelled fields and a load-level
// table, close in spirit to SPEC's published reports (thousands
// separators in ops, "Active Idle" row, month-year dates) so the parser
// has realistic quirks to cope with.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/model"
)

// Render writes the run as a result file.
func Render(w io.Writer, r *model.Run) error {
	var b strings.Builder
	b.WriteString("SPEC Power and Performance Benchmark (simulated corpus)\n")
	b.WriteString("SPECpower_ssj2008 Result\n")
	b.WriteString(strings.Repeat("=", 64) + "\n\n")

	status := "accepted"
	if !r.Accepted {
		status = "not accepted"
	}
	field := func(k, v string) {
		fmt.Fprintf(&b, "%-28s %s\n", k+":", v)
	}
	field("Report ID", r.ID)
	field("Status", status)
	field("Test Date", r.TestDate.String())
	field("Submission Date", r.SubmissionDate.String())
	field("Hardware Availability", r.HWAvail.String())
	field("Software Availability", r.SWAvail.String())
	b.WriteString("\nSystem Under Test\n")
	b.WriteString(strings.Repeat("-", 64) + "\n")
	field("Vendor", r.SystemVendor)
	field("Model", r.SystemName)
	if r.Nodes > 0 {
		field("Nodes", fmt.Sprintf("%d", r.Nodes))
	}
	field("CPU", r.CPUName)
	field("CPU Frequency (GHz)", trimFloat(r.NominalGHz))
	field("CPU TDP (W)", trimFloat(r.TDPWatts))
	field("Sockets per Node", fmt.Sprintf("%d", r.SocketsPerNode))
	field("Cores per Socket", fmt.Sprintf("%d", r.CoresPerSocket))
	field("Threads per Core", fmt.Sprintf("%d", r.ThreadsPerCore))
	field("Total Cores", fmt.Sprintf("%d", r.TotalCores))
	field("Total Threads", fmt.Sprintf("%d", r.TotalThreads))
	field("Memory (GB)", fmt.Sprintf("%d", r.MemGB))
	field("PSU Rated (W)", fmt.Sprintf("%d", r.PSUWatts))
	field("Operating System", r.OSName)
	field("JVM", r.JVM)

	b.WriteString("\nBenchmark Results\n")
	b.WriteString(strings.Repeat("-", 64) + "\n")
	fmt.Fprintf(&b, "%-14s %18s %20s\n", "Target Load", "ssj_ops", "Average Power (W)")
	for _, p := range r.Points {
		label := fmt.Sprintf("%d%%", p.TargetLoad)
		if p.TargetLoad == 0 {
			label = "Active Idle"
		}
		fmt.Fprintf(&b, "%-14s %18s %20.1f\n",
			label, Thousands(int64(p.ActualOps+0.5)), p.AvgPower)
	}
	fmt.Fprintf(&b, "\n%-28s %.0f overall ssj_ops/watt\n",
		"Overall Score:", r.OverallOpsPerWatt())

	_, err := io.WriteString(w, b.String())
	return err
}

// Thousands formats n with comma separators ("26,000,000"), as SPEC
// reports do.
func Thousands(n int64) string {
	neg := n < 0
	if neg {
		n = -n
	}
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, d := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, d)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}

// trimFloat renders a float without trailing zeros ("2.25", "360").
func trimFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
