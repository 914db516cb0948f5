// Package parser reads SPECpower_ssj2008-style result files into
// model.Run values. It is the reader side of the report package's
// writer, but deliberately tolerant: thousands separators, varying date
// spellings, missing fields, and unknown lines are all handled the way
// the paper's parsing scripts must handle sixteen years of vendor
// -submitted files.
//
// Parsing is structural only. Semantic problems (missing node counts,
// inconsistent core totals, implausible dates) are left in the returned
// Run for the model package's consistency checks to classify, mirroring
// the paper's two-stage funnel.
package parser

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Parse reads one result file.
func Parse(r io.Reader) (*model.Run, error) {
	run := &model.Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)

	inResults := false
	sawHeader := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.Contains(trimmed, "SPECpower_ssj2008") {
			sawHeader = true
			continue
		}
		if strings.HasPrefix(trimmed, "=") || strings.HasPrefix(trimmed, "-") {
			continue
		}
		switch trimmed {
		case "System Under Test":
			continue
		case "Benchmark Results":
			inResults = true
			continue
		}
		if inResults {
			if done, err := parseResultLine(run, trimmed); err != nil {
				return nil, fmt.Errorf("parser: line %d: %w", lineNo, err)
			} else if done {
				inResults = false
			}
			continue
		}
		if key, val, ok := splitField(trimmed); ok {
			if err := assignField(run, key, val); err != nil {
				return nil, fmt.Errorf("parser: line %d: %w", lineNo, err)
			}
		}
		// Unknown non-field lines are ignored (banners, notes).
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parser: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("parser: not a SPECpower_ssj2008 result file")
	}
	if run.ID == "" {
		return nil, fmt.Errorf("parser: missing report ID")
	}
	if len(run.Points) == 0 {
		return nil, fmt.Errorf("parser: no measurement table")
	}
	// Derived classifications, as the paper's scripts compute them.
	run.CPUVendor = model.ParseCPUVendor(run.CPUName)
	run.CPUClass = model.ClassifyCPU(run.CPUName)
	run.OSFamily = model.ParseOSFamily(run.OSName)
	run.SortPoints()
	return run, nil
}

// splitField splits "Label:   value" lines.
func splitField(line string) (key, val string, ok bool) {
	idx := strings.Index(line, ":")
	if idx <= 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:idx]), strings.TrimSpace(line[idx+1:]), true
}

func assignField(run *model.Run, key, val string) error {
	switch strings.ToLower(key) {
	case "report id":
		run.ID = val
	case "status":
		run.Accepted = strings.EqualFold(val, "accepted")
	case "test date":
		run.TestDate = parseDateLenient(val)
	case "submission date", "publication date":
		run.SubmissionDate = parseDateLenient(val)
	case "hardware availability":
		run.HWAvail = parseDateLenient(val)
	case "software availability":
		run.SWAvail = parseDateLenient(val)
	case "vendor", "test sponsor":
		run.SystemVendor = val
	case "model", "system":
		run.SystemName = val
	case "nodes":
		return assignInt(&run.Nodes, key, val)
	case "cpu", "cpu name", "processor":
		run.CPUName = val
	case "cpu frequency (ghz)":
		return assignFloat(&run.NominalGHz, key, val)
	case "cpu frequency (mhz)":
		if err := assignFloat(&run.NominalGHz, key, val); err != nil {
			return err
		}
		run.NominalGHz /= 1000
	case "cpu tdp (w)":
		return assignFloat(&run.TDPWatts, key, val)
	case "sockets per node", "cpu sockets":
		return assignInt(&run.SocketsPerNode, key, val)
	case "cores per socket":
		return assignInt(&run.CoresPerSocket, key, val)
	case "threads per core":
		return assignInt(&run.ThreadsPerCore, key, val)
	case "total cores":
		return assignInt(&run.TotalCores, key, val)
	case "total threads":
		return assignInt(&run.TotalThreads, key, val)
	case "memory (gb)":
		return assignInt(&run.MemGB, key, val)
	case "psu rated (w)":
		return assignInt(&run.PSUWatts, key, val)
	case "operating system", "os":
		run.OSName = val
	case "jvm", "java virtual machine":
		run.JVM = val
	case "overall score":
		// Recomputed from the table; the printed score is ignored.
	}
	return nil
}

// parseDateLenient returns the zero YearMonth for unparseable dates;
// the consistency checks classify those as ambiguous.
func parseDateLenient(val string) model.YearMonth {
	ym, err := model.ParseYearMonth(val)
	if err != nil {
		return model.YearMonth{}
	}
	return ym
}

func assignInt(dst *int, key, val string) error {
	n, err := strconv.Atoi(stripSeparators(val))
	if err != nil {
		return fmt.Errorf("field %q: bad integer %q", key, val)
	}
	*dst = n
	return nil
}

func assignFloat(dst *float64, key, val string) error {
	f, err := strconv.ParseFloat(stripSeparators(val), 64)
	if err != nil {
		return fmt.Errorf("field %q: bad number %q", key, val)
	}
	*dst = f
	return nil
}

func stripSeparators(s string) string {
	return strings.ReplaceAll(s, ",", "")
}

// parseResultLine handles one row of the measurement table. It returns
// done=true when the table has ended (overall-score line reached).
func parseResultLine(run *model.Run, line string) (done bool, err error) {
	lower := strings.ToLower(line)
	if strings.HasPrefix(lower, "overall score") {
		return true, nil
	}
	if strings.HasPrefix(lower, "target load") {
		return false, nil // column header
	}
	fields := strings.Fields(line)
	var target int
	var rest []string
	switch {
	case len(fields) >= 3 && strings.EqualFold(fields[0], "active") &&
		strings.EqualFold(fields[1], "idle"):
		target = 0
		rest = fields[2:]
	case strings.HasSuffix(fields[0], "%"):
		t, convErr := strconv.Atoi(strings.TrimSuffix(fields[0], "%"))
		if convErr != nil {
			return false, fmt.Errorf("bad load level %q", fields[0])
		}
		target = t
		rest = fields[1:]
	default:
		// Not shaped like a data row: decorative noise (notes, banners)
		// that sixteen years of vendor-submitted files do contain. A
		// table with no valid rows still fails the mandatory-table check.
		return false, nil
	}
	if len(rest) != 2 {
		return false, fmt.Errorf("result row %q needs ops and power", line)
	}
	ops, err := strconv.ParseFloat(stripSeparators(rest[0]), 64)
	if err != nil {
		return false, fmt.Errorf("bad ssj_ops %q", rest[0])
	}
	watts, err := strconv.ParseFloat(stripSeparators(rest[1]), 64)
	if err != nil {
		return false, fmt.Errorf("bad power %q", rest[1])
	}
	run.Points = append(run.Points, model.LoadPoint{
		TargetLoad: target, ActualOps: ops, AvgPower: watts,
	})
	return false, nil
}
