package speccpu

import (
	"fmt"
	"io"

	"repro/internal/catalog"
	"repro/internal/model"
	"repro/internal/power"
)

// DuelSystem describes one side of the Table I comparison.
type DuelSystem struct {
	Label   string
	CPU     catalog.CPUSpec
	Sockets int
	MemGB   int
}

// DuelRow is one benchmark line of Table I: the two systems' results and
// the AMD/Intel factor.
type DuelRow struct {
	Benchmark string
	Intel     float64
	AMD       float64
	Factor    float64 // AMD / Intel
}

// SSJOverall evaluates the analytic SPEC Power model (catalog throughput
// × power trend curve) for one system and returns the overall
// ssj_ops/W score a noise-free run would publish.
func SSJOverall(spec catalog.CPUSpec, sockets, memGB int) (float64, error) {
	cfg := power.SystemConfig{Sockets: sockets, MemGB: memGB}
	if err := cfg.Validate(spec); err != nil {
		return 0, err
	}
	prof := power.TrendProfile(spec.Vendor, spec.Avail.Frac())
	full := power.FullLoadWatts(spec, cfg)
	opsMax := spec.OpsPerCoreGHz * float64(sockets*spec.Cores) * spec.NominalGHz
	var ops, watts float64
	for _, load := range model.StandardLoads() {
		u := float64(load) / 100
		ops += opsMax * u
		watts += full * prof.Rel(u)
	}
	return ops / watts, nil
}

// DefaultDuel returns the paper's Table I pairing: a Lenovo ThinkSystem
// SR650 V3 (2× Xeon Platinum 8490H) against an SR645 V3 (2× EPYC 9754),
// both with 1100 W PSUs.
func DefaultDuel() (intel, amd DuelSystem, err error) {
	xeon, err := catalog.Find("Platinum 8490H")
	if err != nil {
		return intel, amd, err
	}
	epyc, err := catalog.Find("EPYC 9754")
	if err != nil {
		return intel, amd, err
	}
	intel = DuelSystem{Label: "SR650 V3 (Intel Xeon Platinum 8490H)",
		CPU: xeon, Sockets: 2, MemGB: 256}
	amd = DuelSystem{Label: "SR645 V3 (AMD EPYC 9754)",
		CPU: epyc, Sockets: 2, MemGB: 384}
	return intel, amd, nil
}

// Table1 reproduces the paper's Table I: SPEC Power overall score and
// SPEC CPU 2017 FP/Int Rate Base for the two systems, with AMD/Intel
// factors (paper: ×2.09 ssj, ×1.53 fp, ×2.03 int).
func Table1(intelSys, amdSys DuelSystem) ([]DuelRow, error) {
	ssjI, err := SSJOverall(intelSys.CPU, intelSys.Sockets, intelSys.MemGB)
	if err != nil {
		return nil, fmt.Errorf("speccpu: table1 intel ssj: %w", err)
	}
	ssjA, err := SSJOverall(amdSys.CPU, amdSys.Sockets, amdSys.MemGB)
	if err != nil {
		return nil, fmt.Errorf("speccpu: table1 amd ssj: %w", err)
	}
	cpuI, err := Rate(intelSys.CPU, intelSys.Sockets)
	if err != nil {
		return nil, err
	}
	cpuA, err := Rate(amdSys.CPU, amdSys.Sockets)
	if err != nil {
		return nil, err
	}
	rows := []DuelRow{
		{Benchmark: "power_ssj 2008 (overall ssj_ops/W)", Intel: ssjI, AMD: ssjA},
		{Benchmark: "CPU 2017 FP Rate Base", Intel: cpuI.FPRate, AMD: cpuA.FPRate},
		{Benchmark: "CPU 2017 Int Rate Base", Intel: cpuI.IntRate, AMD: cpuA.IntRate},
	}
	for i := range rows {
		rows[i].Factor = rows[i].AMD / rows[i].Intel
	}
	return rows, nil
}

// WriteTable1 renders Table I as terminal text, with the paper's
// factors for comparison.
func WriteTable1(w io.Writer, rows []DuelRow) {
	fmt.Fprintf(w, "%-36s %10s %10s %8s\n", "Benchmark", "Intel", "AMD", "Factor")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %10.0f %10.0f %8.2f\n", r.Benchmark, r.Intel, r.AMD, r.Factor)
	}
	fmt.Fprintf(w, "(paper factors: ssj ×2.09, fp ×1.53, int ×2.03)\n")
}
