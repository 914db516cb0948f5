package power

import (
	"fmt"

	"repro/internal/catalog"
)

// Memory wattage per GB by era: FB-DIMM/DDR2 systems burn far more
// power per GB than DDR4, but dense DDR5 RDIMM configurations crept up
// again.
func memWattsPerGB(hwYear int) float64 {
	switch {
	case hwYear < 2012:
		return 0.50
	case hwYear < 2019:
		return 0.30
	default:
		return 0.25
	}
}

// platformWatts covers fans, drives, NICs and the board; dense modern
// systems (NVMe backplanes, BMCs, 100G NICs, high-static-pressure fans)
// burn considerably more than a 2008 pizza box.
func platformWatts(hwYear int) float64 {
	switch {
	case hwYear < 2012:
		return 35
	case hwYear < 2019:
		return 45
	default:
		return 85
	}
}

const (
	// cpuFullFrac is the fraction of rated TDP a socket draws at the
	// ssj 100 % interval (an integer workload does not saturate TDP the
	// way an AVX power virus does).
	cpuFullFrac = 0.82
	// psuLossFrac is the AC/DC conversion loss at load.
	psuLossFrac = 0.06
)

// SystemConfig describes the configured SUT around the CPUs.
type SystemConfig struct {
	Sockets int
	MemGB   int
	// PSUWatts is the rated PSU output (metadata; oversizing does not
	// change the modelled draw).
	PSUWatts int
}

// Validate reports the first impossible configuration parameter.
func (sc SystemConfig) Validate(spec catalog.CPUSpec) error {
	switch {
	case sc.Sockets < 1:
		return fmt.Errorf("power: %d sockets", sc.Sockets)
	case sc.Sockets > spec.MaxSockets:
		return fmt.Errorf("power: %d sockets exceeds %s max %d",
			sc.Sockets, spec.Name, spec.MaxSockets)
	case sc.MemGB < 1:
		return fmt.Errorf("power: %d GB memory", sc.MemGB)
	}
	return nil
}

// FullLoadWatts estimates the AC power at the 100 % interval for the
// given CPU and configuration.
func FullLoadWatts(spec catalog.CPUSpec, cfg SystemConfig) float64 {
	dc := float64(cfg.Sockets)*spec.TDPWatts*cpuFullFrac +
		float64(cfg.MemGB)*memWattsPerGB(spec.Avail.Year) +
		platformWatts(spec.Avail.Year)
	return dc * (1 + psuLossFrac)
}
