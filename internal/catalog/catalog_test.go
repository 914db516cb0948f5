package catalog

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func TestCatalogWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" {
			t.Fatal("entry with empty name")
		}
		if seen[s.Name] {
			t.Errorf("duplicate entry %q", s.Name)
		}
		seen[s.Name] = true
		if !s.Avail.Valid() {
			t.Errorf("%s: invalid availability date", s.Name)
		}
		if s.Cores <= 0 || s.ThreadsPerCore <= 0 || s.MaxSockets <= 0 {
			t.Errorf("%s: bad topology %d/%d/%d", s.Name, s.Cores, s.ThreadsPerCore, s.MaxSockets)
		}
		if s.NominalGHz <= 0.5 || s.NominalGHz > 5 {
			t.Errorf("%s: implausible clock %v", s.Name, s.NominalGHz)
		}
		if s.TDPWatts < 20 || s.TDPWatts > 600 {
			t.Errorf("%s: implausible TDP %v", s.Name, s.TDPWatts)
		}
		if s.OpsPerCoreGHz <= 0 || s.FPRatio <= 0 {
			t.Errorf("%s: missing characterization", s.Name)
		}
		switch s.VectorBits {
		case 128, 256, 512:
		default:
			t.Errorf("%s: bad vector width %d", s.Name, s.VectorBits)
		}
	}
	if len(seen) < 40 {
		t.Errorf("catalog has only %d entries", len(seen))
	}
}

func TestClassificationConsistency(t *testing.T) {
	for _, s := range specs {
		// The model's name-based classifiers must agree with the tags,
		// since parsed result files rely on name classification.
		if got := model.ParseCPUVendor(s.Name); got != s.Vendor {
			t.Errorf("%s: ParseCPUVendor = %v, tag %v", s.Name, got, s.Vendor)
		}
		if s.Vendor == model.VendorIntel || s.Vendor == model.VendorAMD {
			if got := model.ClassifyCPU(s.Name); got != s.Class {
				t.Errorf("%s: ClassifyCPU = %v, tag %v", s.Name, got, s.Class)
			}
		}
	}
}

func TestOpsPerCoreGHzProgression(t *testing.T) {
	// Within each vendor's server line, per-core throughput must broadly
	// rise over time: the last generation beats the first by ≥4×.
	for _, v := range []model.CPUVendor{model.VendorIntel, model.VendorAMD} {
		parts := ByVendor(v)
		if len(parts) < 5 {
			t.Fatalf("%v: only %d server parts", v, len(parts))
		}
		first, last := parts[0], parts[0]
		for _, s := range parts {
			if s.Avail.Before(first.Avail) {
				first = s
			}
			if s.Avail.After(last.Avail) {
				last = s
			}
		}
		if last.OpsPerCoreGHz < 4*first.OpsPerCoreGHz {
			t.Errorf("%v: per-core ops grew only %.1f× (%s → %s)",
				v, last.OpsPerCoreGHz/first.OpsPerCoreGHz, first.Name, last.Name)
		}
	}
}

func TestTDPGrowth(t *testing.T) {
	// The paper's Figure 2 premise: top-end TDP grows strongly.
	maxEarly, maxLate := 0.0, 0.0
	for _, s := range ServerParts() {
		if s.Avail.Year <= 2010 && s.TDPWatts > maxEarly {
			maxEarly = s.TDPWatts
		}
		if s.Avail.Year >= 2022 && s.TDPWatts > maxLate {
			maxLate = s.TDPWatts
		}
	}
	if maxLate < 2*maxEarly {
		t.Errorf("late TDP %v not ≥2× early TDP %v", maxLate, maxEarly)
	}
}

func TestFind(t *testing.T) {
	s, err := Find("EPYC 9754")
	if err != nil {
		t.Fatal(err)
	}
	if s.Cores != 128 || s.Vendor != model.VendorAMD {
		t.Errorf("unexpected spec %+v", s)
	}
	if _, err := Find("EPYC"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous Find should error, got %v", err)
	}
	if _, err := Find("Itanium"); err == nil {
		t.Error("unknown Find should error")
	}
}

func TestVendorQueries(t *testing.T) {
	for _, s := range ByVendor(model.VendorAMD) {
		if s.Vendor != model.VendorAMD || !s.Class.IsServerClass() {
			t.Errorf("ByVendor(AMD) returned %s", s.Name)
		}
	}
	win := AvailableWithin(model.VendorAMD, model.YM(2017, 1), model.YM(2019, 12))
	if len(win) == 0 {
		t.Fatal("no AMD parts 2017–2019; EPYC launch missing")
	}
	for _, s := range win {
		if s.Avail.Year < 2017 || s.Avail.Year > 2019 {
			t.Errorf("AvailableWithin leaked %s (%s)", s.Name, s.Avail)
		}
	}
	for _, s := range NonServerParts() {
		isServer := s.Class.IsServerClass() &&
			(s.Vendor == model.VendorIntel || s.Vendor == model.VendorAMD)
		if isServer {
			t.Errorf("NonServerParts returned server part %s", s.Name)
		}
	}
}

func TestEPYCEraCoreAdvantage(t *testing.T) {
	// Paper (since 2021): AMD mean cores 85.8 vs Intel 39.5. The catalog
	// must make such a fleet constructible: AMD's ≥2021 parts out-core
	// Intel's on average by at least 1.5×.
	meanCores := func(v model.CPUVendor) float64 {
		sum, n := 0.0, 0
		for _, s := range ByVendor(v) {
			if s.Avail.Year >= 2021 {
				sum += float64(s.Cores)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	amd, intl := meanCores(model.VendorAMD), meanCores(model.VendorIntel)
	if amd < 1.5*intl {
		t.Errorf("≥2021 mean cores: AMD %.1f vs Intel %.1f, want ≥1.5×", amd, intl)
	}
}
