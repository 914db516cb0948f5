package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/model"
)

func TestProfileValidate(t *testing.T) {
	good := Profile{IdleFrac: 0.2, LowIntercept: 0.3, Beta: 0.85,
		TurboWeight: 0.3, TurboGamma: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Profile{
		{IdleFrac: -0.1, LowIntercept: 0.3, Beta: 0.8, TurboWeight: 0.3, TurboGamma: 3},
		{IdleFrac: 0.2, LowIntercept: 1.2, Beta: 0.8, TurboWeight: 0.3, TurboGamma: 3},
		{IdleFrac: 0.2, LowIntercept: 0.3, Beta: 0, TurboWeight: 0.3, TurboGamma: 3},
		{IdleFrac: 0.2, LowIntercept: 0.3, Beta: 0.8, TurboWeight: 2, TurboGamma: 3},
		{IdleFrac: 0.2, LowIntercept: 0.3, Beta: 0.8, TurboWeight: 0.3, TurboGamma: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d validated: %+v", i, p)
		}
	}
}

func TestRelEndpoints(t *testing.T) {
	p := Profile{IdleFrac: 0.2, LowIntercept: 0.3, Beta: 0.85,
		TurboWeight: 0.3, TurboGamma: 3}
	if got := p.Rel(1); !almostEq(got, 1, 1e-12) {
		t.Errorf("Rel(1) = %v, want 1", got)
	}
	if got := p.Rel(0); got != 0.2 {
		t.Errorf("Rel(0) = %v, want IdleFrac", got)
	}
	if got := p.RelNoIdleOpt(0); got != 0.3 {
		t.Errorf("RelNoIdleOpt(0) = %v, want LowIntercept", got)
	}
	// Idle optimization means measured idle sits below the curve.
	if p.Rel(0) >= p.RelNoIdleOpt(0) {
		t.Error("measured idle should undercut the load curve")
	}
	// Clamping.
	if p.Rel(1.5) != p.Rel(1) || p.RelNoIdleOpt(-0.5) != p.RelNoIdleOpt(0) {
		t.Error("Rel should clamp u into [0,1]")
	}
}

func TestRelMonotone(t *testing.T) {
	f := func(i8, r8, b8, w8, g8 uint8, u1, u2 float64) bool {
		p := Profile{
			IdleFrac:     0.05 + float64(i8%60)/100, // 0.05–0.64
			LowIntercept: 0.05 + float64(r8%70)/100, // 0.05–0.74
			Beta:         0.5 + float64(b8%50)/100,  // 0.5–0.99
			TurboWeight:  float64(w8%50) / 100,      // 0–0.49
			TurboGamma:   1 + float64(g8%40)/10,     // 1–4.9
		}
		// Monotonicity is claimed on the load curve (u > 0).
		a := 0.01 + 0.99*math.Abs(math.Mod(u1, 1))
		b := 0.01 + 0.99*math.Abs(math.Mod(u2, 1))
		if a > b {
			a, b = b, a
		}
		return p.Rel(a) <= p.Rel(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdleQuotient(t *testing.T) {
	// A perfectly linear curve with no idle optimization has quotient 1.
	linear := Profile{IdleFrac: 0.5, LowIntercept: 0.5, Beta: 1,
		TurboWeight: 0, TurboGamma: 2}
	if got := linear.IdleQuotient(); !almostEq(got, 1, 1e-9) {
		t.Errorf("linear quotient = %v, want 1", got)
	}
	// Strong package C-states: quotient well above 1.
	opt := Profile{IdleFrac: 0.15, LowIntercept: 0.28, Beta: 0.9,
		TurboWeight: 0.3, TurboGamma: 3}
	if got := opt.IdleQuotient(); got < 1.3 {
		t.Errorf("optimized quotient = %v, want > 1.3", got)
	}
	degenerate := Profile{IdleFrac: 0}
	if !math.IsNaN(degenerate.IdleQuotient()) {
		t.Error("zero idle should give NaN quotient")
	}
}

func TestTrendIdleFractionHistory(t *testing.T) {
	// The paper's S5 statistic: ≈0.70 in 2006, minimum near 2017,
	// regression upward by 2024 (Intel-driven).
	i2006 := TrendProfile(model.VendorIntel, 2006.5).IdleFrac
	if i2006 < 0.6 || i2006 > 0.75 {
		t.Errorf("Intel 2006 idle frac = %v, want ≈0.7", i2006)
	}
	i2017 := TrendProfile(model.VendorIntel, 2017.0).IdleFrac
	if i2017 > 0.16 {
		t.Errorf("Intel 2017 idle frac = %v, want ≈0.145", i2017)
	}
	i2024 := TrendProfile(model.VendorIntel, 2024.0).IdleFrac
	if i2024 < i2017+0.08 {
		t.Errorf("Intel idle regression missing: 2017 %v vs 2024 %v", i2017, i2024)
	}
	// AMD keeps improving.
	a2019 := TrendProfile(model.VendorAMD, 2019.0).IdleFrac
	a2024 := TrendProfile(model.VendorAMD, 2024.0).IdleFrac
	if a2024 > a2019 {
		t.Errorf("AMD idle frac should fall: 2019 %v vs 2024 %v", a2019, a2024)
	}
}

func TestTrendRelativeEfficiencyEras(t *testing.T) {
	relEff := func(p Profile, u float64) float64 { return u / p.Rel(u) }

	// Early systems: partial load clearly less efficient.
	early := TrendProfile(model.VendorIntel, 2007.0)
	if r := relEff(early, 0.7); r > 0.85 {
		t.Errorf("2007 rel eff at 70%% = %v, want « 1", r)
	}
	// Intel 2012–2016: above 1 for loads ≥ 70 %.
	for _, u := range []float64{0.7, 0.8, 0.9} {
		p := TrendProfile(model.VendorIntel, 2014.0)
		if r := relEff(p, u); r < 1 {
			t.Errorf("Intel 2014 rel eff at %v%% = %v, want > 1", u*100, r)
		}
	}
	// Intel 2023: regressed back to ≈1 (below the 2014 peak).
	p14 := TrendProfile(model.VendorIntel, 2014.0)
	p23 := TrendProfile(model.VendorIntel, 2023.0)
	if relEff(p23, 0.8) >= relEff(p14, 0.8) {
		t.Error("Intel post-2017 regression toward 1 missing at 80% load")
	}
	// AMD approaches 1 around 2021 from below.
	a18 := TrendProfile(model.VendorAMD, 2018.0)
	a21 := TrendProfile(model.VendorAMD, 2021.5)
	if relEff(a18, 0.7) >= 0.97 {
		t.Errorf("AMD 2018 rel eff at 70%% = %v, want < 0.97", relEff(a18, 0.7))
	}
	if r := relEff(a21, 0.7); r < 0.93 || r > 1.1 {
		t.Errorf("AMD 2021 rel eff at 70%% = %v, want ≈1", r)
	}
}

func TestTrendQuotientHistory(t *testing.T) {
	q2006 := TrendProfile(model.VendorIntel, 2006.0).IdleQuotient()
	if q2006 > 1.15 {
		t.Errorf("2006 quotient = %v, want ≈1", q2006)
	}
	q2017 := TrendProfile(model.VendorIntel, 2017.0).IdleQuotient()
	if q2017 < 1.5 {
		t.Errorf("2017 Intel quotient = %v, want > 1.5", q2017)
	}
	qAMD2023 := TrendProfile(model.VendorAMD, 2023.0).IdleQuotient()
	if qAMD2023 < 1.5 {
		t.Errorf("2023 AMD quotient = %v, want > 1.5", qAMD2023)
	}
}

func TestTrendProfilesValidEverywhere(t *testing.T) {
	for _, v := range []model.CPUVendor{model.VendorIntel, model.VendorAMD, model.VendorOther} {
		for y := 2000.0; y <= 2030.0; y += 0.25 {
			p := TrendProfile(v, y)
			if err := p.Validate(); err != nil {
				t.Fatalf("%v @ %v: %v", v, y, err)
			}
			if p.IdleFrac > p.LowIntercept {
				t.Fatalf("%v @ %v: idle %v above intercept %v (negative optimization)",
					v, y, p.IdleFrac, p.LowIntercept)
			}
		}
	}
}

func TestFullLoadWatts(t *testing.T) {
	early, err := catalog.Find("X5355")
	if err != nil {
		t.Fatal(err)
	}
	late, err := catalog.Find("EPYC 9754")
	if err != nil {
		t.Fatal(err)
	}
	pEarly := FullLoadWatts(early, SystemConfig{Sockets: 2, MemGB: 16, PSUWatts: 650})
	pLate := FullLoadWatts(late, SystemConfig{Sockets: 2, MemGB: 384, PSUWatts: 1100})
	// Per-socket power should land near the paper's trend endpoints
	// (≈119 W early mean, ≈303 W late mean) within loose bounds.
	if ps := pEarly / 2; ps < 80 || ps > 170 {
		t.Errorf("2006 per-socket full power = %v, want ≈120", ps)
	}
	if ps := pLate / 2; ps < 250 || ps > 430 {
		t.Errorf("2023 per-socket full power = %v, want ≈330", ps)
	}
	if pLate < 2*pEarly {
		t.Errorf("late (%v) should be ≥2× early (%v)", pLate, pEarly)
	}
}

func TestSystemConfigValidate(t *testing.T) {
	spec, err := catalog.Find("EPYC 7742")
	if err != nil {
		t.Fatal(err)
	}
	if err := (SystemConfig{Sockets: 2, MemGB: 256, PSUWatts: 1100}).Validate(spec); err != nil {
		t.Errorf("2-socket config: %v", err)
	}
	if err := (SystemConfig{Sockets: 8, MemGB: 64}).Validate(spec); err == nil {
		t.Error("8 sockets should exceed MaxSockets")
	}
	if err := (SystemConfig{Sockets: 1, MemGB: 0}).Validate(spec); err == nil {
		t.Error("0 GB memory should error")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
