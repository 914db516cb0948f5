package speccpu

import (
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/model"
)

func TestRateValidation(t *testing.T) {
	spec, err := catalog.Find("EPYC 9754")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rate(spec, 0); err == nil {
		t.Error("0 sockets should error")
	}
	if _, err := Rate(spec, 5); err == nil {
		t.Error("sockets above max should error")
	}
}

func TestRateScalesWithSockets(t *testing.T) {
	spec, err := catalog.Find("EPYC 9554")
	if err != nil {
		t.Fatal(err)
	}
	one, err := Rate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Rate(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(two.IntRate-2*one.IntRate) > 1e-9 {
		t.Errorf("rate should double with sockets: %v vs %v", one.IntRate, two.IntRate)
	}
}

func TestRateProgression(t *testing.T) {
	// Per-core rate factors rise over time for both vendors.
	early, err := catalog.Find("X5570")
	if err != nil {
		t.Fatal(err)
	}
	late, err := catalog.Find("Platinum 8490H")
	if err != nil {
		t.Fatal(err)
	}
	if rateFactor(late) < 2*rateFactor(early) {
		t.Errorf("rate factor barely grew: %v → %v", rateFactor(early), rateFactor(late))
	}
}

func TestTable1Factors(t *testing.T) {
	intelSys, amdSys, err := DefaultDuel()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table1(intelSys, amdSys)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]DuelRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	ssj := byName["power_ssj 2008 (overall ssj_ops/W)"]
	fp := byName["CPU 2017 FP Rate Base"]
	integer := byName["CPU 2017 Int Rate Base"]

	// Paper factors: ×2.09 ssj, ×1.53 fp, ×2.03 int.
	if math.Abs(ssj.Factor-2.09) > 0.25 {
		t.Errorf("ssj factor = %.2f, paper 2.09", ssj.Factor)
	}
	if math.Abs(integer.Factor-2.03) > 0.2 {
		t.Errorf("int factor = %.2f, paper 2.03", integer.Factor)
	}
	if math.Abs(fp.Factor-1.53) > 0.2 {
		t.Errorf("fp factor = %.2f, paper 1.53", fp.Factor)
	}
	// The structural finding: fp advantage < int advantage ≈ ssj advantage.
	if !(fp.Factor < integer.Factor) {
		t.Error("fp factor should be compressed below int factor")
	}
	if math.Abs(integer.Factor-ssj.Factor) > 0.3 {
		t.Errorf("int (%.2f) and ssj (%.2f) factors should be similar",
			integer.Factor, ssj.Factor)
	}
	// Absolute ballparks (model is calibrated near published numbers).
	if ssj.Intel < 10000 || ssj.Intel > 22000 {
		t.Errorf("Intel ssj overall = %.0f, paper 15112", ssj.Intel)
	}
	if ssj.AMD < 25000 || ssj.AMD > 42000 {
		t.Errorf("AMD ssj overall = %.0f, paper 31634", ssj.AMD)
	}
	if integer.Intel < 700 || integer.Intel > 1100 {
		t.Errorf("Intel int rate = %.0f, paper 902", integer.Intel)
	}
	if integer.AMD < 1500 || integer.AMD > 2200 {
		t.Errorf("AMD int rate = %.0f, paper 1830", integer.AMD)
	}
}

func TestSSJOverallValidation(t *testing.T) {
	spec, err := catalog.Find("EPYC 9754")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SSJOverall(spec, 9, 64); err == nil {
		t.Error("invalid sockets should error")
	}
	v, err := SSJOverall(spec, 2, 384)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Errorf("overall = %v", v)
	}
}

func TestRateVendorTables(t *testing.T) {
	// The factor function covers all vendors without panicking, clamped
	// outside anchors.
	for _, spec := range append(catalog.ServerParts(), catalog.NonServerParts()...) {
		f := rateFactor(spec)
		if f <= 0 || f > 10 {
			t.Errorf("%s: rate factor %v", spec.Name, f)
		}
	}
	_ = model.VendorOther
}
