package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKendallTauPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	up := []float64{10, 20, 30, 40, 50}
	down := []float64{5, 4, 3, 2, 1}
	if tau, err := KendallTau(xs, up); err != nil || !almostEq(tau, 1, 1e-12) {
		t.Errorf("tau up = %v (%v)", tau, err)
	}
	if tau, err := KendallTau(xs, down); err != nil || !almostEq(tau, -1, 1e-12) {
		t.Errorf("tau down = %v (%v)", tau, err)
	}
}

func TestKendallTauTies(t *testing.T) {
	// Ties reduce |τ| but the sign holds.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{1, 1, 2, 2, 3, 3}
	tau, err := KendallTau(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0.8 {
		t.Errorf("tau with ties = %v, want strongly positive", tau)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := KendallTau([]float64{1, 1, 1}, []float64{1, 1, 1}); err == nil {
		t.Error("all-tied should error")
	}
	if _, err := KendallTau([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("no finite pairs should error")
	}
}

func TestKendallTauBounded(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 3 {
			return true
		}
		var xs, ys []float64
		for _, p := range pairs {
			xs = append(xs, math.Mod(p[0], 100))
			ys = append(ys, math.Mod(p[1], 100))
		}
		tau, err := KendallTau(xs, ys)
		if err != nil {
			return true
		}
		return tau >= -1-1e-9 && tau <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMannKendallTrends(t *testing.T) {
	up := make([]float64, 30)
	down := make([]float64, 30)
	rng := rand.New(rand.NewSource(5))
	for i := range up {
		up[i] = float64(i) + 0.5*rng.NormFloat64()
		down[i] = -float64(i) + 0.5*rng.NormFloat64()
	}
	r, err := MannKendall(up, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction != TrendIncreasing {
		t.Errorf("up: %+v", r)
	}
	r, err = MannKendall(down, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction != TrendDecreasing {
		t.Errorf("down: %+v", r)
	}
	// White noise: no trend at 5 %.
	noise := make([]float64, 40)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	r, err = MannKendall(noise, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction != TrendNone {
		t.Errorf("noise classified as %v (p=%v)", r.Direction, r.P)
	}
}

func TestMannKendallAllTied(t *testing.T) {
	r, err := MannKendall([]float64{3, 3, 3, 3}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r.Direction != TrendNone || r.P != 1 {
		t.Errorf("all tied: %+v", r)
	}
}

func TestMannKendallErrors(t *testing.T) {
	if _, err := MannKendall([]float64{1, 2}, 0.05); err == nil {
		t.Error("too few points should error")
	}
	if _, err := MannKendall([]float64{1, 2, 3}, 1.5); err == nil {
		t.Error("bad alpha should error")
	}
}

func TestMannKendallPValueRange(t *testing.T) {
	f := func(raw []float64) bool {
		xs := boundTo(raw, 1e4)
		r, err := MannKendall(xs, 0.05)
		if err != nil {
			return true
		}
		return r.P >= 0 && r.P <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSenSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{7, 9, 11, 13, 15}
	s, err := SenSlope(xs, ys)
	if err != nil || !almostEq(s, 2, 1e-12) {
		t.Errorf("slope = %v (%v)", s, err)
	}
	// Robustness: one wild outlier barely moves the estimate.
	ys[2] = 1000
	s, err = SenSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1.5 || s > 3 {
		t.Errorf("outlier destroyed Sen slope: %v", s)
	}
	// Compare: OLS is dragged far away.
	if ols := olsSlope(xs, ys); math.Abs(ols-2) < math.Abs(s-2) {
		t.Errorf("OLS (%v) should be worse than Sen (%v) here", ols, s)
	}
}

// olsSlope is the ordinary-least-squares slope of (xs, ys).
func olsSlope(xs, ys []float64) float64 {
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	return sxy / sxx
}

func TestSenSlopeErrors(t *testing.T) {
	if _, err := SenSlope([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := SenSlope([]float64{2, 2}, []float64{1, 2}); err == nil {
		t.Error("vertical should error")
	}
}
