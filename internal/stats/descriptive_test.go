package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasics(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); !math.IsNaN(got) {
		t.Errorf("Mean(nil) = %v, want NaN", got)
	}
	if got := Mean([]float64{math.NaN(), 2, 4, math.Inf(1)}); got != 3 {
		t.Errorf("Mean skipping non-finite = %v, want 3", got)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance of this classic example is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if got := Variance([]float64{5}); !math.IsNaN(got) {
		t.Errorf("Variance of single value = %v, want NaN", got)
	}
}

func TestMeanWithinBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := boundTo(raw, 1e6)
		clean := DropNaN(xs)
		if len(clean) == 0 {
			return math.IsNaN(Mean(xs))
		}
		m := Mean(xs)
		return m >= slices.Min(clean)-1e-9 && m <= slices.Max(clean)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		v := Variance(boundTo(raw, 1e6))
		return math.IsNaN(v) || v >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// boundTo maps arbitrary quick-generated floats into [-limit, limit] so
// property tests exercise the statistics rather than float64 overflow.
// NaN/Inf entries pass through so NaN-handling is still covered.
func boundTo(raw []float64, limit float64) []float64 {
	out := make([]float64, len(raw))
	for i, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out[i] = x
			continue
		}
		out[i] = math.Mod(x, limit)
	}
	return out
}

func TestDropNaNPreservesOrder(t *testing.T) {
	xs := []float64{5, math.NaN(), 3, math.Inf(1), 1}
	got := DropNaN(xs)
	want := []float64{5, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSumCount(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 3}
	if Sum(xs) != 6 {
		t.Errorf("Sum = %v", Sum(xs))
	}
	if Count(xs) != 3 {
		t.Errorf("Count = %v", Count(xs))
	}
}
