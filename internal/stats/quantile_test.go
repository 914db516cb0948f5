package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile on empty should be NaN")
	}
	if !math.IsNaN(Quantile([]float64{1}, -0.1)) || !math.IsNaN(Quantile([]float64{1}, 1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	if got := Quantile([]float64{42}, 0.99); got != 42 {
		t.Errorf("Quantile singleton = %v", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := DropNaN(raw)
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va <= vb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestBoxStats(t *testing.T) {
	// 1..9 plus an extreme outlier.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := Box(xs)
	if b.N != 10 || b.Min != 1 || b.Max != 100 {
		t.Fatalf("Box = %+v", b)
	}
	if b.Median != 5.5 {
		t.Errorf("Median = %v", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v", b.Outliers)
	}
	if b.HiWhisk != 9 {
		t.Errorf("HiWhisk = %v, want 9", b.HiWhisk)
	}
	if b.LoWhisk != 1 {
		t.Errorf("LoWhisk = %v, want 1", b.LoWhisk)
	}
}

func TestBoxEmpty(t *testing.T) {
	b := Box(nil)
	if b.N != 0 || !math.IsNaN(b.Median) || !math.IsNaN(b.Q1) {
		t.Fatalf("Box(nil) = %+v", b)
	}
}

func TestBoxOrderInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		xs := DropNaN(raw)
		if len(xs) == 0 {
			return true
		}
		shuffled := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
		a, b := Box(xs), Box(shuffled)
		return a.N == b.N && almostEq(a.Median, b.Median, 1e-9) &&
			almostEq(a.Q1, b.Q1, 1e-9) && almostEq(a.Q3, b.Q3, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoxInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := DropNaN(raw)
		if len(xs) == 0 {
			return true
		}
		b := Box(xs)
		return b.Min <= b.Q1 && b.Q1 <= b.Median &&
			b.Median <= b.Q3 && b.Q3 <= b.Max &&
			b.LoWhisk >= b.Min && b.HiWhisk <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
