package stats

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson product-moment correlation of the finite
// (x,y) pairs. It returns an error on length mismatch, fewer than two
// usable pairs, or zero variance on either side.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Pearson length mismatch %d != %d", len(xs), len(ys))
	}
	var sx, sy float64
	n := 0
	for i := range xs {
		if !finite(xs[i]) || !finite(ys[i]) {
			continue
		}
		sx += xs[i]
		sy += ys[i]
		n++
	}
	if n < 2 {
		return 0, fmt.Errorf("stats: Pearson needs ≥2 finite pairs, have %d", n)
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, syy, sxy float64
	for i := range xs {
		if !finite(xs[i]) || !finite(ys[i]) {
			continue
		}
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, fmt.Errorf("stats: Pearson degenerate: zero variance")
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp tiny floating-point excursions outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, nil
}

// CorrMatrix computes the pairwise Pearson correlation matrix of the
// given named columns. The result is symmetric with a unit diagonal. A
// pair that cannot be correlated (fewer than two finite pairs, or a
// column without variance) is an error naming both columns.
func CorrMatrix(cols map[string][]float64, names []string) ([][]float64, error) {
	n := len(names)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r, err := Pearson(cols[names[i]], cols[names[j]])
			if err != nil {
				return nil, fmt.Errorf("stats: correlation of %s and %s: %w", names[i], names[j], err)
			}
			m[i][j] = r
			m[j][i] = r
		}
	}
	return m, nil
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
