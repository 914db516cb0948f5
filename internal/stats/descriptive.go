package stats

import "math"

// DropNaN returns xs without NaN or ±Inf entries. The input is not
// modified; the result may share no memory with it.
func DropNaN(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// Sum returns the sum of the finite entries of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		s += x
	}
	return s
}

// Count returns the number of finite entries of xs.
func Count(xs []float64) int {
	n := 0
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			n++
		}
	}
	return n
}

// Mean returns the arithmetic mean of the finite entries of xs, or NaN
// if there are none.
func Mean(xs []float64) float64 {
	n := Count(xs)
	if n == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(n)
}

// Variance returns the sample variance (n−1 denominator) of the finite
// entries, or NaN with fewer than two of them. It uses a two-pass
// algorithm for numerical stability.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	var ss float64
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		d := x - m
		ss += d * d
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of the finite entries.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}
