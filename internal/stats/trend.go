package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// KendallTau returns Kendall's τ-b rank correlation of the jointly
// finite (x,y) pairs, with tie correction. It errors with fewer than
// two usable pairs or when either side is entirely tied.
//
// It counts pairs with Knight's O(n log n) method: sort the pairs by
// (x, y), count the ties in x and the joint ties from the runs of that
// order, then merge-sort the y column, counting its inversions (the
// discordant pairs) and afterwards its ties. The counts are the exact
// integers a scan over every pair gives, so τ has the same bits.
func KendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: KendallTau length mismatch %d != %d", len(xs), len(ys))
	}
	pts := make([]pair, 0, len(xs))
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			pts = append(pts, pair{xs[i], ys[i]})
		}
	}
	n := len(pts)
	if n < 2 {
		return 0, fmt.Errorf("stats: KendallTau needs ≥2 finite pairs, have %d", n)
	}
	// cmp.Compare holds -0 and +0 equal, as the tie tests do.
	slices.SortFunc(pts, func(a, b pair) int {
		if c := cmp.Compare(a.x, b.x); c != 0 {
			return c
		}
		return cmp.Compare(a.y, b.y)
	})
	col := make([]float64, n)
	for i, p := range pts {
		col[i] = p.y
	}
	tieX := tiedPairs(n, func(i int) bool { return pts[i].x == pts[i-1].x })
	tieXY := tiedPairs(n, func(i int) bool { return pts[i] == pts[i-1] })
	// Within a run of equal x the y column is ascending, so every
	// inversion is a pair strictly apart in both x and y: discordant.
	discordant := mergeInversions(col, make([]float64, n))
	tieY := tiedPairs(n, func(i int) bool { return col[i] == col[i-1] })
	total := n * (n - 1) / 2
	// Pairs tied in neither coordinate are concordant or discordant;
	// joint ties were subtracted twice, once with each tie count.
	concordant := total - tieX - tieY + tieXY - discordant
	denom := math.Sqrt(float64(total-tieX) * float64(total-tieY))
	if denom == 0 {
		return 0, fmt.Errorf("stats: KendallTau degenerate: all ties")
	}
	return float64(concordant-discordant) / denom, nil
}

// pair is one jointly finite (x, y) observation.
type pair struct{ x, y float64 }

// tiedPairs returns the number of pairs inside the runs of a sequence
// of n items, where same(i) reports whether item i equals item i-1.
func tiedPairs(n int, same func(i int) bool) int {
	total, run := 0, 1
	for i := 1; i < n; i++ {
		if same(i) {
			total += run
			run++
		} else {
			run = 1
		}
	}
	return total
}

// mergeInversions sorts xs ascending with a bottom-up merge sort, using
// buf (len(xs)) as scratch, and returns the number of pairs i < j of the
// input with xs[i] > xs[j]. Equal values are not inversions.
func mergeInversions(xs, buf []float64) int {
	inv := 0
	src, dst, inXs := xs, buf, true
	for width := 1; width < len(xs); width *= 2 {
		for lo := 0; lo < len(xs); lo += 2 * width {
			mid := min(lo+width, len(xs))
			hi := min(lo+2*width, len(xs))
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[j] < src[i] {
					// src[j] jumps every value left in the first run.
					inv += mid - i
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst, inXs = dst, src, !inXs
	}
	if !inXs {
		copy(xs, src)
	}
	return inv
}

// TrendDirection classifies a Mann-Kendall result.
type TrendDirection int

// Trend directions.
const (
	TrendNone TrendDirection = iota
	TrendIncreasing
	TrendDecreasing
)

// String names the direction.
func (t TrendDirection) String() string {
	switch t {
	case TrendIncreasing:
		return "increasing"
	case TrendDecreasing:
		return "decreasing"
	default:
		return "no trend"
	}
}

// MKResult is the outcome of the Mann-Kendall trend test.
type MKResult struct {
	S float64 // Mann-Kendall S statistic
	Z float64 // normal-approximation test statistic
	P float64 // two-sided p-value
	// Direction at the given significance level.
	Direction TrendDirection
	N         int
}

// MannKendall tests ys (ordered by time) for a monotonic trend using
// the Mann-Kendall test with tie-corrected variance and the usual
// continuity correction. alpha is the two-sided significance level
// (e.g. 0.05).
func MannKendall(ys []float64, alpha float64) (MKResult, error) {
	clean := DropNaN(ys)
	n := len(clean)
	if n < 3 {
		return MKResult{}, fmt.Errorf("stats: MannKendall needs ≥3 points, have %d", n)
	}
	if !(alpha > 0 && alpha < 1) {
		return MKResult{}, fmt.Errorf("stats: MannKendall alpha %v outside (0,1)", alpha)
	}
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case clean[j] > clean[i]:
				s++
			case clean[j] < clean[i]:
				s--
			}
		}
	}
	// Tie-corrected variance.
	variance := float64(n*(n-1)*(2*n+5)) / 18
	for _, t := range tieGroupSizes(clean) {
		variance -= float64(t*(t-1)*(2*t+5)) / 18
	}
	res := MKResult{S: s, N: n}
	if variance <= 0 {
		// All values tied: no trend by definition.
		res.P = 1
		return res, nil
	}
	sd := math.Sqrt(variance)
	switch {
	case s > 0:
		res.Z = (s - 1) / sd
	case s < 0:
		res.Z = (s + 1) / sd
	}
	res.P = math.Erfc(math.Abs(res.Z) / math.Sqrt2) // two-sided
	if res.P <= alpha {
		if res.Z > 0 {
			res.Direction = TrendIncreasing
		} else if res.Z < 0 {
			res.Direction = TrendDecreasing
		}
	}
	return res, nil
}

// tieGroupSizes returns the sizes of groups of equal values (size ≥ 2).
func tieGroupSizes(xs []float64) []int {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []int
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if j-i >= 2 {
			out = append(out, j-i)
		}
		i = j
	}
	return out
}

// SenSlope returns the Theil–Sen estimator: the median of all pairwise
// slopes of the jointly finite (x,y) pairs — a robust trend slope.
// Pairs with equal x have no slope. A slope that is not finite, because
// a difference overflowed, is left out of the median; the result is NaN
// when no finite slope remains.
func SenSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: SenSlope length mismatch %d != %d", len(xs), len(ys))
	}
	var fx, fy []float64
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
		}
	}
	n := len(fx)
	if n < 2 {
		return 0, fmt.Errorf("stats: SenSlope needs ≥2 finite pairs, have %d", n)
	}
	if !slices.ContainsFunc(fx, func(x float64) bool { return x != fx[0] }) {
		return 0, fmt.Errorf("stats: SenSlope degenerate: all x equal")
	}
	// One buffer holds every slope; the median is selected in place.
	slopes := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if fx[j] == fx[i] {
				continue
			}
			if s := (fy[j] - fy[i]) / (fx[j] - fx[i]); finite(s) {
				slopes = append(slopes, s)
			}
		}
	}
	if len(slopes) == 0 {
		return math.NaN(), nil
	}
	return quantileSelect(slopes, 0.5), nil
}
