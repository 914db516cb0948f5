package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the finite entries
// of xs using linear interpolation between order statistics (the same
// "linear" method as numpy's default). It returns NaN on empty input or
// q outside [0,1].
//
// It selects the one or two order statistics it needs from a copy of
// the finite entries instead of sorting them: O(n) expected, and
// O(n log n) at worst, because a selection that partitions too deep
// sorts its remaining window (see introselect). The result's bits are
// those of interpolating the sorted data, except that the sign of a
// zero result is unspecified: -0 and +0 are equal order statistics, and
// neither selection nor the unstable sort it replaces orders them.
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	clean := DropNaN(xs)
	if len(clean) == 0 {
		return math.NaN()
	}
	return quantileSelect(clean, q)
}

// quantilePos locates the q-quantile of n sorted values: it interpolates
// between order statistics lo and hi (equal when pos is whole) by frac.
func quantilePos(n int, q float64) (lo, hi int, frac float64) {
	pos := q * float64(n-1)
	lo = int(math.Floor(pos))
	hi = int(math.Ceil(pos))
	return lo, hi, pos - float64(lo)
}

// quantileSorted computes the interpolated quantile of an already sorted,
// NaN-free, non-empty slice.
func quantileSorted(sorted []float64, q float64) float64 {
	lo, hi, frac := quantilePos(len(sorted), q)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// quantileSelect is quantileSorted over xs as if sorted, for a finite,
// non-empty xs, which it permutes in place.
func quantileSelect(xs []float64, q float64) float64 {
	lo, hi, frac := quantilePos(len(xs), q)
	return selectInterp(xs, lo, hi, frac)
}

// selectInterp interpolates between order statistics lo and hi (hi is
// lo or lo+1) of the finite xs by frac, as quantileSorted does between
// sorted[lo] and sorted[hi]. It permutes xs in place.
func selectInterp(xs []float64, lo, hi int, frac float64) float64 {
	introselect(xs, lo, 2*bits.Len(uint(len(xs))))
	if lo == hi {
		return xs[lo]
	}
	// Order statistic hi = lo+1 is the least of the values selection
	// left above position lo.
	next := xs[hi]
	for _, x := range xs[hi+1:] {
		if x < next {
			next = x
		}
	}
	return xs[lo]*(1-frac) + next*frac
}

// selectWindow is the window size at which introselect stops
// partitioning and sorts what is left.
const selectWindow = 12

// introselect permutes the NaN-free xs so that xs[k] holds the value a
// sort would put there, with nothing greater before it and nothing less
// after it. It runs Hoare partitions around a median-of-three pivot,
// narrowing to the side that holds k, and sorts the window once it is
// small. After depth partitions it sorts the window whatever its size,
// which bounds an adversarial input (one that keeps the pivot near an
// end of the window) at O(n log n). It reports whether that depth limit
// was reached.
func introselect(xs []float64, k, depth int) (fellBack bool) {
	lo, hi := 0, len(xs)
	for ; hi-lo > selectWindow; depth-- {
		if depth == 0 {
			slices.Sort(xs[lo:hi])
			return true
		}
		// Order the three samples in place: xs[lo] ≤ p ≤ xs[hi-1]
		// stop both scans below inside the window, and the pivot is a
		// value in it, so neither side comes out empty.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi-1] < xs[mid] {
			xs[hi-1], xs[mid] = xs[mid], xs[hi-1]
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
		}
		p := xs[mid]
		i, j := lo-1, hi
		for {
			for i++; xs[i] < p; i++ {
			}
			for j--; xs[j] > p; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		// Now xs[lo:j+1] ≤ p ≤ xs[j+1:hi].
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	slices.Sort(xs[lo:hi])
	return false
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// BoxStats is the five-number summary plus Tukey whiskers used by the
// Figure 4 box plots.
type BoxStats struct {
	N        int
	Min      float64 // smallest finite observation
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64   // largest finite observation
	LoWhisk  float64   // smallest observation ≥ Q1 − 1.5·IQR
	HiWhisk  float64   // largest observation ≤ Q3 + 1.5·IQR
	Outliers []float64 // observations beyond the whiskers, ascending
}

// Box computes BoxStats over the finite entries of xs. On empty input
// every field is NaN and N is zero.
func Box(xs []float64) BoxStats {
	clean := DropNaN(xs)
	if len(clean) == 0 {
		nan := math.NaN()
		return BoxStats{Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan,
			LoWhisk: nan, HiWhisk: nan}
	}
	sorted := append([]float64(nil), clean...)
	sort.Float64s(sorted)
	b := BoxStats{
		N:      len(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.LoWhisk = b.Max
	b.HiWhisk = b.Min
	for _, x := range sorted {
		if x >= loFence && x < b.LoWhisk {
			b.LoWhisk = x
		}
		if x <= hiFence && x > b.HiWhisk {
			b.HiWhisk = x
		}
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
		}
	}
	return b
}
