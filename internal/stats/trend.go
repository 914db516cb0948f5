package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
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
//
// It does not store the n(n−1)/2 slopes when it need not. The order
// statistics of a fixed-seed sample of pair slopes bracket the median
// in [a, b]; one branch-free pass over the pairs counts the slopes
// below a and keeps only those in [a, b], and the finite slopes are
// counted from the pairs with equal x, found by one sort. When both
// order statistics the median interpolates lie in the bracket, they
// are selected from the kept slopes, which gives the bits a selection
// over every slope gives. When they do not, when a slope could
// overflow, or when there are too few pairs to sample, the median is
// selected from a buffer of every slope.
func SenSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: SenSlope length mismatch %d != %d", len(xs), len(ys))
	}
	// The jointly finite pairs; xs and ys themselves when all are.
	fx, fy := xs, ys
	notFinite := func(x float64) bool { return !finite(x) }
	if slices.ContainsFunc(xs, notFinite) || slices.ContainsFunc(ys, notFinite) {
		fx, fy = nil, nil
		for i := range xs {
			if finite(xs[i]) && finite(ys[i]) {
				fx = append(fx, xs[i])
				fy = append(fy, ys[i])
			}
		}
	}
	n := len(fx)
	if n < 2 {
		return 0, fmt.Errorf("stats: SenSlope needs ≥2 finite pairs, have %d", n)
	}
	if !slices.ContainsFunc(fx, func(x float64) bool { return x != fx[0] }) {
		return 0, fmt.Errorf("stats: SenSlope degenerate: all x equal")
	}
	if n*(n-1)/2 >= senSampleMinPairs {
		if a, b, share, ok := senBracket(fx, fy); ok {
			if s, ok := bracketedSenSlope(fx, fy, a, b, share); ok {
				return s, nil
			}
		}
	}
	return allPairsSenSlope(fx, fy), nil
}

// Sampling the Theil–Sen bracket: senSample pair slopes are drawn from
// a PCG seeded with senSeed, and the bracket spans senBracketWidth
// standard deviations of the median's rank in the sample either side
// of it (the rank of a sample of m is binomial, sd √m/2), so a miss is
// a four-sigma event. Below senSampleMinPairs pairs the full buffer is
// as cheap as the sample.
const (
	senSample         = 8192
	senSeed           = 0x5e11
	senBracketWidth   = 4
	senSampleMinPairs = 4 * senSample
)

// senBracket draws the fixed sample of pair slopes and returns the
// order statistics of its finite slopes that bracket their median, and
// the share of the sample that lies between them. ok is false when too
// few sampled slopes are finite to place a bracket.
func senBracket(fx, fy []float64) (a, b, share float64, ok bool) {
	n := len(fx)
	rng := rand.New(rand.NewPCG(senSeed, senSeed))
	sample := make([]float64, 0, senSample)
	for range senSample {
		// A pair i ≠ j, its indices scaled from the halves of one
		// random word. Both negated differences give the same
		// quotient, so the order of i and j does not matter.
		r := rng.Uint64()
		i, j := int((r>>32)*uint64(n)>>32), int((r&math.MaxUint32)*uint64(n-1)>>32)
		j += b2i(j >= i)
		if s := (fy[j] - fy[i]) / (fx[j] - fx[i]); finite(s) {
			sample = append(sample, s)
		}
	}
	m := len(sample)
	if m < senSample/8 {
		return 0, 0, 0, false
	}
	mid, half := float64(m-1)/2, senBracketWidth*math.Sqrt(float64(m))/2
	lo := max(0, int(math.Floor(mid-half)))
	hi := min(m-1, int(math.Ceil(mid+half)))
	depth := 2 * bits.Len(uint(m))
	introselect(sample, lo, depth)
	introselect(sample[lo:], hi-lo, depth)
	return sample[lo], sample[hi], float64(hi-lo+1) / senSample, true
}

// bracketedSenSlope returns the median of the finite pair slopes
// selected from those in [a, b] alone; ok is false when a slope could
// overflow, or an order statistic the median needs lies outside the
// bracket. share, the expected fraction of pairs in the bracket, sizes
// the buffer the kept slopes start in.
//
// The pass over the pairs tests no slope for finiteness. senTies finds
// that no slope overflows and counts the pairs with equal x, whose zero
// x difference makes the only infinite or NaN slopes, so the finite
// count is the pair count less those; the −∞ among them fall below a
// and are taken back out of that count.
func bracketedSenSlope(fx, fy []float64, a, b, share float64) (float64, bool) {
	ties, negInf, bounded := senTies(fx, fy)
	if !bounded {
		return 0, false
	}
	n := len(fx)
	m, below := n*(n-1)/2-ties, -negInf
	inside := make([]float64, 0, int(share*float64(n*(n-1)/2)*1.1)+n)
	for i := 0; i < n-1; i++ {
		inside = slices.Grow(inside, n-1-i)
		lt, kept := senRow(fx[i+1:], fy[i+1:], fx[i], fy[i], a, b, inside[len(inside):len(inside)+n-1-i])
		below += lt
		inside = inside[:len(inside)+kept]
	}
	lo, hi, frac := quantilePos(m, 0.5)
	if below > lo || hi >= below+len(inside) {
		return 0, false
	}
	return selectInterp(inside, lo-below, hi-below, frac), true
}

// senRow scans the slopes from (xi, yi) to each point of rx, ry with
// no branch per pair: below counts those under a, and the first kept
// slots of row receive those in [a, b]. Every slope is written to the
// next free slot, and the slot is kept by advancing kept only when the
// slope is at most b and not under a. NaN is neither; −∞ is both, so it
// adds to below alone.
func senRow(rx, ry []float64, xi, yi, a, b float64, row []float64) (below, kept int) {
	ry = ry[:len(rx)]
	row = row[:len(rx)]
	for j, x := range rx {
		s := (ry[j] - yi) / (x - xi)
		lt := b2i(s < a)
		below += lt
		row[kept] = s
		kept += b2i(s <= b) - lt
	}
	return below, kept
}

// senTies counts the pairs of fx, fy with equal x, and among them the
// negInf whose slope is −∞; their zero x difference makes every one's
// slope infinite or NaN. bounded reports that every other slope is
// finite: the y range over the least gap between distinct x is, and
// rounding is monotone, so no quotient of a smaller y difference by a
// larger x difference exceeds it.
func senTies(fx, fy []float64) (ties, negInf int, bounded bool) {
	// Ties keep the pairs' order, so each slope's sign is the one the
	// pass computes.
	idx := make([]int32, len(fx))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(p, q int32) int {
		return cmp.Or(cmp.Compare(fx[p], fx[q]), cmp.Compare(p, q))
	})
	gap := math.Inf(1)
	for lo := 0; lo < len(idx); {
		x := fx[idx[lo]]
		hi := lo + 1
		for hi < len(idx) && fx[idx[hi]] == x {
			hi++
		}
		for a := lo; a < hi; a++ {
			for _, j := range idx[a+1 : hi] {
				i := idx[a]
				ties++
				negInf += b2i(math.IsInf((fy[j]-fy[i])/(fx[j]-fx[i]), -1))
			}
		}
		if hi < len(idx) {
			gap = min(gap, fx[idx[hi]]-x)
		}
		lo = hi
	}
	return ties, negInf, finite((slices.Max(fy) - slices.Min(fy)) / gap)
}

// allPairsSenSlope selects the median from one buffer of every finite
// pair slope.
func allPairsSenSlope(fx, fy []float64) float64 {
	n := len(fx)
	slopes := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s := (fy[j] - fy[i]) / (fx[j] - fx[i]); finite(s) {
				slopes = append(slopes, s)
			}
		}
	}
	if len(slopes) == 0 {
		return math.NaN()
	}
	return quantileSelect(slopes, 0.5)
}

// b2i is 1 for true and 0 for false, which the compiler lowers to a
// flag set with no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
