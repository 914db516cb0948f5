package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The reference implementations below are the sort-based Quantile and
// SenSlope and the all-pairs KendallTau that the selection-based and
// O(n log n) versions replaced. The tests hold the new code to their
// bits.

// sortQuantile is Quantile computed by sorting a copy of the finite
// entries.
func sortQuantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := DropNaN(xs)
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// sortSenSlope is SenSlope collecting every pairwise slope and taking
// the sort-based median of the finite ones.
func sortSenSlope(xs, ys []float64) (float64, error) {
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
	if len(fx) < 2 {
		return 0, fmt.Errorf("stats: SenSlope needs ≥2 finite pairs, have %d", len(fx))
	}
	var slopes []float64
	for i := 0; i < len(fx); i++ {
		for j := i + 1; j < len(fx); j++ {
			if fx[j] == fx[i] {
				continue
			}
			slopes = append(slopes, (fy[j]-fy[i])/(fx[j]-fx[i]))
		}
	}
	if len(slopes) == 0 {
		return 0, fmt.Errorf("stats: SenSlope degenerate: all x equal")
	}
	return sortQuantile(slopes, 0.5), nil
}

// pairKendallTau is KendallTau classifying every pair in turn. A pair
// apart in both coordinates is concordant when its differences have
// the same sign. The all-pairs scan this replaced tested dx*dy > 0
// instead, which differs only where that product underflows to zero:
// it then counted the pair as discordant whatever the signs (see
// TestKendallTauProductUnderflow).
func pairKendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: KendallTau length mismatch %d != %d", len(xs), len(ys))
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
		return 0, fmt.Errorf("stats: KendallTau needs ≥2 finite pairs, have %d", n)
	}
	var concordant, discordant, tieX, tieY float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := fx[i] - fx[j]
			dy := fy[i] - fy[j]
			switch {
			case dx == 0 && dy == 0:
				tieX++
				tieY++
			case dx == 0:
				tieX++
			case dy == 0:
				tieY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	total := float64(n*(n-1)) / 2
	denom := math.Sqrt((total - tieX) * (total - tieY))
	if denom == 0 {
		return 0, fmt.Errorf("stats: KendallTau degenerate: all ties")
	}
	return (concordant - discordant) / denom, nil
}

// sameFloat reports whether a and b have the same bits, counting -0
// and +0 as the same: neither an unstable sort nor a selection orders
// equal zeros, so the sign of a zero result is unspecified.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// sameResult compares a result and its error with the reference's.
func sameResult(got float64, gotErr error, want float64, wantErr error) bool {
	if (gotErr != nil) != (wantErr != nil) {
		return false
	}
	if gotErr != nil {
		return gotErr.Error() == wantErr.Error()
	}
	return sameFloat(got, want)
}

// randomSample draws n values from a mix that favours ties, duplicates,
// signed zeros, infinities, NaN, extremes that overflow a difference
// and subnormals whose differences underflow.
func randomSample(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, -1e-300}
	xs := make([]float64, n)
	for i := range xs {
		switch r := rng.Intn(10); {
		case r == 0:
			xs[i] = special[rng.Intn(len(special))]
		case r < 5:
			xs[i] = float64(rng.Intn(6)) // heavy ties
		default:
			xs[i] = rng.NormFloat64() * 100
		}
	}
	return xs
}

// adversarialOrders returns n distinct or equal values in the orders
// that defeat naive pivot rules.
func adversarialOrders(n int) map[string][]float64 {
	sorted := make([]float64, n)
	reversed := make([]float64, n)
	organ := make([]float64, n)
	equal := make([]float64, n)
	for i := range n {
		sorted[i] = float64(i)
		reversed[i] = float64(n - i)
		organ[i] = float64(min(i, n-1-i))
		equal[i] = 7
	}
	return map[string][]float64{
		"sorted":             sorted,
		"reversed":           reversed,
		"organ-pipe":         organ,
		"all-equal":          equal,
		"median-of-3-killer": medianOf3Killer(n),
	}
}

// medianOf3Killer is Musser's permutation of 1..n (n even) that drives
// a median-of-three quicksort to quadratic time.
func medianOf3Killer(n int) []float64 {
	k := n / 2
	xs := make([]float64, 2*k)
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			xs[i-1] = float64(i)
		} else {
			xs[i-1] = float64(k + i - 1)
		}
		xs[k+i-1] = float64(2 * i)
	}
	return xs
}

var oracleQs = []float64{0, 0.01, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 0.99, 1}

func checkQuantiles(t *testing.T, name string, xs []float64) {
	t.Helper()
	orig := slices.Clone(xs)
	for _, q := range oracleQs {
		if got, want := Quantile(xs, q), sortQuantile(xs, q); !sameFloat(got, want) {
			t.Errorf("%s: Quantile(q=%v) = %v, sort gives %v", name, q, got, want)
		}
	}
	if !slices.EqualFunc(xs, orig, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Errorf("%s: Quantile mutated its input", name)
	}
}

func TestQuantileMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 12, 13, 14, 50, 257, 1000, 5000} {
		for trial := range 5 {
			checkQuantiles(t, fmt.Sprintf("random n=%d #%d", n, trial), randomSample(rng, n))
		}
		for name, xs := range adversarialOrders(n) {
			checkQuantiles(t, fmt.Sprintf("%s n=%d", name, n), xs)
		}
	}
}

func TestSenSlopeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 5, 17, 60, 200} {
		for trial := range 20 {
			xs, ys := randomSample(rng, n), randomSample(rng, n)
			got, gotErr := SenSlope(xs, ys)
			want, wantErr := sortSenSlope(xs, ys)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Errorf("n=%d #%d: SenSlope = %v (%v), sort gives %v (%v)", n, trial, got, gotErr, want, wantErr)
			}
		}
		for name, ys := range adversarialOrders(n) {
			xs := adversarialOrders(n)["reversed"]
			got, gotErr := SenSlope(xs, ys)
			want, wantErr := sortSenSlope(xs, ys)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Errorf("%s n=%d: SenSlope = %v (%v), sort gives %v (%v)", name, n, got, gotErr, want, wantErr)
			}
		}
	}
	// Differences that overflow make ±Inf and NaN slopes; none of them
	// enters the median, and with nothing finite left the slope is NaN.
	xs := []float64{-math.MaxFloat64, math.MaxFloat64, 0}
	ys := []float64{-math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}
	for _, c := range [][2][]float64{{xs, ys}, {xs[:2], ys[:2]}} {
		got, gotErr := SenSlope(c[0], c[1])
		want, wantErr := sortSenSlope(c[0], c[1])
		if !sameResult(got, gotErr, want, wantErr) {
			t.Errorf("overflow %v: SenSlope = %v (%v), sort gives %v (%v)", c, got, gotErr, want, wantErr)
		}
	}
}

func TestKendallTauMatchesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 3, 5, 17, 60, 200, 700} {
		for trial := range 20 {
			xs, ys := randomSample(rng, n), randomSample(rng, n)
			got, gotErr := KendallTau(xs, ys)
			want, wantErr := pairKendallTau(xs, ys)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Errorf("n=%d #%d: KendallTau = %v (%v), pairs give %v (%v)", n, trial, got, gotErr, want, wantErr)
			}
		}
		orders := adversarialOrders(n)
		for xname, xs := range orders {
			for yname, ys := range orders {
				got, gotErr := KendallTau(xs, ys)
				want, wantErr := pairKendallTau(xs, ys)
				if !sameResult(got, gotErr, want, wantErr) {
					t.Errorf("%s×%s n=%d: KendallTau = %v (%v), pairs give %v (%v)", xname, yname, n, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestKendallTauProductUnderflow pins the one place the all-pairs scan
// this replaced was wrong: its dx*dy > 0 test underflows to zero for
// tiny differences, which made this perfectly concordant series read
// τ = -1.
func TestKendallTauProductUnderflow(t *testing.T) {
	xs := []float64{1e-200, 2e-200, 3e-200}
	tau, err := KendallTau(xs, xs)
	if err != nil || tau != 1 {
		t.Fatalf("KendallTau = %v (%v), want 1", tau, err)
	}
	if dx := xs[0] - xs[1]; dx*dx != 0 {
		t.Fatalf("dx*dx = %v, want an underflow to 0", dx*dx)
	}
}

func TestIntroselectFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inputs := adversarialOrders(1000)
	inputs["random"] = randomSample(rng, 1000)
	for name, in := range inputs {
		in = DropNaN(in)
		want := slices.Clone(in)
		slices.Sort(want)
		for _, depth := range []int{0, 1, 2, 3, 2 * bits.Len(uint(len(in)))} {
			for _, k := range []int{0, 1, len(in) / 3, len(in) / 2, len(in) - 1} {
				xs := slices.Clone(in)
				fellBack := introselect(xs, k, depth)
				if depth == 0 && !fellBack {
					t.Errorf("%s k=%d: depth 0 did not fall back to sorting", name, k)
				}
				if !sameFloat(xs[k], want[k]) {
					t.Fatalf("%s depth=%d k=%d: xs[k] = %v, want %v", name, depth, k, xs[k], want[k])
				}
				for i, x := range xs {
					if (i < k && x > xs[k]) || (i > k && x < xs[k]) {
						t.Fatalf("%s depth=%d k=%d: xs[%d] = %v on the wrong side of %v", name, depth, k, i, x, xs[k])
					}
				}
			}
		}
	}
}

// fuzzSample decodes raw as 8-byte floats, and again as one value per
// byte from a small alphabet heavy in ties, zeros of both signs, NaN
// and infinities.
func fuzzSample(raw []byte) (wide, narrow []float64) {
	alphabet := []float64{0, math.Copysign(0, -1), 1, 1, 2, -1, 0.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for i := 0; i+8 <= len(raw); i += 8 {
		wide = append(wide, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
	}
	for _, b := range raw {
		narrow = append(narrow, alphabet[int(b)%len(alphabet)])
	}
	return wide, narrow
}

// FuzzQuantile takes q as raw bits: an integer argument minimizes well,
// where the fuzzer's float minimizer can spin on a huge value.
func FuzzQuantile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, qbits uint64) {
		q := math.Float64frombits(qbits)
		wide, narrow := fuzzSample(raw)
		for _, xs := range [][]float64{wide, narrow} {
			orig := slices.Clone(xs)
			for _, q := range []float64{q, math.Abs(math.Mod(q, 1)), 0.5} {
				if got, want := Quantile(xs, q), sortQuantile(xs, q); !sameFloat(got, want) {
					t.Fatalf("Quantile(%v, %v) = %v, sort gives %v", xs, q, got, want)
				}
			}
			if !slices.EqualFunc(xs, orig, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("Quantile mutated its input %v", orig)
			}
		}
	})
}

// FuzzSenSlope holds SenSlope to sortSenSlope, and the bracketed
// selection to it under any bracket: one drawn from the input's own
// slopes must give the same bits or report a miss, never a wrong value.
func FuzzSenSlope(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, lo, hi uint16) {
		wide, narrow := fuzzSample(raw)
		for _, vs := range [][]float64{wide, narrow} {
			xs, ys := vs[:len(vs)/2], vs[len(vs)/2:len(vs)/2*2]
			got, gotErr := SenSlope(xs, ys)
			want, wantErr := sortSenSlope(xs, ys)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Fatalf("SenSlope(%v, %v) = %v (%v), sort gives %v (%v)", xs, ys, got, gotErr, want, wantErr)
			}
			if wantErr != nil || math.IsNaN(want) {
				continue
			}
			fx, fy := finitePairs(xs, ys)
			slopes := finiteSlopes(fx, fy)
			a, b := slopes[int(lo)%len(slopes)], slopes[int(hi)%len(slopes)]
			if s, ok := bracketedSenSlope(fx, fy, min(a, b), max(a, b), 0); ok && !sameFloat(s, want) {
				t.Fatalf("bracket [%v, %v] over (%v, %v) = %v, sort gives %v", min(a, b), max(a, b), xs, ys, s, want)
			}
		}
	})
}

// finitePairs keeps the jointly finite (x, y) pairs.
func finitePairs(xs, ys []float64) (fx, fy []float64) {
	for i := range xs {
		if finite(xs[i]) && finite(ys[i]) {
			fx = append(fx, xs[i])
			fy = append(fy, ys[i])
		}
	}
	return fx, fy
}

// finiteSlopes lists every finite pair slope.
func finiteSlopes(fx, fy []float64) []float64 {
	var out []float64
	for i := range fx {
		for j := i + 1; j < len(fx); j++ {
			if s := (fy[j] - fy[i]) / (fx[j] - fx[i]); finite(s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// TestSenSlopeBracketMiss forces the fallback: a bracket that holds
// neither order statistic of the median reports a miss, and a bracket
// around them gives the sort's bits.
func TestSenSlopeBracketMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, ys := make([]float64, 300), make([]float64, 300)
	for i := range xs {
		xs[i] = float64(rng.Intn(40))
		ys[i] = rng.NormFloat64() * 10
	}
	want, err := sortSenSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	slopes := finiteSlopes(xs, ys)
	slices.Sort(slopes)
	for _, c := range []struct {
		name string
		a, b float64
		hit  bool
	}{
		{"below the median", slopes[0], slopes[len(slopes)/4], false},
		{"above the median", slopes[3*len(slopes)/4], slopes[len(slopes)-1], false},
		{"empty", math.MaxFloat64, math.MaxFloat64, false},
		{"around the median", slopes[len(slopes)/2-10], slopes[len(slopes)/2+10], true},
		{"every slope", slopes[0], slopes[len(slopes)-1], true},
	} {
		got, ok := bracketedSenSlope(xs, ys, c.a, c.b, 0.01)
		if ok != c.hit {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.hit)
		}
		if ok && !sameFloat(got, want) {
			t.Errorf("%s: %v, sort gives %v", c.name, got, want)
		}
	}
	if got, err := SenSlope(xs, ys); err != nil || !sameFloat(got, want) {
		t.Errorf("SenSlope = %v (%v), sort gives %v", got, err, want)
	}
}

// TestSenSlopeBracketTies: pairs with equal x, +0 and −0 among them,
// make the ±∞ and NaN slopes the pass does not test for, and the
// counts must take them out exactly; a y range that could overflow a
// slope is a miss under any bracket.
func TestSenSlopeBracketTies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs, ys := make([]float64, 400), make([]float64, 400)
	for i := range xs {
		xs[i], ys[i] = float64(rng.Intn(8)), rng.NormFloat64()
		if i%4 == 0 {
			ys[i] = 0 // equal y at equal x: a NaN slope
		}
		if xs[i] == 0 && rng.Intn(2) == 0 {
			xs[i] = math.Copysign(0, -1)
		}
	}
	want, err := sortSenSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	slopes := finiteSlopes(xs, ys)
	slices.Sort(slopes)
	mid := len(slopes) / 2
	for _, br := range [][2]float64{{slopes[0], slopes[len(slopes)-1]}, {slopes[mid-1], slopes[mid+1]}} {
		if got, ok := bracketedSenSlope(xs, ys, br[0], br[1], 0); !ok || !sameFloat(got, want) {
			t.Errorf("bracket %v: %v (ok %v), sort gives %v", br, got, ok, want)
		}
	}
	if got, err := SenSlope(xs, ys); err != nil || !sameFloat(got, want) {
		t.Errorf("SenSlope = %v (%v), sort gives %v", got, err, want)
	}
	ys[0], ys[1] = math.MaxFloat64, -math.MaxFloat64
	if _, ok := bracketedSenSlope(xs, ys, -math.MaxFloat64, math.MaxFloat64, 0); ok {
		t.Error("a y range that overflows took the bracket")
	}
	want, _ = sortSenSlope(xs, ys)
	if got, err := SenSlope(xs, ys); err != nil || !sameFloat(got, want) {
		t.Errorf("overflowing SenSlope = %v (%v), sort gives %v", got, err, want)
	}
}

// TestSenSlopeSampledMatchesSort runs inputs large enough to take the
// sampled bracket, tie-heavy and not.
func TestSenSlopeSampledMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{260, 700} {
		for trial := range 4 {
			xs, ys := randomSample(rng, n), randomSample(rng, n)
			if trial%2 == 1 {
				for i := range xs {
					xs[i], ys[i] = float64(rng.Intn(n/4)), rng.NormFloat64()
				}
			}
			got, gotErr := SenSlope(xs, ys)
			want, wantErr := sortSenSlope(xs, ys)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Errorf("n=%d #%d: SenSlope = %v (%v), sort gives %v (%v)", n, trial, got, gotErr, want, wantErr)
			}
		}
	}
}
