package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/par"
)

// KMeansOptions configures one k-means++ run.
type KMeansOptions struct {
	// K is the cluster count (1 ≤ K ≤ rows).
	K int
	// Seed seeds the private RNG behind the k-means++ initialization.
	// Equal seeds on equal matrices give identical results; the global
	// rand is never touched.
	Seed int64
	// MaxIter bounds the Lloyd iterations (0 = 64).
	MaxIter int
	// OnIteration, when non-nil, is called after each Lloyd round with
	// the 1-based iteration number, how many labels moved, and whether
	// the partition converged on this round. Purely observational: the
	// computation is identical with or without it, and it must not
	// mutate anything the kernel reads.
	OnIteration func(iter, moved int, converged bool)
}

// KMeansResult is one converged (or iteration-capped) partition.
type KMeansResult struct {
	// K is the cluster count.
	K int
	// Labels assigns each matrix row a cluster in [0, K).
	Labels []int
	// Centroids are the cluster means in standardized feature space.
	Centroids [][]float64
	// SSE is the within-cluster sum of squared distances.
	SSE float64
	// Iterations counts the Lloyd rounds run; Converged reports whether
	// assignments stabilized before MaxIter.
	Iterations int
	Converged  bool
}

// KMeans partitions the matrix rows into K clusters: k-means++
// initialization from the seeded RNG, then Lloyd iterations whose
// assignment step skips every row that Hamerly's bounds prove stays put
// (Hamerly 2010, "Making k-means even faster"). Each row keeps an upper
// bound on the distance to its own centroid and a lower bound on the
// distance to any other; a row is rescanned over all centroids only
// when those bounds, with a relative margin, cannot rule out a move.
// The labels, centroids, SSE, iteration count and per-round moved
// counts are exactly those of a full scan of every row each round (ties
// to the lowest centroid index). The assignment runs serially: at the
// corpus's k and row count a worker pool costs more than the scan. It
// works from the rows alone and never needs the matrix's pairwise
// distances, and every floating-point reduction runs in fixed row order,
// so the result is a function of (matrix, options).
func KMeans(m *Matrix, opt KMeansOptions) (*KMeansResult, error) {
	n := len(m.Rows)
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k = %d outside [1, %d rows]", opt.K, n)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	return lloyd(m.Rows, seedPlusPlus(m.Rows, opt.K, rng), opt), nil
}

// lloyd runs KMeans's bounded Lloyd iterations from the given initial
// centroids, one per cluster, reading only MaxIter and OnIteration from
// opt. It writes to cents, which become the result's Centroids.
func lloyd(rows, cents [][]float64, opt KMeansOptions) *KMeansResult {
	n, k := len(rows), len(cents)
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 64
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	dist2 := make([]float64, n)
	h := newBounds(n, cents)
	// assign runs one bounded assignment round plus the empty-cluster
	// rescue. reseedEmpty picks the row farthest from its centroid, so
	// dist2 is made exact for every row first; the reseeded centroids
	// jump, so every bound is reset after.
	assign := func() int {
		changed := h.assign(rows, cents, labels, dist2)
		if hasEmpty(labels, k) {
			exactDist2(rows, cents, labels, dist2)
			changed += reseedEmpty(rows, cents, labels, dist2, k)
			h.reset()
		}
		return changed
	}
	res := &KMeansResult{K: k, Labels: labels, Centroids: cents}
	for res.Iterations < maxIter {
		res.Iterations++
		changed := assign()
		if opt.OnIteration != nil {
			opt.OnIteration(res.Iterations, changed, changed == 0)
		}
		if changed == 0 {
			res.Converged = true
			break
		}
		h.update(rows, labels, cents)
	}
	if !res.Converged {
		// The last update moved the centroids: re-sync assignments so
		// Labels, Centroids, and SSE describe the same partition.
		assign()
	}
	// Skipped rows hold stale distances; the SSE sums exact ones.
	exactDist2(rows, cents, labels, dist2)
	for _, d := range dist2 {
		res.SSE += d
	}
	return res
}

// boundEps is the relative margin on Hamerly's skip test. Bounds are
// built from square roots and sums that round, and the full scan they
// stand in for compares rounded squared distances; each of those errs
// by about (features + 2) × 1.1e-16 relative, so a skip that needs the
// bounds 1e-9 apart can never skip a row the full scan would move, and
// never skips a tie.
const boundEps = 1e-9

// bounds is Hamerly's per-row state for one KMeans run.
type bounds struct {
	// upper[i] ≥ the distance from row i to its own centroid; lower[i]
	// ≤ its distance to every other centroid.
	upper, lower []float64
	// half[c] is half the distance from centroid c to its nearest
	// other centroid: a row closer than that to c is closer to c than
	// to any other.
	half []float64
	// prev and move are update's working state: the centroids before it and
	// how far each one moved.
	prev [][]float64
	move []float64
}

// newBounds starts every row unbounded, so the first round scans all.
func newBounds(n int, cents [][]float64) *bounds {
	h := &bounds{
		upper: make([]float64, n),
		lower: make([]float64, n),
		half:  make([]float64, len(cents)),
		prev:  make([][]float64, len(cents)),
		move:  make([]float64, len(cents)),
	}
	for c, cent := range cents {
		h.prev[c] = make([]float64, len(cent))
	}
	h.reset()
	return h
}

// reset forgets every row bound, so the next round tests each row
// against the centroid separation alone.
func (h *bounds) reset() {
	for i := range h.upper {
		h.upper[i], h.lower[i] = math.Inf(1), 0
	}
}

// assign labels every row with its nearest centroid (ties to the lowest
// centroid index), as a full scan would, and returns how many labels
// moved. A labeled row whose upper bound is below max(half, lower) keeps
// its label untouched; otherwise its upper bound is tightened to the
// exact distance and the test retried; only then is it scanned over all
// centroids, which resets both bounds and records the exact squared
// distance in dist2. A skipped row's dist2 goes stale.
func (h *bounds) assign(rows, cents [][]float64, labels []int, dist2 []float64) int {
	for c := range cents {
		near := math.Inf(1)
		for o := range cents {
			if o != c {
				near = min(near, sqDist(cents[c], cents[o]))
			}
		}
		h.half[c] = math.Sqrt(near) / 2
	}
	changed := 0
	for i, row := range rows {
		own, ownD := labels[i], 0.0
		if own >= 0 {
			bound := max(h.half[own], h.lower[i]) * (1 - boundEps)
			if h.upper[i]*(1+boundEps) < bound {
				continue
			}
			ownD = sqDist(row, cents[own])
			h.upper[i] = math.Sqrt(ownD)
			if h.upper[i]*(1+boundEps) < bound {
				dist2[i] = ownD
				continue
			}
		}
		best, bestD, secondD := 0, math.Inf(1), math.Inf(1)
		for c, cent := range cents {
			d := ownD
			if c != own {
				d = sqDist(row, cent)
			}
			if d < bestD {
				best, bestD, secondD = c, d, bestD
			} else if d < secondD {
				secondD = d
			}
		}
		if own != best {
			labels[i] = best
			changed++
		}
		dist2[i] = bestD
		h.upper[i], h.lower[i] = math.Sqrt(bestD), math.Sqrt(secondD)
	}
	return changed
}

// update moves each centroid to the mean of its members and loosens
// every bound by how far the centroids moved: a row's upper bound grows
// by its own centroid's move, its lower bound shrinks by the largest
// move among the others. The decrement is padded by boundEps so a lower
// bound far smaller than the moves that shrank it still errs low.
func (h *bounds) update(rows [][]float64, labels []int, cents [][]float64) {
	for c, cent := range cents {
		copy(h.prev[c], cent)
	}
	updateCentroids(rows, labels, cents)
	far, first, second := -1, 0.0, 0.0
	for c, cent := range cents {
		p := math.Sqrt(sqDist(h.prev[c], cent))
		h.move[c] = p
		if p > first {
			far, first, second = c, p, first
		} else if p > second {
			second = p
		}
	}
	for i, l := range labels {
		h.upper[i] += h.move[l]
		if l == far {
			h.lower[i] -= second * (1 + boundEps)
		} else {
			h.lower[i] -= first * (1 + boundEps)
		}
	}
}

// hasEmpty reports whether some cluster in [0, k) has no member.
func hasEmpty(labels []int, k int) bool {
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	return slices.Contains(sizes, 0)
}

// exactDist2 sets every row's dist2 to its squared distance from its
// own centroid: the same sqDist on the same centroid a full scan would
// have recorded, to the bit.
func exactDist2(rows, cents [][]float64, labels []int, dist2 []float64) {
	for i, row := range rows {
		dist2[i] = sqDist(row, cents[labels[i]])
	}
}

// seedPlusPlus picks the K initial centroids: the first uniformly, each
// later one with probability proportional to its squared distance from
// the nearest centroid so far (Arthur & Vassilvitskii 2007). Picking
// centroid c draws the same numbers from rng whatever k is, so from
// equal RNG states the seeding for k is the first k centroids of the
// seeding for any larger k; SweepK seeds once at its largest k.
func seedPlusPlus(rows [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(rows)
	cents := make([][]float64, 0, k)
	cents = append(cents, cloneRow(rows[rng.Intn(n)]))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for len(cents) < k {
		last := cents[len(cents)-1]
		var total float64
		for i, row := range rows {
			if d := sqDist(row, last); d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		idx := n - 1
		if total > 0 {
			target := rng.Float64() * total
			var acc float64
			for i, d := range d2 {
				acc += d
				if acc > target {
					idx = i
					break
				}
			}
		} else {
			// Every row duplicates a centroid already; any pick works.
			idx = rng.Intn(n)
		}
		cents = append(cents, cloneRow(rows[idx]))
	}
	return cents
}

// assignRows labels every row with its nearest centroid (ties to the
// lowest centroid index) and records the squared distance, scanning
// every centroid for every row: MiniBatch's final pass, which has no
// bounds to carry. Rows shard across the worker pool; each worker
// writes only its own slots, so the outcome is schedule-independent.
// Returns how many labels moved.
func assignRows(rows, cents [][]float64, labels []int, dist2 []float64, workers int) int {
	var changed atomic.Int64
	_ = par.ForEach(len(rows), workers, func(i int) error {
		best, bestD := 0, math.Inf(1)
		for c, cent := range cents {
			if d := sqDist(rows[i], cent); d < bestD {
				best, bestD = c, d
			}
		}
		if labels[i] != best {
			labels[i] = best
			changed.Add(1)
		}
		dist2[i] = bestD
		return nil
	})
	return int(changed.Load())
}

// reseedEmpty relocates each empty cluster's centroid onto the row
// farthest from its assigned centroid (ties to the lowest row index),
// the standard deterministic rescue that keeps K honest. Returns how
// many rows were relabeled.
func reseedEmpty(rows, cents [][]float64, labels []int, dist2 []float64, k int) int {
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	moved := 0
	for c := 0; c < k; c++ {
		if sizes[c] > 0 {
			continue
		}
		far := 0
		for i, d := range dist2 {
			if d > dist2[far] {
				far = i
			}
		}
		sizes[labels[far]]--
		labels[far] = c
		sizes[c] = 1
		copy(cents[c], rows[far])
		dist2[far] = 0
		moved++
	}
	return moved
}

// updateCentroids recomputes each centroid as the mean of its members,
// accumulating in fixed row order for floating-point determinism.
func updateCentroids(rows [][]float64, labels []int, cents [][]float64) {
	dim := len(cents[0])
	counts := make([]int, len(cents))
	for c := range cents {
		for j := 0; j < dim; j++ {
			cents[c][j] = 0
		}
	}
	for i, row := range rows {
		c := labels[i]
		counts[c]++
		for j, v := range row {
			cents[c][j] += v
		}
	}
	for c, cnt := range counts {
		if cnt == 0 {
			continue // reseedEmpty guarantees members; belt and braces
		}
		for j := 0; j < dim; j++ {
			cents[c][j] /= float64(cnt)
		}
	}
}

// sqDist is the squared Euclidean distance, the inner loop of the
// seeding and assignment steps (comparisons need no sqrt).
func sqDist(a, b []float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return ss
}

func cloneRow(row []float64) []float64 {
	return append([]float64(nil), row...)
}
