package cluster

import (
	"fmt"
	"math"
	"math/rand"
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
	// Workers bounds the parallel assignment step (0 = GOMAXPROCS).
	Workers int
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
// initialization from the seeded RNG, then Lloyd iterations with the
// assignment step fanned across the par.ForEach worker pool, whose
// workers claim rows from a shared atomic counter (one atomic add per
// row). It works from the rows alone and never needs the matrix's
// pairwise distances. The result is deterministic for a given (matrix,
// options) pair no matter the worker count: parallel workers write
// disjoint row slots and every floating-point reduction runs in fixed
// row order.
func KMeans(m *Matrix, opt KMeansOptions) (*KMeansResult, error) {
	n := len(m.Rows)
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k = %d outside [1, %d rows]", opt.K, n)
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 64
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	cents := seedPlusPlus(m.Rows, opt.K, rng)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	dist2 := make([]float64, n)
	res := &KMeansResult{K: opt.K, Labels: labels, Centroids: cents}
	for res.Iterations < maxIter {
		res.Iterations++
		changed := assignRows(m.Rows, cents, labels, dist2, opt.Workers)
		changed += reseedEmpty(m.Rows, cents, labels, dist2, opt.K)
		if opt.OnIteration != nil {
			opt.OnIteration(res.Iterations, changed, changed == 0)
		}
		if changed == 0 {
			res.Converged = true
			break
		}
		updateCentroids(m.Rows, labels, cents)
	}
	if !res.Converged {
		// The last update moved the centroids: re-sync assignments so
		// Labels, Centroids, and SSE describe the same partition.
		assignRows(m.Rows, cents, labels, dist2, opt.Workers)
		reseedEmpty(m.Rows, cents, labels, dist2, opt.K)
	}
	for _, d := range dist2 {
		res.SSE += d
	}
	return res, nil
}

// seedPlusPlus picks the K initial centroids: the first uniformly, each
// later one with probability proportional to its squared distance from
// the nearest centroid so far (Arthur & Vassilvitskii 2007).
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
// lowest centroid index) and records the squared distance. Rows shard
// across the worker pool; each worker writes only its own slots, so
// the outcome is schedule-independent. Returns how many labels moved.
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

// sqDist is the squared Euclidean distance, the inner loop of both the
// seeding and assignment steps (no sqrt: comparisons only).
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
