package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// MiniBatchOptions configures one seeded mini-batch k-means run
// (Sculley 2010): each iteration samples BatchSize rows with
// replacement from the private RNG and pulls the nearest centroid
// toward each sample with a per-centroid learning rate of 1/count, so
// centroids stabilize as they accumulate assignment mass.
type MiniBatchOptions struct {
	// K is the cluster count (1 ≤ K ≤ rows).
	K int
	// Seed seeds the private RNG behind both the k-means++
	// initialization and the batch sampling. Equal seeds on equal
	// matrices give identical results; the global rand is never
	// touched.
	Seed int64
	// BatchSize is the number of rows sampled per iteration (0 = 128).
	BatchSize int
	// MaxIter bounds the iterations (0 = 64).
	MaxIter int
	// Workers bounds the final full-assignment pass (0 = GOMAXPROCS).
	Workers int
	// OnIteration, when non-nil, is called after each batch with the
	// 1-based iteration number, how many sampled rows changed their
	// nearest centroid, and whether the run converged on this batch.
	// Purely observational.
	OnIteration func(iter, moved int, converged bool)
}

// MiniBatchResult is one mini-batch partition.
type MiniBatchResult struct {
	// K is the cluster count.
	K int
	// Labels assigns each matrix row a cluster in [0, K), from a final
	// full assignment pass over all rows.
	Labels []int
	// SSE is the within-cluster sum of squared distances under the
	// final assignment.
	SSE float64
	// Iterations counts the batches run; Converged reports whether a
	// batch moved no sampled row before MaxIter.
	Iterations int
	Converged  bool
}

// MiniBatch partitions the matrix rows into K clusters with seeded
// mini-batch k-means. The batch loop is strictly sequential — sampling
// order is the RNG stream, updates apply in sample order — so the
// result is deterministic for a given (matrix, options) tuple; only
// the final labeling pass fans out across workers, writing disjoint
// row slots.
func MiniBatch(m *Matrix, opt MiniBatchOptions) (*MiniBatchResult, error) {
	n := len(m.Rows)
	if opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("cluster: k = %d outside [1, %d rows]", opt.K, n)
	}
	batch := opt.BatchSize
	if batch <= 0 {
		batch = 128
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 64
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &MiniBatchResult{K: opt.K}
	cents := seedPlusPlus(m.Rows, opt.K, rng)
	// counts is each centroid's accumulated assignment mass, the
	// learning-rate state.
	counts := make([]int64, opt.K)

	// last remembers each row's nearest centroid as of its most recent
	// sampling, so "moved" means what it does for Lloyd iterations: how
	// much of the batch still changes its mind.
	last := make([]int, n)
	for i := range last {
		last[i] = -1
	}
	for res.Iterations < maxIter {
		res.Iterations++
		moved := 0
		for b := 0; b < batch; b++ {
			i := rng.Intn(n)
			row := m.Rows[i]
			best, bestD := 0, math.Inf(1)
			for c, cent := range cents {
				if d := sqDist(row, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if last[i] != best {
				last[i] = best
				moved++
			}
			counts[best]++
			eta := 1 / float64(counts[best])
			cent := cents[best]
			for j, v := range row {
				cent[j] += eta * (v - cent[j])
			}
		}
		converged := moved == 0
		if opt.OnIteration != nil {
			opt.OnIteration(res.Iterations, moved, converged)
		}
		if converged {
			res.Converged = true
			break
		}
	}

	// One full assignment pass gives every row a label against the
	// final centroids; empty clusters are rescued deterministically.
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	dist2 := make([]float64, n)
	assignRows(m.Rows, cents, labels, dist2, opt.Workers)
	reseedEmpty(m.Rows, cents, labels, dist2, opt.K)
	res.Labels = labels
	for _, d := range dist2 {
		res.SSE += d
	}
	return res, nil
}
