package cluster

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/par"
	"repro/internal/stats"
)

// Centroids returns the per-cluster mean rows of m under labels,
// accumulated in fixed row order. Clusters without members keep a zero
// centroid.
func Centroids(m *Matrix, labels []int, k int) [][]float64 {
	dim := 0
	if len(m.Rows) > 0 {
		dim = len(m.Rows[0])
	}
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = make([]float64, dim)
	}
	counts := make([]int, k)
	for i, row := range m.Rows {
		c := labels[i]
		counts[c]++
		for j, v := range row {
			cents[c][j] += v
		}
	}
	for c, cnt := range counts {
		if cnt == 0 {
			continue
		}
		for j := range cents[c] {
			cents[c][j] /= float64(cnt)
		}
	}
	return cents
}

// SSE is the within-cluster sum of squared distances from each row to
// its cluster centroid — the elbow-curve quantity.
func SSE(m *Matrix, labels []int, cents [][]float64) float64 {
	var sum float64
	for i, row := range m.Rows {
		sum += sqDist(row, cents[labels[i]])
	}
	return sum
}

// Silhouette is the mean silhouette coefficient of the partition: per
// row, (b−a)/max(a,b) where a is the mean distance to the row's own
// cluster and b the smallest mean distance to another cluster. Rows in
// singleton clusters score 0, as do rows where both means vanish. With
// fewer than two clusters the coefficient is undefined and Silhouette
// returns 0.
//
// Distances come from the matrix's shared distance table (computed
// once per matrix), or are computed on the spot above maxDistRows.
// Rows are counting-sorted by label once, and each cluster's distance
// sum runs over its members in ascending row order — the order a
// scatter over all rows would add them in — so the value is the same
// to the bit either way. The per-row scans shard across the worker
// pool (disjoint writes) and the final mean accumulates in row order,
// so the value is schedule-independent too.
func Silhouette(m *Matrix, labels []int, k, workers int) float64 {
	n := len(m.Rows)
	if k < 2 || n < 2 {
		return 0
	}
	// members[start[c]:start[c+1]] lists cluster c's rows, ascending.
	start := make([]int, k+1)
	for _, l := range labels {
		start[l+1]++
	}
	for c := 0; c < k; c++ {
		start[c+1] += start[c]
	}
	members := make([]int, n)
	fill := slices.Clone(start[:k])
	for i, l := range labels {
		members[fill[l]] = i
		fill[l]++
	}
	dist := m.distances(workers)
	scores := make([]float64, n)
	_ = par.ForEach(n, workers, func(i int) error {
		own := labels[i]
		if start[own+1]-start[own] < 2 {
			return nil // singleton: s(i) = 0 by convention
		}
		var drow []float64
		if dist != nil {
			drow = dist[i*n : (i+1)*n]
		}
		a, b := 0.0, -1.0
		for c := 0; c < k; c++ {
			rows := members[start[c]:start[c+1]]
			if len(rows) == 0 {
				continue
			}
			// Row i's distance to itself is +0, and adding +0 to a
			// non-negative sum changes no bit, so its own cluster needs
			// no skip.
			var sum float64
			if drow != nil {
				for _, j := range rows {
					sum += drow[j]
				}
			} else {
				for _, j := range rows {
					sum += stats.EuclideanDist(m.Rows[i], m.Rows[j])
				}
			}
			if c == own {
				a = sum / float64(len(rows)-1)
			} else if mean := sum / float64(len(rows)); b < 0 || mean < b {
				b = mean
			}
		}
		if denom := max(a, b); denom > 0 {
			scores[i] = (b - a) / denom
		}
		return nil
	})
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(n)
}

// SweepPoint is one row of the k sweep: the elbow curve (SSE) plus the
// silhouette at that k.
type SweepPoint struct {
	K          int
	SSE        float64
	Silhouette float64
}

// SweepK runs seeded k-means for every k in [kmin, kmax] and reports
// SSE and silhouette per k — the elbow/auto-k sweep. Each k uses the
// same seed, so the sweep is as deterministic as its parts.
func SweepK(m *Matrix, kmin, kmax int, seed int64, workers int) ([]SweepPoint, error) {
	if kmin < 1 || kmin > kmax || kmax > len(m.Rows) {
		return nil, fmt.Errorf("cluster: sweep range [%d, %d] outside [1, %d rows]",
			kmin, kmax, len(m.Rows))
	}
	points := make([]SweepPoint, 0, kmax-kmin+1)
	for k := kmin; k <= kmax; k++ {
		res, err := KMeans(m, KMeansOptions{K: k, Seed: seed, Workers: workers})
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			K:          k,
			SSE:        res.SSE,
			Silhouette: Silhouette(m, res.Labels, res.K, workers),
		})
	}
	return points, nil
}

// SweepTable renders a sweep as the text table every surface shares
// (the terminal report and the speccluster CLI both print this).
func SweepTable(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %14s %12s\n", "k", "within-SSE", "silhouette")
	for _, p := range points {
		fmt.Fprintf(&b, "%4d %14.1f %12.3f\n", p.K, p.SSE, p.Silhouette)
	}
	return b.String()
}

// AutoK picks the sweep's best k: the highest silhouette, ties to the
// smaller k. An empty sweep returns 0.
func AutoK(points []SweepPoint) int {
	best := 0
	bestSil := 0.0
	for _, p := range points {
		if best == 0 || p.Silhouette > bestSil {
			best, bestSil = p.K, p.Silhouette
		}
	}
	return best
}
