package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
// to the bit either way. Rows are scored in blocks of four that shard
// across the worker pool (disjoint writes), and the final mean
// accumulates in row order, so the value is schedule-independent too.
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
	singleton := func(i int) bool { return start[labels[i]+1]-start[labels[i]] < 2 }
	// Each index scores a block of silhouetteBlock rows. Over a resident
	// table the block's rows sum each cluster side by side, one
	// accumulator per row, so the additions of different rows overlap
	// instead of waiting on one another; each row still adds its
	// cluster's members in ascending order. Row i's distance to itself
	// is +0, and adding +0 to a non-negative sum changes no bit, so its
	// own cluster needs no skip.
	_ = par.ForEach((n+silhouetteBlock-1)/silhouetteBlock, workers, func(blk int) error {
		lo := blk * silhouetteBlock
		if dist == nil || lo+silhouetteBlock > n {
			for i := lo; i < min(lo+silhouetteBlock, n); i++ {
				if singleton(i) {
					continue // s(i) = 0 by convention
				}
				a, b := 0.0, -1.0
				for c := 0; c < k; c++ {
					rows := members[start[c]:start[c+1]]
					if len(rows) == 0 {
						continue
					}
					var sum float64
					if dist != nil {
						drow := dist[i*n : (i+1)*n]
						for _, j := range rows {
							sum += drow[j]
						}
					} else {
						for _, j := range rows {
							sum += stats.EuclideanDist(m.Rows[i], m.Rows[j])
						}
					}
					foldMean(labels[i], c, len(rows), sum, &a, &b)
				}
				scores[i] = silScore(a, b)
			}
			return nil
		}
		d0, d1 := dist[lo*n:(lo+1)*n], dist[(lo+1)*n:(lo+2)*n]
		d2, d3 := dist[(lo+2)*n:(lo+3)*n], dist[(lo+3)*n:(lo+4)*n]
		var a [silhouetteBlock]float64
		b := [silhouetteBlock]float64{-1, -1, -1, -1}
		for c := 0; c < k; c++ {
			rows := members[start[c]:start[c+1]]
			if len(rows) == 0 {
				continue
			}
			var s0, s1, s2, s3 float64
			for _, j := range rows {
				s0 += d0[j]
				s1 += d1[j]
				s2 += d2[j]
				s3 += d3[j]
			}
			foldMean(labels[lo], c, len(rows), s0, &a[0], &b[0])
			foldMean(labels[lo+1], c, len(rows), s1, &a[1], &b[1])
			foldMean(labels[lo+2], c, len(rows), s2, &a[2], &b[2])
			foldMean(labels[lo+3], c, len(rows), s3, &a[3], &b[3])
		}
		for r := range a {
			if !singleton(lo + r) {
				scores[lo+r] = silScore(a[r], b[r])
			}
		}
		return nil
	})
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(n)
}

// silhouetteBlock is how many rows one Silhouette work item scores.
const silhouetteBlock = 4

// foldMean folds one row's distance sum to cluster c (size members)
// into the row's silhouette terms: a, the mean distance to the rest of
// its own cluster, and b, the smallest mean distance to another (−1
// until one is seen).
func foldMean(own, c, size int, sum float64, a, b *float64) {
	if c == own {
		*a = sum / float64(size-1)
	} else if mean := sum / float64(size); *b < 0 || mean < *b {
		*b = mean
	}
}

// silScore is the silhouette (b−a)/max(a,b), 0 where both vanish.
func silScore(a, b float64) float64 {
	if denom := max(a, b); denom > 0 {
		return (b - a) / denom
	}
	return 0
}

// SweepPoint is one row of the k sweep: the elbow curve (SSE) plus the
// silhouette at that k.
type SweepPoint struct {
	K          int
	SSE        float64
	Silhouette float64
}

// fits holds the seeded k-means fits of one matrix under one seed,
// each k computed once, whoever asks first: a sweep, or a partition at
// a single k. A fit is a function of (matrix, seed, k), so every caller
// reads the same labels, SSE, silhouette and Lloyd trace.
type fits struct {
	m    *Matrix
	seed int64

	mu  sync.Mutex
	byK map[int]*kfit
}

// kfit is one k's fit: a KMeans at the fits' seed, its Silhouette, and
// the (moved, converged) pair each Lloyd round reported, in order.
type kfit struct {
	once   sync.Once
	done   atomic.Bool
	labels []int
	sse    float64
	sil    float64
	trace  []lloydRound
}

// lloydRound is what one Lloyd round reports to OnIteration.
type lloydRound struct {
	moved     int
	converged bool
}

func newFits(m *Matrix, seed int64) *fits {
	return &fits{m: m, seed: seed, byK: map[int]*kfit{}}
}

func (f *fits) entry(k int) *kfit {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.byK[k]
	if e == nil {
		e = &kfit{}
		f.byK[k] = e
	}
	return e
}

// fit returns the fit at k (1 ≤ k ≤ rows), computing it if no caller
// has. seeds, when it holds at least k centroids, is the k-means++
// seeding of the fits' seed at some k' ≥ k, whose first k centroids are
// the seeding for k (seedPlusPlus's prefix property); otherwise fit
// seeds k itself. silWorkers bounds the silhouette's pool.
func (f *fits) fit(k int, seeds [][]float64, silWorkers int) *kfit {
	e := f.entry(k)
	e.once.Do(func() {
		opt := KMeansOptions{K: k, Seed: f.seed, OnIteration: func(_, moved int, converged bool) {
			e.trace = append(e.trace, lloydRound{moved, converged})
		}}
		var res *KMeansResult
		if len(seeds) >= k {
			cents := make([][]float64, k)
			for c := range cents {
				cents[c] = cloneRow(seeds[c])
			}
			res = lloyd(f.m.Rows, cents, opt)
		} else {
			res, _ = KMeans(f.m, opt) // 1 ≤ k ≤ rows
		}
		e.labels, e.sse = res.Labels, res.SSE
		e.sil = Silhouette(f.m, res.Labels, k, silWorkers)
		e.done.Store(true)
	})
	return e
}

// replay reports the fit's Lloyd rounds to on, as the KMeans that
// computed it would have; a nil on is a no-op.
func (e *kfit) replay(on func(iter, moved int, converged bool)) {
	if on == nil {
		return
	}
	for i, r := range e.trace {
		on(i+1, r.moved, r.converged)
	}
}

// sweep returns the point of every k in [kmin, kmax] (1 ≤ kmin ≤ kmax ≤
// rows), fitting only the k values no caller has yet. It draws one
// k-means++ seeding, at the largest missing k: k-means++ takes the same
// random draws for its first k centroids whatever its target, so the
// seeding for each smaller k is a prefix of it. Each missing k is then
// one task on the worker pool, largest k first so the longest fits
// start early: the task runs Lloyd from its own copy of the prefix and
// scores its own silhouette. When there are fewer missing k values than
// workers, each task's silhouette gets the spare workers. Every task
// writes only its own fit, so the sweep is as deterministic as its
// parts.
func (f *fits) sweep(kmin, kmax, workers int) []SweepPoint {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var missing []int // descending
	for k := kmax; k >= kmin; k-- {
		if !f.entry(k).done.Load() {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		seeds := seedPlusPlus(f.m.Rows, missing[0], rand.New(rand.NewSource(f.seed)))
		if missing[0] >= 2 {
			// Build the shared distance table on the whole pool before
			// the tasks split it.
			f.m.distances(workers)
		}
		silWorkers := max(1, workers/len(missing))
		_ = par.ForEach(len(missing), workers, func(t int) error {
			f.fit(missing[t], seeds, silWorkers)
			return nil
		})
	}
	points := make([]SweepPoint, kmax-kmin+1)
	for k := kmin; k <= kmax; k++ {
		e := f.fit(k, nil, workers) // done: this only waits for it
		points[k-kmin] = SweepPoint{K: k, SSE: e.sse, Silhouette: e.sil}
	}
	return points
}

// SweepTable renders a sweep as the text table the cluster-sweep
// analysis registers as its text form (specanalyze -only cluster-sweep
// prints it).
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
