package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Linkage selects how HAC measures the distance between clusters.
type Linkage int

// The supported linkage criteria.
const (
	LinkageAverage  Linkage = iota // UPGMA: size-weighted mean pair distance
	LinkageSingle                  // nearest pair
	LinkageComplete                // farthest pair
)

// String returns the flag spelling of the linkage.
func (l Linkage) String() string {
	switch l {
	case LinkageAverage:
		return "average"
	case LinkageSingle:
		return "single"
	case LinkageComplete:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// ParseLinkage resolves a flag spelling to a Linkage.
func ParseLinkage(s string) (Linkage, error) {
	switch s {
	case "average":
		return LinkageAverage, nil
	case "single":
		return LinkageSingle, nil
	case "complete":
		return LinkageComplete, nil
	default:
		return 0, fmt.Errorf("cluster: unknown linkage %q (average, single, complete)", s)
	}
}

// HACOptions configures one agglomerative run. Exactly one stopping
// rule applies: a positive Cut stops merging once the next merge would
// exceed that distance (the MicroTrace-style threshold cut); otherwise
// merging stops at K clusters.
type HACOptions struct {
	Linkage Linkage
	// K is the target cluster count, used when Cut is zero.
	K int
	// Cut is the dendrogram distance threshold; > 0 overrides K.
	Cut float64
	// Workers bounds the parallel distance-matrix build, when HAC is
	// the matrix's first kernel to need distances (0 = GOMAXPROCS).
	Workers int
	// OnMergeBatch, when non-nil, is called after every mergeBatchSize
	// dendrogram merges (and once for the remainder) with the 1-based
	// batch number, the merges in the batch, and the largest merge
	// distance seen in it. Purely observational, like
	// KMeansOptions.OnIteration.
	OnMergeBatch func(batch, merges int, maxDist float64)
}

// mergeBatchSize is the OnMergeBatch granularity: coarse enough that a
// 676-row dendrogram reports ~20 events instead of ~675, fine enough
// that a trace still shows where the merge loop spends its time.
const mergeBatchSize = 32

// Merge is one dendrogram step: clusters represented by rows A and B
// (A < B, each the smallest row index of its cluster) merged at the
// given linkage distance into a cluster of Size members.
type Merge struct {
	A, B int
	Dist float64
	Size int
}

// HACResult is one cut dendrogram.
type HACResult struct {
	// K is the resulting cluster count.
	K int
	// Labels assigns each matrix row a cluster in [0, K), numbered by
	// ascending smallest member row, so equal inputs give equal labels.
	Labels []int
	// Merges is the dendrogram prefix that was applied, in merge order.
	Merges []Merge
}

// HAC clusters the matrix rows bottom-up: every row starts as its own
// cluster and the closest pair merges until the stopping rule bites.
// Cluster distances update through the Lance–Williams recurrence, so
// single, complete, and average linkage share one O(n²)-memory
// implementation. It starts from a copy of the matrix's shared pairwise
// distances (built on the worker pool on first use, and left intact
// for the next kernel); the merge loop itself is serial and
// index-ordered, hence deterministic.
func HAC(m *Matrix, opt HACOptions) (*HACResult, error) {
	n := len(m.Rows)
	if n == 0 {
		return nil, fmt.Errorf("cluster: HAC on an empty matrix")
	}
	if opt.Cut < 0 {
		return nil, fmt.Errorf("cluster: negative cut %v", opt.Cut)
	}
	if opt.Cut == 0 && (opt.K < 1 || opt.K > n) {
		return nil, fmt.Errorf("cluster: k = %d outside [1, %d rows]", opt.K, n)
	}
	switch opt.Linkage {
	case LinkageAverage, LinkageSingle, LinkageComplete:
	default:
		return nil, fmt.Errorf("cluster: unknown linkage %d", int(opt.Linkage))
	}

	// The merge loop rewrites distances in place, so it works on a
	// private copy of the matrix's shared distances (or, above
	// maxDistRows, on a table of its own).
	flat := m.distances(opt.Workers)
	if flat == nil {
		flat = pairwise(m.Rows, opt.Workers)
	} else {
		flat = slices.Clone(flat)
	}
	dm := make([][]float64, n)
	for i := range dm {
		dm[i] = flat[i*n : (i+1)*n]
	}

	active := make([]bool, n)
	size := make([]int, n)
	members := make([][]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = 1
		members[i] = []int{i}
	}
	// nearest[i] caches the closest active partner of active cluster i.
	nearest := make([]int, n)
	for i := 0; i < n; i++ {
		nearest[i] = scanNearest(dm, active, i)
	}

	res := &HACResult{}
	clusters := n
	targetK := opt.K
	if opt.Cut > 0 {
		targetK = 1
	}
	// Batch accounting for OnMergeBatch; all zero-cost when unset.
	var batches, pending int
	var batchMax float64
	flushBatch := func() {
		if pending == 0 || opt.OnMergeBatch == nil {
			pending, batchMax = 0, 0
			return
		}
		batches++
		opt.OnMergeBatch(batches, pending, batchMax)
		pending, batchMax = 0, 0
	}
	for clusters > targetK {
		// The globally closest pair, ties to the lowest representative.
		best := -1
		for i := 0; i < n; i++ {
			if !active[i] || nearest[i] < 0 {
				continue
			}
			if best < 0 || dm[i][nearest[i]] < dm[best][nearest[best]] {
				best = i
			}
		}
		if best < 0 {
			break // single active cluster
		}
		i, j := best, nearest[best]
		if j < i {
			i, j = j, i
		}
		d := dm[i][j]
		if opt.Cut > 0 && d > opt.Cut {
			break
		}
		// Lance–Williams: fold cluster j into i, keeping the smaller
		// representative index.
		for k := 0; k < n; k++ {
			if !active[k] || k == i || k == j {
				continue
			}
			dik, djk := dm[i][k], dm[j][k]
			var nd float64
			switch opt.Linkage {
			case LinkageSingle:
				nd = min(dik, djk)
			case LinkageComplete:
				nd = max(dik, djk)
			case LinkageAverage:
				si, sj := float64(size[i]), float64(size[j])
				nd = (si*dik + sj*djk) / (si + sj)
			}
			dm[i][k], dm[k][i] = nd, nd
		}
		active[j] = false
		size[i] += size[j]
		members[i] = append(members[i], members[j]...)
		res.Merges = append(res.Merges, Merge{A: i, B: j, Dist: d, Size: size[i]})
		clusters--
		pending++
		batchMax = max(batchMax, d)
		if pending == mergeBatchSize {
			flushBatch()
		}
		// Refresh the nearest cache: i's own partner always, and any
		// cluster whose cached partner was i or j (their distance to i
		// changed, and j is gone); everyone else can only have gotten
		// closer to i, which a cheap comparison catches.
		nearest[i] = scanNearest(dm, active, i)
		for k := 0; k < n; k++ {
			if !active[k] || k == i {
				continue
			}
			if nearest[k] == i || nearest[k] == j {
				nearest[k] = scanNearest(dm, active, k)
			} else if nearest[k] >= 0 && dm[k][i] < dm[k][nearest[k]] {
				nearest[k] = i
			}
		}
	}
	flushBatch()

	// Label clusters by ascending representative (= smallest member) so
	// numbering is reproducible.
	reps := make([]int, 0, clusters)
	for i := 0; i < n; i++ {
		if active[i] {
			reps = append(reps, i)
		}
	}
	sort.Ints(reps)
	res.K = len(reps)
	res.Labels = make([]int, n)
	for label, rep := range reps {
		for _, row := range members[rep] {
			res.Labels[row] = label
		}
	}
	return res, nil
}

// scanNearest finds the closest active partner of i (ties to the
// lowest index), or -1 when i is the only active cluster.
func scanNearest(dm [][]float64, active []bool, i int) int {
	best := -1
	for j := range active {
		if !active[j] || j == i {
			continue
		}
		if best < 0 || dm[i][j] < dm[i][best] {
			best = j
		}
	}
	return best
}
