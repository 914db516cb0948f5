package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/stats"
	"repro/internal/synth"
)

// scatterSilhouette is the reference silhouette: per row, one pass over
// every other row in ascending order, scattering each distance into its
// cluster's sum. Silhouette must reproduce it to the bit.
func scatterSilhouette(m *Matrix, labels []int, k int) float64 {
	n := len(m.Rows)
	if k < 2 || n < 2 {
		return 0
	}
	sizes := make([]int, k)
	for _, l := range labels {
		sizes[l]++
	}
	var total float64
	for i := range m.Rows {
		if sizes[labels[i]] < 2 {
			continue
		}
		sums := make([]float64, k)
		for j, row := range m.Rows {
			if j == i {
				continue
			}
			sums[labels[j]] += stats.EuclideanDist(m.Rows[i], row)
		}
		own := labels[i]
		a := sums[own] / float64(sizes[own]-1)
		b := -1.0
		for c := 0; c < k; c++ {
			if c == own || sizes[c] == 0 {
				continue
			}
			if mean := sums[c] / float64(sizes[c]); b < 0 || mean < b {
				b = mean
			}
		}
		if denom := max(a, b); denom > 0 {
			total += (b - a) / denom
		}
	}
	return total / float64(n)
}

// synthMatrix extracts the full feature matrix of the default synthetic
// corpus's comparable runs; each call returns a fresh matrix, with no
// distances computed yet.
func synthMatrix(t *testing.T) *Matrix {
	t.Helper()
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m, err := Extract(analysis.BuildDataset(runs).Comparable, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// labelSet is one partition to score.
type labelSet struct {
	name   string
	k      int
	labels []int
}

// TestSilhouetteExact: on the synth corpus, Silhouette over the shared
// distance table equals the scatter-loop reference exactly, for k-means
// partitions at k = 2…8 under three seeds, for HAC under every linkage
// and for a labeling that leaves a cluster id empty, at worker counts
// 1, 2 and 8 (each on a fresh matrix, so the table build itself runs at
// that worker count). The corpus's 676 rows fill whole blocks of four,
// so prefixes of 673, 674 and 675 rows are scored too: they end in a
// partial block.
func TestSilhouetteExact(t *testing.T) {
	base := synthMatrix(t)
	var sets []labelSet
	for k := 2; k <= 8; k++ {
		for _, seed := range []int64{1, 14, 99} {
			res, err := KMeans(base, KMeansOptions{K: k, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, labelSet{fmt.Sprintf("kmeans k=%d seed=%d", k, seed), res.K, res.Labels})
		}
	}
	for _, lk := range []Linkage{LinkageAverage, LinkageSingle, LinkageComplete} {
		res, err := HAC(base, HACOptions{Linkage: lk, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, labelSet{"hac/" + lk.String(), res.K, res.Labels})
	}
	// k-means k=3 relabeled 0, 1, 3 under k = 4: cluster 2 has no rows.
	km, err := KMeans(base, KMeansOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gap := slices.Clone(km.Labels)
	for i, l := range gap {
		if l == 2 {
			gap[i] = 3
		}
	}
	sets = append(sets, labelSet{"kmeans k=3 as k=4, cluster 2 empty", 4, gap})
	if len(base.Rows)%silhouetteBlock != 0 {
		t.Fatalf("corpus has %d rows; the prefixes below assume a multiple of %d", len(base.Rows), silhouetteBlock)
	}
	for _, n := range []int{len(base.Rows), 675, 674, 673} {
		prefix := func() *Matrix { return &Matrix{Features: base.Features, Rows: base.Rows[:n]} }
		want := make([]float64, len(sets))
		for i, s := range sets {
			want[i] = scatterSilhouette(prefix(), s.labels[:n], s.k)
		}
		for _, workers := range []int{1, 2, 8} {
			m := prefix()
			for i, s := range sets {
				if got := Silhouette(m, s.labels[:n], s.k, workers); got != want[i] {
					t.Errorf("rows=%d workers=%d %s: Silhouette = %v, reference %v", n, workers, s.name, got, want[i])
				}
			}
		}
	}
}

// TestSilhouetteExactAboveMaxDistRows pins the on-the-fly path: a
// matrix one row over maxDistRows keeps no distance table, and its
// silhouette still equals the reference exactly.
func TestSilhouetteExactAboveMaxDistRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, maxDistRows+1)
	for i := range rows {
		c := float64(i % 4)
		rows[i] = []float64{c + rng.NormFloat64()*0.4, -c + rng.NormFloat64()*0.4, rng.NormFloat64()}
	}
	m := &Matrix{Features: []string{"x", "y", "z"}, Rows: rows}
	res, err := KMeans(m, KMeansOptions{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := scatterSilhouette(m, res.Labels, res.K)
	for _, workers := range []int{1, 2, 8} {
		if got := Silhouette(m, res.Labels, res.K, workers); got != want {
			t.Errorf("workers=%d: Silhouette = %v, reference %v", workers, got, want)
		}
	}
	if m.distances(0) != nil {
		t.Errorf("a %d-row matrix kept a distance table (maxDistRows = %d)", len(rows), maxDistRows)
	}
}

// TestHACSharedDistances: HAC's merges and labels are the same whether
// it builds the matrix's distance table itself or finds one already
// computed, and a HAC run leaves the shared table intact for the next.
func TestHACSharedDistances(t *testing.T) {
	fresh, warm := synthMatrix(t), synthMatrix(t)
	before := append([]float64(nil), warm.distances(2)...)
	for _, lk := range []Linkage{LinkageAverage, LinkageSingle, LinkageComplete} {
		opt := HACOptions{Linkage: lk, K: 4, Workers: 2}
		want, err := HAC(fresh, opt)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := HAC(warm, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d: HAC over precomputed distances differs", lk, round)
			}
		}
	}
	if !reflect.DeepEqual(warm.distances(2), before) {
		t.Error("HAC modified the matrix's shared distance table")
	}
}

// TestSharedDistancesConcurrent: kernels racing to be a fresh matrix's
// first distance user share one table build and score exactly as they
// do alone — the registered analyses fan requests over one memoized
// matrix concurrently.
func TestSharedDistancesConcurrent(t *testing.T) {
	base := synthMatrix(t)
	km, err := KMeans(base, KMeansOptions{K: 5, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	opt := HACOptions{Linkage: LinkageAverage, K: 5}
	wantHAC, err := HAC(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantSil := scatterSilhouette(base, km.Labels, km.K)
	m := synthMatrix(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				if got := Silhouette(m, km.Labels, km.K, 2); got != wantSil {
					t.Errorf("goroutine %d: Silhouette = %v, reference %v", g, got, wantSil)
				}
				return
			}
			got, err := HAC(m, opt)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, wantHAC) {
				t.Errorf("goroutine %d: HAC differs from a serial run", g)
			}
		}()
	}
	wg.Wait()
}
