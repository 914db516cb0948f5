package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/synth"
)

// referenceSweepK is the serial sweep SweepK must reproduce: for each k
// in ascending order, a KMeans under the sweep's seed (its own
// k-means++ seeding) and the Silhouette of its labels.
func referenceSweepK(m *Matrix, kmin, kmax int, seed int64) []SweepPoint {
	var points []SweepPoint
	for k := kmin; k <= kmax; k++ {
		res, err := KMeans(m, KMeansOptions{K: k, Seed: seed})
		if err != nil {
			panic(err)
		}
		points = append(points, SweepPoint{K: k, SSE: res.SSE, Silhouette: Silhouette(m, res.Labels, k, 1)})
	}
	return points
}

// TestSeedPlusPlusPrefix: from equal seeds, the k-means++ seeding for
// every k ≤ kmax is the first k centroids of the seeding for kmax — the
// property that lets SweepK seed once. The duplicate-row matrix runs
// out of distinct rows, so its seedings also take the branch that
// draws an index uniformly.
func TestSeedPlusPlusPrefix(t *testing.T) {
	for _, in := range []struct {
		name string
		m    *Matrix
		kmax int
	}{{"synth", synthMatrix(t), 10}, {"dups", duplicateRows(), 12}} {
		for seed := int64(1); seed <= 20; seed++ {
			full := seedPlusPlus(in.m.Rows, in.kmax, rand.New(rand.NewSource(seed)))
			for k := 1; k <= in.kmax; k++ {
				got := seedPlusPlus(in.m.Rows, k, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(got, full[:k]) {
					t.Errorf("%s seed=%d: seeding for k=%d is not the first %d centroids of k=%d",
						in.name, seed, k, k, in.kmax)
				}
			}
		}
	}
}

// TestSweepKExact: SweepK equals the serial per-k reference under ==,
// on the synth corpus under two feature subsets (the default auto-k
// range, the explore sweep's, kmin = kmax and kmin = 1) and on the
// duplicate-row matrix up to kmax = rows, where empty clusters are
// rescued; over several seeds, at worker counts 0 (GOMAXPROCS), 1, 2
// and 4, each on a fresh matrix so the distance table is built inside
// the sweep at that worker count.
func TestSweepKExact(t *testing.T) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	comparable := analysis.BuildDataset(runs).Comparable
	type input struct {
		name    string
		extract func() *Matrix
		ranges  [][2]int
	}
	var inputs []input
	for _, features := range [][]string{nil, {"score", "cores", "year", "vendor_amd"}} {
		inputs = append(inputs, input{
			name: fmt.Sprintf("synth features=%v", features),
			extract: func() *Matrix {
				m, err := Extract(comparable, Options{Features: features})
				if err != nil {
					t.Fatal(err)
				}
				return m
			},
			ranges: [][2]int{{2, 8}, {2, 5}, {4, 4}, {1, 4}},
		})
	}
	inputs = append(inputs, input{name: "dups", extract: duplicateRows,
		ranges: [][2]int{{1, 12}, {5, 12}, {12, 12}, {2, 3}}})
	for _, in := range inputs {
		ref := in.extract()
		for _, seed := range []int64{1, 14, 99} {
			for _, r := range in.ranges {
				want := referenceSweepK(ref, r[0], r[1], seed)
				for _, workers := range []int{0, 1, 2, 4} {
					got, err := SweepK(in.extract(), r[0], r[1], seed, workers)
					if err != nil {
						t.Fatalf("%s: %v", in.name, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed=%d k=%d…%d workers=%d:\n got %+v\nwant %+v",
							in.name, seed, r[0], r[1], workers, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkPairwise: one build of the full pairwise distance table of
// the synth corpus's feature matrix (676 rows).
func BenchmarkPairwise(b *testing.B) {
	runs, err := synth.Generate(synth.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	m, err := Extract(analysis.BuildDataset(runs).Comparable, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		_ = pairwise(m.Rows, 0)
	}
}
