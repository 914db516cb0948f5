package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// referenceKMeans is the full-scan Lloyd that KMeans must reproduce:
// every round scans every centroid for every row, with no bounds. It
// also reports the per-round moved counts and the rounds that rescued
// an empty cluster, so a test can tell that the rescue ran.
func referenceKMeans(m *Matrix, opt KMeansOptions) (res *KMeansResult, moved, reseeds []int) {
	n := len(m.Rows)
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
	assign := func() int {
		changed := 0
		for i, row := range m.Rows {
			best, bestD := 0, math.Inf(1)
			for c, cent := range cents {
				if d := sqDist(row, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed++
			}
			dist2[i] = bestD
		}
		if r := reseedEmpty(m.Rows, cents, labels, dist2, opt.K); r > 0 {
			changed += r
			reseeds = append(reseeds, res.Iterations)
		}
		return changed
	}
	res = &KMeansResult{K: opt.K, Labels: labels, Centroids: cents}
	for res.Iterations < maxIter {
		res.Iterations++
		changed := assign()
		moved = append(moved, changed)
		if changed == 0 {
			res.Converged = true
			break
		}
		updateCentroids(m.Rows, labels, cents)
	}
	if !res.Converged {
		assign()
	}
	for _, d := range dist2 {
		res.SSE += d
	}
	return res, moved, reseeds
}

// duplicateRows is a matrix of three distinct points, each repeated:
// with k above 3, k-means++ seeds duplicate centroids, the higher of
// each tied pair starts empty, and the rescue must run.
func duplicateRows() *Matrix {
	var rows [][]float64
	for i := 0; i < 12; i++ {
		p := float64(i % 3)
		rows = append(rows, []float64{p, 2 * p, -p})
	}
	return &Matrix{Features: []string{"x", "y", "z"}, Rows: rows}
}

// randomDuplicates is a small random 2-d matrix in which about a third
// of the rows repeat an earlier row. At k up to half its rows, clusters
// also empty out after the first round, when the rescue must pick the
// farthest row from distances that skipped rows left stale.
func randomDuplicates(gen int64) *Matrix {
	rng := rand.New(rand.NewSource(gen))
	rows := make([][]float64, 10+rng.Intn(50))
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		if rng.Intn(3) == 0 && i > 0 {
			rows[i] = rows[rng.Intn(i)]
		}
	}
	return &Matrix{Features: []string{"x", "y"}, Rows: rows}
}

// TestKMeansExact: the bounded KMeans returns exactly what a full scan
// returns — labels, centroids, SSE, iteration count, convergence and
// the OnIteration sequence, all compared with == — on the synth corpus
// over many seeds and k = 2…8, on matrices whose duplicate rows force
// the empty-cluster rescue in the first round and in later ones, and
// with runs capped at MaxIter 2 so the non-converged re-sync runs.
func TestKMeansExact(t *testing.T) {
	type input struct {
		name string
		m    *Matrix
		opt  KMeansOptions
	}
	synth, dups := synthMatrix(t), duplicateRows()
	var inputs []input
	for seed := int64(1); seed <= 20; seed++ {
		for k := 2; k <= 8; k++ {
			inputs = append(inputs, input{fmt.Sprintf("synth seed=%d k=%d", seed, k), synth, KMeansOptions{K: k, Seed: seed}})
		}
		for _, k := range []int{3, 6} {
			inputs = append(inputs, input{fmt.Sprintf("synth seed=%d k=%d maxiter=2", seed, k), synth, KMeansOptions{K: k, Seed: seed, MaxIter: 2}})
		}
		for _, k := range []int{1, 4, 5, 6} {
			inputs = append(inputs, input{fmt.Sprintf("dups seed=%d k=%d", seed, k), dups, KMeansOptions{K: k, Seed: seed}})
			inputs = append(inputs, input{fmt.Sprintf("dups seed=%d k=%d maxiter=1", seed, k), dups, KMeansOptions{K: k, Seed: seed, MaxIter: 1}})
		}
	}
	for gen := int64(3600); gen < 3700; gen++ {
		m := randomDuplicates(gen)
		for k := 3; k <= len(m.Rows)/2; k += 1 + len(m.Rows)/10 {
			for seed := int64(1); seed <= 3; seed++ {
				inputs = append(inputs, input{fmt.Sprintf("random gen=%d seed=%d k=%d", gen, seed, k), m, KMeansOptions{K: k, Seed: seed}})
			}
		}
	}
	firstRescue, laterRescue, capped := 0, 0, 0
	for _, in := range inputs {
		want, wantMoved, reseeds := referenceKMeans(in.m, in.opt)
		for _, round := range reseeds {
			if round == 1 {
				firstRescue++
			} else {
				laterRescue++
			}
		}
		if !want.Converged {
			capped++
		}
		var moved []int
		opt := in.opt
		opt.OnIteration = func(iter, n int, converged bool) {
			if iter != len(moved)+1 || converged != (n == 0) {
				t.Errorf("%s: OnIteration(%d, %d, %v) after %d rounds", in.name, iter, n, converged, len(moved))
			}
			moved = append(moved, n)
		}
		got, err := KMeans(in.m, opt)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Centroids, want.Centroids) {
			t.Errorf("%s: labels or centroids differ from the full scan", in.name)
		}
		if got.SSE != want.SSE || got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("%s: SSE %v, %d rounds, converged %v; full scan %v, %d, %v", in.name,
				got.SSE, got.Iterations, got.Converged, want.SSE, want.Iterations, want.Converged)
		}
		if !reflect.DeepEqual(moved, wantMoved) {
			t.Errorf("%s: moved %v, full scan %v", in.name, moved, wantMoved)
		}
	}
	if firstRescue == 0 || laterRescue == 0 || capped == 0 {
		t.Errorf("inputs exercised %d first-round and %d later empty-cluster rescues and %d capped runs; want all > 0",
			firstRescue, laterRescue, capped)
	}
}
