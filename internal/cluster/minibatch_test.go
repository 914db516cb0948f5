package cluster

import (
	"reflect"
	"testing"
)

func TestMiniBatchSeparatesBlobs(t *testing.T) {
	m, err := Extract(twoBlobs(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MiniBatch(m, MiniBatchOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 || len(res.Labels) != len(m.Rows) {
		t.Fatalf("K = %d, %d labels for %d rows", res.K, len(res.Labels), len(m.Rows))
	}
	// The two blobs are far apart: every "small" run must share a label,
	// and every "big" run the other one.
	half := len(m.Rows) / 2
	for i := 1; i < half; i++ {
		if res.Labels[i] != res.Labels[0] {
			t.Fatalf("small blob split: labels %v", res.Labels)
		}
	}
	for i := half + 1; i < len(m.Rows); i++ {
		if res.Labels[i] != res.Labels[half] {
			t.Fatalf("big blob split: labels %v", res.Labels)
		}
	}
	if res.Labels[0] == res.Labels[half] {
		t.Fatalf("blobs merged: labels %v", res.Labels)
	}
}

// TestMiniBatchDeterministic: equal (matrix, options) tuples produce
// identical results — including across worker counts, which only
// parallelize the final assignment pass.
func TestMiniBatchDeterministic(t *testing.T) {
	m, err := Extract(twoBlobs(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := MiniBatch(m, MiniBatchOptions{K: 3, Seed: 42, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, err := MiniBatch(m, MiniBatchOptions{K: 3, Seed: 42, BatchSize: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers = %d diverged:\n%+v\nvs\n%+v", workers, got, base)
		}
	}
	// A different seed is allowed to differ; assert only that the run
	// still terminates with a full labeling.
	other, err := MiniBatch(m, MiniBatchOptions{K: 3, Seed: 43, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Labels) != len(m.Rows) {
		t.Fatalf("seed 43: %d labels", len(other.Labels))
	}
}

func TestMiniBatchBounds(t *testing.T) {
	m := matrixOf([]float64{0, 0}, []float64{1, 1})
	if _, err := MiniBatch(m, MiniBatchOptions{K: 0, Seed: 1}); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := MiniBatch(m, MiniBatchOptions{K: 3, Seed: 1}); err == nil {
		t.Error("k > rows accepted")
	}
	res, err := MiniBatch(m, MiniBatchOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] == res.Labels[1] {
		t.Error("k = n left two rows in one cluster")
	}
}

// TestMiniBatchObserver: the iteration callback sees every batch and
// the convergence flag on the final one.
func TestMiniBatchObserver(t *testing.T) {
	m, err := Extract(twoBlobs(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var iters []int
	var sawConverged bool
	res, err := MiniBatch(m, MiniBatchOptions{K: 2, Seed: 3,
		OnIteration: func(iter, moved int, converged bool) {
			iters = append(iters, iter)
			sawConverged = sawConverged || converged
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != res.Iterations {
		t.Fatalf("observer saw %d iterations, result reports %d", len(iters), res.Iterations)
	}
	for i, it := range iters {
		if it != i+1 {
			t.Fatalf("iteration numbers not 1-based sequential: %v", iters)
		}
	}
	if res.Converged && !sawConverged {
		t.Error("converged run never reported converged=true to the observer")
	}
}
