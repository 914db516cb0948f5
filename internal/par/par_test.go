package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsAll(t *testing.T) {
	var visited [100]atomic.Bool
	if err := ForEach(100, 8, func(i int) error {
		if visited[i].Swap(true) {
			t.Errorf("index %d visited twice", i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range visited {
		if !visited[i].Load() {
			t.Errorf("index %d not visited", i)
		}
	}
}

func TestForEachLowestErrorWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for trial := 0; trial < 20; trial++ {
		err := ForEach(64, 8, func(i int) error {
			switch i {
			case 9:
				return errLow
			case 40:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: err = %v, want the lowest-index error", trial, err)
		}
	}
}

func TestForEachEmptyAndSequential(t *testing.T) {
	wantErr := errors.New("boom")
	if err := ForEach(0, 4, func(int) error { return wantErr }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
	// workers=1 exercises the sequential fast path.
	n := 0
	if err := ForEach(5, 1, func(i int) error { n++; return nil }); err != nil || n != 5 {
		t.Errorf("sequential path: n=%d err=%v", n, err)
	}
	if err := ForEach(5, 1, func(i int) error {
		if i == 2 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Errorf("sequential error = %v", err)
	}
}

// TestForEachRunsEveryIndexBelowFailure pins the documented contract:
// a failure at index i may skip work above i, but every index below i
// still runs, at any worker count.
func TestForEachRunsEveryIndexBelowFailure(t *testing.T) {
	const n, fail = 200, 123
	wantErr := errors.New("fail")
	for _, workers := range []int{1, 2, 3, 8} {
		for trial := 0; trial < 20; trial++ {
			var ran [n]atomic.Bool
			err := ForEach(n, workers, func(i int) error {
				ran[i].Store(true)
				if i == fail {
					return wantErr
				}
				return nil
			})
			if !errors.Is(err, wantErr) {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
			}
			for i := 0; i <= fail; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d trial %d: index %d below the failure never ran",
						workers, trial, i)
				}
			}
		}
	}
}

// sink keeps BenchmarkForEach's items from being optimized away.
var sink [676]float64

// BenchmarkForEach isolates dispatch overhead: 676 items (one k-means
// assignment round over the comparable corpus) of roughly 50 ns each.
func BenchmarkForEach(b *testing.B) {
	item := func(i int) error {
		x := float64(i)
		for j := 0; j < 40; j++ {
			x = x*1.000001 + 0.5
		}
		sink[i] = x
		return nil
	}
	for i := 0; i < b.N; i++ {
		_ = ForEach(len(sink), 0, item)
	}
}
